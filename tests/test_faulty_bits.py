"""Faulty Bits' fault maps: drawn once per process and recipe.

Every Table 1 Faulty Bits core disables the same lines: the maps depend
on the design margin, the seed, the variation model and the three cache
geometries only.  The memo must hand back exactly the maps a fresh
``random.Random(seed)`` stream draws, IL0, DL0 and UL1 in turn.
"""

import random
from dataclasses import replace

from repro.baselines.faulty_bits import FaultyBitsBaseline, _fault_maps
from repro.circuits.frequency import FrequencySolver
from repro.memory.hierarchy import MemoryConfig, MemorySystem


def fresh_draw(baseline: FaultyBitsBaseline, memory: MemorySystem):
    """The disabled ways per set of each cache, drawn without the memo."""
    rng = random.Random(baseline.seed)
    maps = []
    for cache in (memory.il0, memory.dl0, memory.ul1):
        p_line = baseline.variation.line_failure_probability(
            baseline.design_sigma, cache.line_size * 8 + 30)
        maps.append([sum(1 for _ in range(cache.associativity)
                         if rng.random() < p_line)
                     for _ in range(cache.num_sets)])
    return maps


def degraded(baseline: FaultyBitsBaseline, config: MemoryConfig):
    """A hierarchy with ``baseline``'s lines disabled, and the report."""
    memory = MemorySystem(config)
    report = baseline.apply_to_memory(memory)
    return memory, report


def disabled_ways(memory: MemorySystem):
    return [[cache.associativity - usable for usable in cache._usable_ways]
            for cache in (memory.il0, memory.dl0, memory.ul1)]


def test_memoized_map_equals_fresh_draw():
    baseline = FaultyBitsBaseline(FrequencySolver())
    config = MemoryConfig()
    expected = fresh_draw(baseline, MemorySystem(config))
    _fault_maps.cache_clear()
    first, first_report = degraded(baseline, config)
    hits = _fault_maps.cache_info().hits
    second, second_report = degraded(baseline, config)
    assert _fault_maps.cache_info().hits == hits + 1
    assert disabled_ways(first) == disabled_ways(second) == expected
    assert first_report == second_report
    assert first_report == {
        name: sum(ways) / (len(ways) * cache.associativity)
        for name, ways, cache in zip(
            ("IL0", "DL0", "UL1"), expected,
            (first.il0, first.dl0, first.ul1))}
    assert any(sum(ways) for ways in expected)


def test_maps_are_keyed_by_the_whole_recipe():
    """A second seed or another DL0 draws its own maps; the UL1 map
    moves with the DL0 geometry, because one stream draws all three."""
    baseline = FaultyBitsBaseline(FrequencySolver())
    config = MemoryConfig()
    smaller = replace(config, dl0_size=12 * 1024)
    reseeded = FaultyBitsBaseline(FrequencySolver(), seed=2)
    for which, memory_config in ((baseline, config), (baseline, smaller),
                                 (reseeded, config)):
        memory, _ = degraded(which, memory_config)
        assert disabled_ways(memory) == fresh_draw(
            which, MemorySystem(memory_config))
    default = disabled_ways(degraded(baseline, config)[0])
    assert disabled_ways(degraded(baseline, smaller)[0])[2] != default[2]
    assert disabled_ways(degraded(reseeded, config)[0]) != default
