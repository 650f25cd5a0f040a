"""Simulator throughput benchmarks (cycles simulated per second).

Not a paper artifact — these track the cost of the substrate itself so
regressions in the hot cycle loop are visible.
"""

import pytest

from repro.core.config import IrawConfig
from repro.pipeline.core import simulate
from repro.workloads.kernels import kernel_trace
from repro.workloads.profiles import SPECINT_LIKE
from repro.workloads.synthetic import SyntheticTraceGenerator


@pytest.fixture(scope="module")
def synthetic_trace():
    return SyntheticTraceGenerator(SPECINT_LIKE, seed=0).generate(4000)


def test_pipeline_throughput_baseline(benchmark, synthetic_trace):
    result = benchmark.pedantic(
        simulate, args=(synthetic_trace, IrawConfig.disabled()),
        rounds=3, iterations=1)
    assert result.instructions == 4000


def test_pipeline_throughput_iraw(benchmark, synthetic_trace):
    result = benchmark.pedantic(
        simulate, args=(synthetic_trace, IrawConfig(stabilization_cycles=1)),
        rounds=3, iterations=1)
    assert result.iraw_violations == 0


def test_pipeline_throughput_golden_checked(benchmark):
    trace, _ = kernel_trace("sort", 32)
    result = benchmark.pedantic(
        simulate, args=(trace, IrawConfig(stabilization_cycles=1)),
        rounds=3, iterations=1)
    assert result.value_mismatches == 0


def test_trace_generation_throughput(benchmark):
    def generate():
        return SyntheticTraceGenerator(SPECINT_LIKE, seed=1).generate(4000)

    trace = benchmark.pedantic(generate, rounds=3, iterations=1)
    assert len(trace) == 4000
