"""Span tracing from outside the program, for the traced benchmark pass.

:meth:`Tracer.install` wraps public functions of the program's modules.  Each
call records one span in memory — name, start, end and parent span —
plus, at a few boundaries, the counts the call produced (instructions
and stall cycles of a core run, dies of a sampled block).  Counts the
program already keeps, such as the result cache's hits and writes, are
read from the program after the pass instead.  Nothing in
the program changes: wrappers replace module attributes and class
methods in the running interpreter only, and the untraced passes never
install them.

A span's self time is its duration minus the durations of its direct
children; calls nest on one thread, so children never overlap.  The
layer of a span is the program module it times (``engine``,
``pipeline``, ...).

Pool workers are forked from a traced process and inherit the
wrappers, but a span recorded there could never be read back, so the
wrappers pass straight through in any process but the one that
installed them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

#: The program's modules that own traced calls, as layers.  ``api``
#: (import time) and ``branch`` (simulated counts) have no calls of
#: their own to time.
LAYERS = ("experiments", "engine", "workloads", "pipeline", "memory",
          "circuits", "analysis", "montecarlo")


def _core_counts(args, result) -> dict:
    counts = {"instructions": result.instructions,
              "cycles": result.cycles,
              "iraw_violations": result.iraw_violations,
              "mispredicts": result.branch_mispredicts}
    for reason, cycles in result.stalls.cycles.items():
        counts[f"stall.{reason.value}"] = cycles
    for block in ("IL0", "DL0", "UL1"):
        counts[f"{block.lower()}_misses"] = \
            result.memory_stats.get(block, {}).get("misses", 0)
    return counts


def _block_dies(args, result) -> dict:
    return {"dies": args[0].dies}


def _evaluated_dies(args, result) -> dict:
    return {"dies": result.dies}


def _targets():
    """(layer, owner, attribute, observe) for every traced call."""
    from repro.analysis import dvfs
    from repro.circuits import frequency
    from repro.engine import cache, executors, jobs, runner
    from repro.experiments import experiment
    from repro.memory import hierarchy
    from repro.montecarlo import campaign, importance, sampling
    from repro.pipeline import core
    from repro.workloads import riscv, synthetic

    return (
        ("experiments", experiment.Experiment, "plan", None),
        ("experiments", experiment.Experiment, "artifact", None),
        ("engine", runner.ParallelRunner, "run", None),
        ("engine", jobs, "job_key", None),
        ("engine", jobs, "shard_jobs", None),
        ("engine", jobs, "aggregate_shard_results", None),
        ("engine", cache.ResultCache, "get", None),
        ("engine", cache.ResultCache, "put", None),
        ("engine", cache.ResultCache, "flush", None),
        ("engine", cache, "code_fingerprint", None),
        ("engine", executors, "execute_job", None),
        ("engine", executors, "warm_caches", None),
        ("engine", executors, "trace_for", None),
        ("workloads", jobs.TraceSpec, "build", None),
        ("workloads", synthetic.SyntheticTraceGenerator, "generate", None),
        ("workloads", riscv, "run_riscv_program", None),
        ("pipeline", core.InOrderCore, "__init__", None),
        ("pipeline", core.InOrderCore, "run", _core_counts),
        ("memory", hierarchy.MemorySystem, "__init__", None),
        ("circuits", frequency.FrequencySolver, "operating_point", None),
        ("analysis", dvfs.DvfsScenario, "run", None),
        ("montecarlo", sampling.DieBlock, "build", _block_dies),
        ("montecarlo", sampling, "evaluate_block", _evaluated_dies),
        ("montecarlo", campaign, "yield_curve_rows", None),
        ("montecarlo", campaign, "vccmin_rows", None),
        ("montecarlo", campaign, "per_die_rows", None),
        ("montecarlo", importance, "deep_tail_rows", None),
    )


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        #: One ``[name, start, end, parent_index, counts]`` per call.
        self.spans: list = []
        self.layer_of: dict[str, str] = {}
        self._stack: list[int] = []
        self._active = True

    def _wrap(self, fn, name: str, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                # Observation may call traced functions; keep it silent.
                self._active = False
                try:
                    span[4] = observe(args, result)
                finally:
                    self._active = True
            return result

        return traced

    def install(self) -> None:
        os.register_at_fork(after_in_child=self.stop)
        for layer, owner, attr, observe in _targets():
            if isinstance(owner, type):
                name = f"{owner.__name__}.{attr}"
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(original, name, observe))
            else:
                name = attr
                original = getattr(owner, attr)
                wrapped = self._wrap(original, name, observe)
                # Rebind every module that imported the function by name.
                for module in list(sys.modules.values()):
                    if getattr(module, "__name__", "").startswith("repro") \
                            and getattr(module, attr, None) is original:
                        setattr(module, attr, wrapped)
            self.layer_of[name] = layer

    def stop(self) -> None:
        """Record nothing more (the wrappers stay, passing through)."""
        self._active = False

    # -- reduction -------------------------------------------------------

    def summary(self, window_start: float, window_end: float) -> dict:
        """Per-name totals and per-layer self times inside the window.

        ``calls``/``total_s``/``self_s`` are keyed by span name and
        cover every span, ``edges`` counts calls by ``"parent>child"``
        name; ``layer_self_s`` and ``covered_s`` only cover the spans
        that start inside ``[window_start, window_end]``, so
        ``covered_s`` plus the unattributed remainder is the window.
        """
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls: dict = {}
        edges: dict = {}
        total_s: dict = {}
        self_s: dict = {}
        counts: dict = {}
        layer_self_s = {layer: 0.0 for layer in LAYERS}
        covered_s = 0.0
        for index, (name, start, end, parent, extra) in enumerate(spans):
            duration = end - start
            own = duration - child_s[index]
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                edge = f"{spans[parent][0]}>{name}"
                edges[edge] = edges.get(edge, 0) + 1
            total_s[name] = total_s.get(name, 0.0) + duration
            self_s[name] = self_s.get(name, 0.0) + own
            for key, value in (extra or {}).items():
                bucket = counts.setdefault(name, {})
                bucket[key] = bucket.get(key, 0) + value
            if window_start <= start <= window_end:
                layer_self_s[self.layer_of[name]] += own
                if parent < 0 or spans[parent][1] < window_start:
                    covered_s += duration
        return {"calls": calls, "edges": edges, "total_s": total_s,
                "self_s": self_s, "counts": counts,
                "layer_self_s": layer_self_s, "covered_s": covered_s,
                "spans": len(spans)}

    def dump(self, path) -> None:
        """Write every span as one JSON line (name, start, end, parent)."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, extra in self.spans:
                handle.write(json.dumps(
                    {"name": name, "layer": self.layer_of[name],
                     "start": start, "end": end, "parent": parent,
                     "counts": extra}, separators=(",", ":")) + "\n")
