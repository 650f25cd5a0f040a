"""repro — reproduction of "High-Performance Low-Vcc In-Order Core" (HPCA 2010).

The library implements IRAW (Immediate Read After Write) avoidance — the
paper's technique for clocking an in-order core above the SRAM write-delay
limit at low Vcc — together with every substrate the evaluation needs:

* :mod:`repro.circuits` — calibrated delay/frequency/energy/area models;
* :mod:`repro.isa` / :mod:`repro.workloads` — a mini ISA, synthetic trace
  profiles and real kernels with golden-model semantics;
* :mod:`repro.memory` / :mod:`repro.branch` — the Silverthorne-class
  memory hierarchy and predictors;
* :mod:`repro.core` — the IRAW mechanisms (scoreboard, IQ gate, STable,
  fill guards); every simulated core is built for one operating point,
  and each of its mechanisms for that point's N;
* :mod:`repro.pipeline` — the cycle-level 2-wide in-order core;
* :mod:`repro.baselines` — Table 1's Faulty Bits / Extra Bypass;
* :mod:`repro.analysis` — metrics, DVFS scenarios, reporting and the
  circuit-only figures;
* :mod:`repro.experiments` — the declarative experiment API: serializable
  ``ExperimentSpec`` files (TOML/JSON), one ``Experiment.run`` driver
  over the engine, structured ``ResultSet`` records and the named
  artifact registry behind ``python -m repro run``.

The supported, stability-guaranteed surface of all of the above is
re-exported by :mod:`repro.api` — scripts and downstream tools should
import from there.

Quickstart::

    from repro import quick_comparison
    print(quick_comparison(vcc_mv=500.0))
"""

from repro.circuits import ClockScheme, FrequencySolver
from repro.core import IrawConfig
from repro.pipeline import simulate
from repro.workloads import SyntheticTraceGenerator, kernel_trace

__version__ = "1.22.0"

__all__ = [
    "ClockScheme",
    "FrequencySolver",
    "IrawConfig",
    "SyntheticTraceGenerator",
    "kernel_trace",
    "quick_comparison",
    "simulate",
    "__version__",
]


def quick_comparison(vcc_mv: float = 500.0,
                     trace_length: int = 8_000) -> dict[str, float]:
    """One-call headline result: IRAW vs baseline at one Vcc level.

    Runs a small synthetic population and returns frequency gain,
    performance gain and the IRAW stall statistics — the reproduction of
    the paper's "57% frequency / 48% speedup at 500 mV" claim in miniature.
    """
    from repro.experiments import Experiment, ExperimentSpec

    spec = ExperimentSpec(name="quick-comparison", trace_length=trace_length,
                          vcc_mv=(vcc_mv,), artifacts=("fig11b",))
    return Experiment(spec).artifact("fig11b")[0]
