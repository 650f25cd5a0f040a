"""The paper's contribution: IRAW avoidance mechanisms.

* :mod:`~repro.core.scoreboard` — register-file strategy (Figures 6-8);
* :mod:`~repro.core.iq_gate` — instruction-queue strategy (Figure 9, Eq. 1);
* :mod:`~repro.core.stall_guard` — infrequently written cache-like blocks;
* :mod:`~repro.core.stable` — the Store Table for DL0 (Figure 10);
* :mod:`~repro.core.policy` — the per-structure bundle;
* :mod:`~repro.core.config` — mechanism configuration.

The hardware reprograms each mechanism for a Vcc level by rewriting a
few bits (Sections 4.1.3-4.4).  A simulated core is built for one
operating point (:func:`repro.engine.executors.run_core`), so each
mechanism takes its N in its constructor, from :class:`IrawPolicy`,
and a DVFS schedule runs each phase on a core built for that phase's
point.
"""

from repro.core.config import IrawConfig
from repro.core.iq_gate import IqOccupancyGate
from repro.core.policy import GUARDED_BLOCKS, IrawPolicy
from repro.core.scoreboard import Scoreboard
from repro.core.stable import MatchKind, StableLookup, StoreTable
from repro.core.stall_guard import FillStallGuard

__all__ = [
    "FillStallGuard",
    "GUARDED_BLOCKS",
    "IqOccupancyGate",
    "IrawConfig",
    "IrawPolicy",
    "MatchKind",
    "Scoreboard",
    "StableLookup",
    "StoreTable",
]
