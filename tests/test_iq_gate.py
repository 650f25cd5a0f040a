"""Tests for the IQ occupancy gate (paper Figure 9, Eq. 1)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.dvfs import DvfsPhase, DvfsScenario
from repro.circuits.frequency import ClockScheme
from repro.core.config import IrawConfig
from repro.core.iq_gate import IqOccupancyGate
from repro.core.policy import IrawPolicy
from repro.errors import ConfigError
from repro.pipeline.core import CoreSetup, InOrderCore
from repro.pipeline.resources import PipelineParams
from repro.workloads.profiles import KERNEL_LIKE, SPECINT_LIKE
from repro.workloads.synthetic import SyntheticTraceGenerator


class TestThreshold:
    def test_equation_one(self):
        """threshold = ICI + AI*N."""
        assert IqOccupancyGate(1, issue_window=2,
                               alloc_width=2).issue_threshold == 2 + 2 * 1
        assert IqOccupancyGate(2, issue_window=2,
                               alloc_width=2).issue_threshold == 2 + 2 * 2

    def test_shift_trick_matches_multiply(self):
        """Figure 9: appending '0' to the right of N == N * AI for AI=2."""
        for n in range(1, 4):
            gate = IqOccupancyGate(n, alloc_width=2)
            assert gate.issue_threshold == 2 + (n << 1)

    def test_non_power_alloc_width(self):
        gate = IqOccupancyGate(2, issue_window=2, alloc_width=3)
        assert gate.issue_threshold == 2 + 6


class TestGating:
    def test_blocks_below_threshold(self):
        assert IqOccupancyGate(1).issue_threshold == 4  # 3 blocks

    def test_disabled_gate_always_allows(self):
        """N = 0, as a switched-off or baseline gate is built: Figure 9's
        stall_issue? signal is 0."""
        assert IqOccupancyGate(0).issue_threshold == 0  # an empty IQ passes

    def test_drain_noops(self):
        """Section 4.2: AI*N NOOPs injected when the pipeline drains."""
        assert IqOccupancyGate(1, alloc_width=2).drain_noops == 2
        assert IqOccupancyGate(0, alloc_width=2).drain_noops == 0


class TestValidation:
    def test_positive_widths(self):
        with pytest.raises(ConfigError):
            IqOccupancyGate(issue_window=0)

    def test_negative_n(self):
        with pytest.raises(ConfigError):
            IqOccupancyGate(-1)


class TestCoreGateSizing:
    """The core's Eq. 1 gate counts its own ICI and AI."""

    @settings(max_examples=60, deadline=None)
    @given(issue_window=st.integers(1, 4), alloc_width=st.integers(1, 4),
           n=st.integers(0, 2), iq_enabled=st.booleans())
    def test_threshold_follows_the_pipeline_params(self, issue_window,
                                                   alloc_width, n,
                                                   iq_enabled):
        params = PipelineParams(issue_window=issue_window,
                                alloc_width=alloc_width)
        iraw = IrawConfig(stabilization_cycles=n, iq_enabled=iq_enabled)
        core = InOrderCore(CoreSetup(iraw=iraw, params=params))
        gate = core.policy.iq_gate
        on = iq_enabled and n > 0
        assert gate.issue_threshold == \
            (issue_window + alloc_width * n if on else 0)
        assert gate.drain_noops == (alloc_width * n if on else 0)

    def test_an_undersized_gate_reports_the_reads_it_lets_through(self):
        """The IQ check runs on every issue, not only with the gate off:
        a gate sized for AI = 1 on an AI = 3 core lets still-stabilizing
        entries issue, and each such read is an IRAW violation."""
        trace = SyntheticTraceGenerator(SPECINT_LIKE, seed=1).generate(2000)
        params = PipelineParams(alloc_width=3)
        for n, expected in ((1, 1), (2, 31)):
            iraw = IrawConfig(stabilization_cycles=n)
            setup = CoreSetup(iraw=iraw, params=params)
            assert InOrderCore(setup).run(trace).iraw_violations == 0
            core = InOrderCore(setup)
            core.policy = IrawPolicy(iraw, PipelineParams(alloc_width=1),
                                     setup.memory)
            result = core.run(trace)
            assert core.iq_violations == result.iraw_violations == expected

    def test_an_iq_smaller_than_the_threshold_is_refused(self):
        params = PipelineParams(iq_size=4)
        with pytest.raises(ConfigError, match="4-entry IQ .* threshold 6"):
            InOrderCore(CoreSetup(iraw=IrawConfig(stabilization_cycles=2),
                                  params=params))
        # The same IQ is large enough at N = 1 (2 + 2), and with the
        # gate off no threshold applies.
        InOrderCore(CoreSetup(iraw=IrawConfig(stabilization_cycles=1),
                              params=params))
        InOrderCore(CoreSetup(iraw=IrawConfig(stabilization_cycles=2,
                                              iq_enabled=False),
                              params=params))

    def test_an_iq_size_that_is_no_power_of_two_still_runs(self):
        trace = SyntheticTraceGenerator(KERNEL_LIKE, seed=3).generate(200)
        core = InOrderCore(CoreSetup(iraw=IrawConfig(stabilization_cycles=2),
                                     params=PipelineParams(iq_size=24)))
        assert core.run(trace).instructions == 200

    def test_dvfs_sizes_its_live_gate_from_its_params(self):
        trace = SyntheticTraceGenerator(KERNEL_LIKE, seed=3).generate(300)
        scenario = DvfsScenario(scheme=ClockScheme.IRAW,
                                params=PipelineParams(alloc_width=3))
        outcome = scenario.run(trace, [DvfsPhase(450.0, 300)])
        phase = outcome.phases[0]
        assert phase.stabilization_cycles > 0
        assert phase.drain_noops == 3 * phase.stabilization_cycles
