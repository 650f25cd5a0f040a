"""Tests for the IRAW-extended scoreboard (paper Figures 6-8).

The key test reproduces the paper's running example bit-for-bit on the
shift-register oracle: a 3-cycle producer with one bypass level and N=1
initializes its destination's shift register to ``0001011`` and blocks
consumers exactly at cycle i+4.  The program's timestamp scoreboard must
answer the same on every cycle, for any N and any sequence of producers
and completions.
"""

import pytest
from core_oracle import Scoreboard as BitScoreboard
from hypothesis import given, settings, strategies as st

from repro.core.scoreboard import Scoreboard
from repro.errors import ConfigError, PipelineError


def make_scoreboard(n=1, baseline_bits=5, bypass=1, cls=Scoreboard):
    return cls(num_registers=8, baseline_bits=baseline_bits,
               bypass_levels=bypass, stabilization_cycles=n)


def is_ready(sb: Scoreboard, reg: int, cycle: int) -> bool:
    """The MSB as the issue stage reads it from the timestamp lists.

    ``InOrderCore.run`` applies this rule inline; the core-vs-oracle
    property in ``test_core_oracle.py`` checks that copy.
    """
    return (cycle >= sb.ready[reg]
            and not sb.bubble_lo[reg] <= cycle < sb.bubble_hi[reg])


def ready_timeline(sb: Scoreboard, reg: int, start: int,
                   horizon: int) -> list[bool]:
    """is_ready(reg) at issue cycles start, ..., start+horizon-1."""
    return [is_ready(sb, reg, cycle)
            for cycle in range(start, start + horizon)]


def bit_timeline(sb: BitScoreboard, reg: int, horizon: int) -> list[bool]:
    """The oracle's MSB over the next ``horizon`` cycles (ticking it)."""
    timeline = []
    for _ in range(horizon):
        timeline.append(sb.is_ready(reg))
        sb.tick()
    return timeline


def both_timelines(latency, horizon, **sizing):
    """(oracle, timestamps) timelines of one producer issued at cycle 0."""
    bits = make_scoreboard(cls=BitScoreboard, **sizing)
    bits.producer_issued(3, latency)
    stamps = make_scoreboard(**sizing)
    stamps.producer_issued(3, 0, latency)
    return bit_timeline(bits, 3, horizon), ready_timeline(stamps, 3, 0,
                                                          horizon)


class TestPaperFigure8:
    def test_pattern_0001011(self):
        """The literal example of Section 4.1.2 / Figure 8."""
        sb = make_scoreboard(n=1, baseline_bits=5, bypass=1,
                             cls=BitScoreboard)
        sb.producer_issued(reg=3, latency=3)
        # Physical width is 5+1+2=8; the paper's 7-bit example maps to the
        # first 7 positions with an extra trailing '1'.
        assert sb.pattern_string(3).startswith("0001011")

    def test_readiness_windows_match_paper(self):
        """Ready at i+3 (bypass), blocked at i+4 (bubble), ready i+5+."""
        expected = [False, False, False, True, False, True, True]
        assert both_timelines(3, 7, n=1) == (expected, expected)

    def test_baseline_has_no_bubble(self):
        """N=0 reduces to the classic 00011 delayed-wakeup pattern."""
        sb = make_scoreboard(n=0, cls=BitScoreboard)
        sb.producer_issued(reg=3, latency=3)
        assert sb.pattern_string(3).startswith("00011")
        expected = [False, False, False, True, True, True]
        assert both_timelines(3, 6, n=0) == (expected, expected)

    def test_single_cycle_producer(self):
        # i: not ready, i+1: bypass, i+2: bubble, i+3+: stable.
        expected = [False, True, False, True, True]
        assert both_timelines(1, 5, n=1) == (expected, expected)

    def test_n2_has_two_bubble_cycles(self):
        expected = [False, True, False, False, True, True]
        assert both_timelines(1, 6, n=2) == (expected, expected)


class TestLongLatencyPath:
    def test_long_producer_zeroes_register(self):
        sb = make_scoreboard(n=1)
        sb.producer_issued(reg=2, cycle=0, latency=20)  # beyond B-1
        assert not any(ready_timeline(sb, 2, 0, 1000))

    def test_completion_event_installs_tail(self):
        sb = make_scoreboard(n=1)
        sb.producer_issued(reg=2, cycle=0, latency=20)
        sb.long_latency_completed(2, cycle=5)
        # Ready now (result bus), bubble next cycle, then stable.
        assert ready_timeline(sb, 2, 5, 4) == [True, False, True, True]

    def test_completion_event_baseline(self):
        sb = make_scoreboard(n=0)
        sb.producer_issued(reg=2, cycle=0, latency=20)
        sb.long_latency_completed(2, cycle=0)
        assert all(ready_timeline(sb, 2, 0, 4))


class TestBookkeeping:
    def test_idle_registers_always_ready(self):
        sb = make_scoreboard()
        assert all(ready_timeline(sb, 0, 0, 10))

    def test_stabilization_bounds(self):
        """N is never negative, and the oracle's register holds at most
        the N it is sized for."""
        with pytest.raises(ConfigError):
            make_scoreboard(n=-1)
        with pytest.raises(ConfigError):
            make_scoreboard(n=3, cls=BitScoreboard)

    def test_latency_must_be_positive(self):
        sb = make_scoreboard()
        with pytest.raises(PipelineError):
            sb.producer_issued(reg=1, cycle=0, latency=0)

    def test_max_encodable_latency(self):
        sb = make_scoreboard(baseline_bits=6)
        assert sb.max_encodable_latency == 5

    def test_sizing_validation(self):
        with pytest.raises(ConfigError):
            Scoreboard(num_registers=0)
        with pytest.raises(ConfigError):
            Scoreboard(baseline_bits=1)


@settings(max_examples=60, deadline=None)
@given(latency=st.integers(min_value=1, max_value=4),
       n=st.integers(min_value=0, max_value=3),
       bypass=st.integers(min_value=1, max_value=2),
       issue=st.integers(min_value=0, max_value=50))
def test_readiness_window_property(latency, n, bypass, issue):
    """Property (paper Section 4.1.2): a consumer may issue at cycle c iff
    c is in the bypass window [i+L, i+L+bypass-1] or past the bubble
    (c >= i+L+bypass+N)."""
    sb = Scoreboard(num_registers=4, baseline_bits=6, bypass_levels=bypass,
                    stabilization_cycles=n)
    sb.producer_issued(reg=1, cycle=issue, latency=latency)
    horizon = latency + bypass + n + 3
    timeline = ready_timeline(sb, 1, issue, horizon)
    for offset, ready in enumerate(timeline):
        in_bypass = latency <= offset < latency + bypass
        past_bubble = offset >= latency + bypass + n
        assert ready == (in_bypass or past_bubble), (offset, timeline)


#: One scoreboard event per cycle: (kind, register, argument).
_EVENTS = st.one_of(
    st.tuples(st.just("idle"), st.just(0), st.just(0)),
    st.tuples(st.just("issue"), st.integers(0, 3), st.integers(1, 9)),
    st.tuples(st.just("complete"), st.integers(0, 3), st.just(0)),
)


@settings(max_examples=200, deadline=None)
@given(baseline_bits=st.integers(2, 6),
       bypass=st.integers(0, 2),
       n=st.integers(0, 2),
       events=st.lists(_EVENTS, min_size=1, max_size=60))
def test_timestamps_match_shift_registers(baseline_bits, bypass, n, events):
    """Random producer (short and long latency) and long-latency
    completion sequences on scoreboards built for N: readiness of the
    timestamp scoreboard equals the shift registers' MSB on every
    register and every cycle, including the quiet cycles after the last
    event."""
    sizing = dict(num_registers=4, baseline_bits=baseline_bits,
                  bypass_levels=bypass, stabilization_cycles=n)
    bits, stamps = BitScoreboard(**sizing), Scoreboard(**sizing)
    tail = [("idle", 0, 0)] * (baseline_bits + bypass + 4)
    for cycle, (kind, reg, arg) in enumerate(events + tail):
        if kind == "issue":
            bits.producer_issued(reg, arg)
            stamps.producer_issued(reg, cycle, arg)
        elif kind == "complete":
            bits.long_latency_completed(reg)
            stamps.long_latency_completed(reg, cycle)
        for probe in range(4):
            assert is_ready(stamps, probe, cycle) == bits.is_ready(probe), \
                (cycle, probe, kind)
        bits.tick()
