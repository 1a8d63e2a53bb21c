"""Scaling times by the reference loop's local speed."""

import pytest

from perfbench import speed
from perfbench.speed import REFERENCE_NS, SpeedProbe


def probe(timings):
    """A probe holding ``(at, took)`` timings instead of measured ones."""
    p = SpeedProbe()
    for at, took in timings:
        p.at_ns.append(at)
        p.took_ns.append(took)
    return p


def test_at_the_reference_speed_only_the_loop_time_is_removed():
    p = probe([(0, REFERENCE_NS), (10_000_000, REFERENCE_NS)])
    assert p.scale(5_000_000) == 1.0
    assert p.spent_ns(0, 20_000_000) == 2 * REFERENCE_NS
    assert p.scaled_ns(0, 20_000_000) == 20_000_000 - 2 * REFERENCE_NS
    # A timing counts where it starts: [start, end) holds the first only.
    assert p.spent_ns(0, 10_000_000) == REFERENCE_NS


def test_a_slower_machine_is_scaled_back():
    p = probe([(0, 2 * REFERENCE_NS)])
    assert p.scale(123) == 0.5
    assert p.scaled_ns(1_000_000, 5_000_000) == 2_000_000


def test_local_speed_is_the_median_of_the_nearest_timings(monkeypatch):
    monkeypatch.setattr(speed, "NEIGHBOURS", 3)
    slow = 4 * REFERENCE_NS
    p = probe([(0, 100), (10, 100), (20, slow), (30, 100), (40, slow), (50, slow)])
    assert p.local_ns(19) == 100  # one slow timing among three is an outlier
    assert p.local_ns(44) == slow
    assert p.local_ns(10**9) == slow  # past the last timing


def test_each_piece_of_a_run_takes_its_own_speed():
    ms = 1_000_000
    # A one-second run timed every 10 ms: at the reference speed for the
    # first half, at half of it for the second.
    timings = [(t * ms, REFERENCE_NS) for t in range(0, 500, 10)]
    timings += [(t * ms, 2 * REFERENCE_NS) for t in range(500, 1000, 10)]
    p = probe(timings)
    starts = [t * ms for t in range(0, 1000, 100)]
    # Ten 100 ms pieces, each holding ten loop timings.
    fast_piece = 100 * ms - 10 * REFERENCE_NS
    slow_piece = (100 * ms - 20 * REFERENCE_NS) / 2
    assert p.scaled_run_ns(0, starts, 1000 * ms) == pytest.approx(
        5 * fast_piece + 5 * slow_piece
    )


def test_tick_times_the_loop_once_per_interval(monkeypatch):
    monkeypatch.setattr(speed, "INTERVAL_NS", 10**12)
    p = SpeedProbe()
    p.tick()
    p.tick()
    assert len(p.took_ns) == 1
    p.sample()
    assert len(p.took_ns) == 2 and all(took > 0 for took in p.took_ns)
