import pytest

from measure import REFERENCE_S, Checks, ReferenceClock, tail_percentile, timed


@pytest.mark.parametrize(
    "n, percentile",
    [(10, None), (19, None), (20, 50.0), (59, 75.0), (100, 90.0), (120, 90.0),
     (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_is_the_highest_ladder_percentile_with_ten_samples_beyond(n, percentile):
    samples = list(range(n, 0, -1))  # unsorted input
    got = tail_percentile(samples)
    if percentile is None:
        assert got is None
        return
    p, value = got
    assert p == percentile
    assert sum(1 for s in samples if s > value) >= 10


def test_tail_value_is_the_nearest_rank_sample():
    assert tail_percentile(range(1, 101)) == (90.0, 90)


def test_checks_count_failures_against_attempts():
    checks = Checks()
    assert checks.check(True, "fine")
    assert not checks.check(False, "broken")
    assert (checks.attempted, checks.failed, checks.correct) == (2, 1, False)
    assert checks.lines == ["pass: fine", "FAIL: broken"]


def test_reference_clock_rescales_by_the_speed_during_and_just_before_an_interval():
    clock = ReferenceClock()
    assert clock.seconds((10.0, 0.0), (12.0, 0.0)) == pytest.approx(2.0)  # no samples: wall
    clock.record(5.0, REFERENCE_S / 4.0)  # too early to count
    clock.record(9.8, REFERENCE_S / 0.5)  # within the look-back
    clock.record(11.0, REFERENCE_S / 1.5)
    clock.record(12.5, REFERENCE_S / 4.0)  # after the interval
    # 2 s of wall time, 0.25 s of it in the handler, at mean speed 1.0
    assert clock.seconds((10.0, 1.0), (12.0, 1.25)) == pytest.approx(1.75)


def test_timed_returns_wall_time_while_the_clock_is_stopped():
    out, seconds = timed(sum, [1, 2, 3])
    assert out == 6
    assert 0.0 <= seconds < 0.1
