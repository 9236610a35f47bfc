import math
import time

import pytest

from measure import (
    HELD_OUT_SEED,
    percentile,
    poisson_schedule,
    run_open_loop,
    supported_percentile,
    tail,
)


def test_percentile_is_nearest_rank():
    samples = list(range(1, 11))
    assert percentile(samples, 50) == 5
    assert percentile(samples, 90) == 9
    assert percentile(samples, 91) == 10
    assert percentile(samples, 100) == 10
    assert percentile(list(range(1, 21)), 95) == 19
    assert percentile([3.0], 50) == 3.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


@pytest.mark.parametrize("n,expected", [(200, 95.0), (100, 90.0),
                                        (1000, 95.0), (10, 50.0),
                                        (21, 52.38)])
def test_supported_percentile(n, expected):
    assert supported_percentile(n) == expected


def test_supported_percentile_leaves_ten_beyond():
    for n in range(1, 600):
        p = supported_percentile(n)
        assert 50.0 <= p <= 95.0
        beyond = n - math.ceil(p / 100.0 * n)
        assert p == 50.0 or beyond >= 10, (n, p)


def test_tail_reports_sample_count():
    result = tail([float(i) for i in range(100)])
    assert (result.p, result.value, result.n) == (90.0, 89.0, 100)


def test_schedule_is_seeded():
    a = poisson_schedule(10.0, 5.0, seed=3)
    assert a == poisson_schedule(10.0, 5.0, seed=3)
    assert a != poisson_schedule(10.0, 5.0, seed=4)
    assert a == sorted(a) and all(0 < t < 5.0 for t in a)
    long = poisson_schedule(10.0, 200.0, seed=1)
    assert 1800 < len(long) < 2200


def test_open_loop_times_from_due_and_records_lateness():
    def send(i, sender):
        time.sleep(0.05)
        return True, i

    # Three requests due at once on one sender: the third waits for two.
    records = run_open_loop([0.0, 0.0, 0.0], send, senders=1)
    assert [r.value for r in records] == [0, 1, 2]
    assert records[2].late >= 0.09
    assert records[2].latency >= 0.14
    assert records[0].late < 0.04
    assert all(r.ok for r in records)


def test_open_loop_propagates_sender_errors():
    def send(i, sender):
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        run_open_loop([0.0], send, senders=1)


def test_held_out_seed_is_outside_the_tuning_seeds():
    # Tuning and the ten-run spread checks use seeds 1-100.
    assert HELD_OUT_SEED not in range(1, 101)
