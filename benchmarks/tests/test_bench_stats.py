import pytest

import calibration
import run
import stats
import workloads


def test_tail_rank_leaves_ten_beyond():
    assert stats.tail_rank(40) == 30
    assert stats.tail_rank(96) == 86
    assert stats.tail_rank(240) == 230


def test_no_tail_below_forty_ops():
    assert stats.tail_rank(39) is None
    assert stats.tail_value([1.0, 2.0, 3.0, 4.0], 4) is None


def test_tail_value_pools_whole_rounds():
    one_round = [float(v) for v in range(1, 41)]
    assert stats.tail_value(one_round, 40) == 30.0
    three_rounds = one_round * 3
    # rank 3 * 30 = 90 of 120 sorted samples: value 30, with 30 beyond it.
    assert stats.tail_value(three_rounds, 40) == 30.0
    shuffled = list(reversed(one_round)) + one_round
    assert stats.tail_value(shuffled, 40) == 30.0


def test_tail_value_rejects_partial_rounds():
    with pytest.raises(ValueError):
        stats.tail_value([1.0] * 41, 40)


@pytest.mark.parametrize("name, size", [("sweeps", 96), ("budgets", 240),
                                        ("gates", 4), ("lattice", 96)])
def test_op_lists_are_seeded_and_fixed_in_size(name, size):
    a, b = workloads.build(name, 7), workloads.build(name, 7)
    assert a == b and len(a) == size
    assert workloads.build(name, 8) != a
    assert len(workloads.build(name, 8)) == size


def test_calibration_scale_maps_reference_speed_to_one():
    assert calibration.scale([calibration.REFERENCE_NS] * 3) == 1.0
    assert calibration.scale([calibration.REFERENCE_NS * 2, 1, calibration.REFERENCE_NS * 2]) == 0.5
    assert calibration.sample_ns() > 0


def test_latency_metrics_fall_back_to_the_median_without_a_tail():
    assert run.latency_metrics([100.0, 300.0], 2) == (5.0, 200.0, 200.0)
    samples = [float(v) for v in range(1, 41)]
    ops_per_s, p50, tail = run.latency_metrics(samples, 40)
    assert (p50, tail) == (20.5, 30.0)
    assert ops_per_s == 40 / (sum(samples) / 1e3)
