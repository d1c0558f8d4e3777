"""Summary statistics of one run's op latencies."""

from __future__ import annotations

# A tail percentile needs at least this many samples beyond it, and is
# reported only for rounds of at least TAIL_MIN_OPS ops.
TAIL_BEYOND = 10
TAIL_MIN_OPS = 40


def tail_rank(ops_per_round: int) -> int | None:
    """1-based rank, within one round of n ops, of the highest percentile
    with TAIL_BEYOND samples beyond it; None below TAIL_MIN_OPS ops, where
    that percentile would be no tail."""
    if ops_per_round < TAIL_MIN_OPS:
        return None
    return ops_per_round - TAIL_BEYOND


def tail_value(samples: list[float], ops_per_round: int) -> float | None:
    """The tail percentile of samples pooled over whole rounds.

    The percentile is fixed by the round size, rank/n: over r rounds it is
    the (r * rank)-th smallest of r * n samples, with r * TAIL_BEYOND beyond.
    """
    rank = tail_rank(ops_per_round)
    if rank is None:
        return None
    rounds, extra = divmod(len(samples), ops_per_round)
    if extra or not rounds:
        raise ValueError(f"{len(samples)} samples are not whole rounds of {ops_per_round}")
    return sorted(samples)[rounds * rank - 1]
