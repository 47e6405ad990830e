import hashlib
import math
import warnings

import numpy as np
import pytest

from torusl1.coefficients import ConvexSequence
from torusl1.exceptional import (
    nonnegative_cells,
    default_witness_order,
    default_n,
    build_witness,
    uniform_integrability_certificate,
    interval_limit_demo,
)
from torusl1.intervals import IntervalUnion
from torusl1.kernels import dirichlet_eval


@pytest.fixture(scope="module")
def log_seq():
    return ConvexSequence.log_reciprocal()


@pytest.fixture(scope="module")
def log2_seq():
    return ConvexSequence.log_squared_reciprocal()


def test_nonnegative_cell_count():
    # of the 2n+2 pieces, the kernel is nonnegative on n+2 when n is even
    # and n+1 when n is odd (sign alternates, both wrap pieces share the
    # endpoint sign (-1)^n)
    for n in range(1, 41):
        cells = nonnegative_cells(n)
        assert len(cells) == (n + 2 if n % 2 == 0 else n + 1)


def test_cells_are_sign_sound():
    for n in (3, 8, 17):
        for lo, hi in nonnegative_cells(n):
            ts = np.linspace(lo, hi, 66)[1:-1]
            assert np.all(dirichlet_eval(n, ts) >= -1e-9)


def test_order_is_by_distance_from_origin():
    for n in (4, 9, 22):
        cells = list(default_witness_order(n))
        dists = [max(abs(lo), abs(hi)) for lo, hi in cells]
        assert dists == sorted(dists)
        # the central cell pair around 0 comes first
        lo, hi = cells[0]
        assert lo <= 0.0 <= hi or abs(lo) <= 1.0 / (2 * n + 1)


def _sorted_cells(n):
    # the sort default_witness_order replaced, kept as its oracle
    return sorted(nonnegative_cells(n),
                  key=lambda c: (max(abs(c[0]), abs(c[1])), c[0]))


def test_witness_order_matches_sorted_cells():
    for n in (*range(1, 301), 1040, 4128, 16448):
        assert list(default_witness_order(n)) == _sorted_cells(n), n


@pytest.mark.parametrize("N0, b, n, digest", [
    (8, 8, None, "059094c7c0f7134a"),
    (16, 16, None, "39fc4f22a5829156"),
    (32, 32, None, "7b6685c8ef92da37"),
    (64, 64, None, "8af6849e2a999c2d"),
    (8, 8, 68, "059094c7c0f7134a"),
])
def test_witness_sets_unchanged_at_readme_scales(log_seq, N0, b, n, digest):
    # digests of repr(Q.intervals) as built by the sort-based walk; the
    # floats must come out bit-identical
    w = build_witness(log_seq, N0, b, n)
    got = hashlib.sha256(repr(w.Q.intervals).encode()).hexdigest()[:16]
    assert got == digest


def test_default_n_in_window():
    for N0 in (4, 9, 16, 57):
        for b in (1, 3, N0):
            n = default_n(N0, b)
            assert b * N0 < n <= (b + 1) * N0


def test_witness_measure_is_exact(log_seq):
    for N0, b in ((4, 4), (9, 9), (12, 5)):
        w = build_witness(log_seq, N0, b)
        assert w.feasible
        assert abs(w.measure - 2.0 / (2 * N0 + 1)) <= 1e-12
        assert w.n == default_n(N0, b)


def test_witness_frozen_single(log_seq):
    w = build_witness(log_seq, 4, 4)
    assert w.n == 18
    assert w.integral == pytest.approx(1.678578071064868, rel=1e-9)
    assert w.trim == pytest.approx((-0.2222222222222222,
                                    -0.21621621621621623), rel=1e-12)


def test_witness_trim_is_inside_a_cell(log_seq):
    w = build_witness(log_seq, 6, 6)
    lo, hi = w.trim
    assert hi - lo > 0.0
    cells = default_witness_order(w.n)
    host = [c for c in cells if c[0] <= lo and hi <= c[1] + 1e-15]
    assert len(host) == 1
    # trim keeps the far-from-origin side of its host cell
    c_lo, c_hi = host[0]
    if c_lo >= 0.0:
        assert lo == pytest.approx(c_lo, abs=1e-15)
    else:
        assert hi == pytest.approx(c_hi, abs=1e-15)


def test_witness_respects_n_window(log_seq):
    with pytest.raises(ValueError):
        build_witness(log_seq, 4, 4, n=16)  # n must exceed b*N0
    with pytest.raises(ValueError):
        build_witness(log_seq, 4, 4, n=21)  # n stops at (b+1)*N0
    w = build_witness(log_seq, 4, 4, n=20)
    assert w.n == 20


def test_certificate_contrast(log_seq, log2_seq):
    N0s = [8, 16, 32, 64]
    slow = uniform_integrability_certificate(log_seq, N0s)
    fast = uniform_integrability_certificate(log2_seq, N0s)
    assert slow.passed
    assert np.all(np.diff(slow.measures) < 0.0)
    frozen_slow = (1.31647220, 0.98409010, 0.73056437, 0.55702011)
    frozen_fast = (1.75338405, 1.10621393, 0.65428559, 0.38040558)
    for got, want in zip(slow.integrals, frozen_slow):
        assert got == pytest.approx(want, abs=1e-7)
    for got, want in zip(fast.integrals, frozen_fast):
        assert got == pytest.approx(want, abs=1e-7)
    assert [w.n for w in slow.witnesses] == [68, 264, 1040, 4128]
    # fast-decay integrals decay with the measures; the slow family's
    # stay bounded away from zero, which is the whole point
    assert slow.min_integral > fast.integrals[-1]
    assert fast.integrals[-1] < 0.5 * fast.integrals[0]


def test_certificate_single_entry(log_seq):
    rep = uniform_integrability_certificate(log_seq, [4])
    assert rep.passed
    assert rep.min_integral == rep.max_integral


def test_certificate_validation(log_seq):
    with pytest.raises(ValueError):
        uniform_integrability_certificate(log_seq, [3, 8])
    with pytest.raises(ValueError):
        uniform_integrability_certificate(log_seq, [8, 8])


def test_interval_demo_cases(log_seq):
    Ns = [2**k for k in range(4, 10)]
    demo_in = interval_limit_demo(log_seq, IntervalUnion.parse("-0.1,0.1"), Ns)
    demo_out = interval_limit_demo(log_seq, IntervalUnion.parse("0.1,0.3"), Ns)
    assert demo_in.case == "origin-interior"
    assert demo_out.case == "origin-separated"
    assert demo_in.trace.N.tolist() == Ns
    assert demo_in.verdict.verdict in {"converging", "inconclusive",
                                       "bounded-nonconverging-signature",
                                       "unbounded-signature"}
    with pytest.raises(ValueError):
        interval_limit_demo(log_seq, IntervalUnion.empty(), Ns)


def test_witness_scales_by_powers_of_two():
    # the constant-tail head times 2^600 (and 2^10): every integral and bar
    # is exactly 2^k times the unscaled one, the chirp-z run's included
    head = np.array([3.0, 2.0, 1.5, 1.2, 1.0])
    unit = [build_witness(ConvexSequence(tuple(head), "constant"), N0, N0)
            for N0 in (8, 16, 64)]
    for k in (10, 600):
        f = 2.0 ** k
        seq = ConvexSequence(tuple(head * f), "constant")
        for u in unit:
            w = build_witness(seq, u.N0, u.N0)
            assert (w.integral, w.integral_error) == \
                (u.integral * f, u.integral_error * f), (k, u.N0)


def test_witness_refuses_an_overflowing_head():
    # the head 1e307, 5e306 overflows the signed cells: a ValueError, with
    # no numpy warning, instead of an infinite integral; 1e300 runs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow float64"):
            build_witness(ConvexSequence((1e307, 5e306)), 8, 8)
        w = build_witness(ConvexSequence((1e300, 5e299)), 8, 8)
    assert math.isfinite(w.integral) and 0.0 < w.integral_error < 1e-12 * w.integral
