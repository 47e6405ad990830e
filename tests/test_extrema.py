import math

import numpy as np
import pytest

from torusl1.extrema import find_extrema, crossing_check, coefficient_sum
from torusl1.kernels import dirichlet_eval


def test_row_count_and_endpoints():
    for N in (1, 2, 5, 16, 101):
        table = find_extrema(N)
        assert len(table.rows) == N + 1
        first, last = table.rows[0], table.rows[-1]
        assert (first.i, first.t, first.height) == (1, 0.0, 2 * N + 1)
        assert first.c == pytest.approx((2 * N + 1) / N, rel=1e-15)
        assert (last.i, last.t) == (N + 1, 0.5)
        assert last.height == (-1.0) ** N
        assert last.c == pytest.approx(1.0 / N, rel=1e-15)


def test_interior_signs_alternate_and_heights_decay():
    table = find_extrema(12)
    heights = table.heights()
    # interior extremum k carries sign (-1)^k
    for k, h in enumerate(heights[1:-1], start=1):
        assert math.copysign(1.0, h) == (-1.0) ** k
    mags = np.abs(heights)
    assert np.all(np.diff(mags) < 0.0)


def test_extrema_interleave_envelope_points():
    for N in (2, 7, 30):
        table = find_extrema(N)
        locs = table.locations()
        cross = np.array(table.crossings)
        assert cross.size == N + 1
        for i in range(N):
            assert locs[i] < cross[i] < locs[i + 1]
        assert cross[-1] > locs[-1] - 0.5 / (2 * N + 1)


def test_interior_locations_match_dense_scan():
    N = 5
    table = find_extrema(N, tol=1e-12)
    L = 2 * N + 1
    for k, row in zip(range(1, N), table.rows[1:-1]):
        ts = np.linspace(k / L, (k + 1) / L, 200001)
        vals = (-1.0) ** k * dirichlet_eval(N, ts)
        t_scan = ts[int(np.argmax(vals))]
        assert abs(row.t - t_scan) < 1e-5
        # scanned height can only be lower or equal
        assert (-1.0) ** k * row.height >= np.max(vals) - 1e-9


def test_stationarity_at_interior_extrema():
    N = 9
    table = find_extrema(N, tol=1e-12)
    for row in table.rows[1:-1]:
        h = 1e-6
        centered = (dirichlet_eval(N, row.t + h)
                    - dirichlet_eval(N, row.t - h)) / (2 * h)
        assert abs(centered) < 1e-3 * (2 * N + 1)


def test_envelope_identity_and_sandwich():
    for N in (1, 2, 3, 8, 21, 64):
        rep = crossing_check(find_extrema(N))
        assert rep.max_product_error <= 1e-12
        assert rep.sandwich_ok
        assert rep.violations == ()


def test_normalized_sum_growth_rows():
    rows = coefficient_sum([16, 64, 256, 1024])
    frozen = [
        (16, 4.082238, 1.472356),
        (64, 4.842263, 1.164318),
        (256, 5.688910, 1.025920),
        (1024, 6.561177, 0.946578),
    ]
    for (N, s, ratio), (N0, s0, r0) in zip(rows, frozen):
        assert N == N0
        assert s == pytest.approx(s0, abs=1e-5)
        assert ratio == pytest.approx(r0, abs=1e-5)
    # the sum keeps growing while the ratio to ln N settles
    sums = [s for _, s, _ in rows]
    assert np.all(np.diff(sums) > 0.0)


def test_sum_at_order_one_is_inf_ratio():
    rows = coefficient_sum([1])
    assert rows[0][0] == 1
    assert rows[0][1] == pytest.approx(3.0 + 1.0, rel=1e-12)  # c = 3/1 and 1/1
    assert math.isinf(rows[0][2])


def test_validation():
    with pytest.raises(ValueError):
        find_extrema(0)
    with pytest.raises(ValueError):
        find_extrema(4, tol=0.0)
    with pytest.raises(ValueError):
        find_extrema(4, tol=1e-3)
