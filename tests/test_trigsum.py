import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from torusl1 import partial_sums, trigsum
from torusl1.coefficients import ConvexSequence
from torusl1.trigsum import (
    cosine_poly_points,
    cosine_poly_grid,
    cosine_poly_on_cells,
)


def _brute(coeffs, ts):
    # independent slow reference, no split products
    c = np.asarray(coeffs, dtype=float)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    m = np.arange(c.size)
    out = c[0] + 2.0 * (np.cos(2.0 * np.pi * np.outer(ts, m[1:]))
                        @ c[1:]) if c.size > 1 else np.full(ts.shape, c[0])
    return out


coeff_lists = st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=24)


@given(coeff_lists)
def test_points_match_brute_force(coeffs):
    rng = np.random.default_rng(7)
    ts = rng.uniform(-0.5, 0.5, 31)
    got = cosine_poly_points(np.array(coeffs), ts)
    assert np.allclose(got, _brute(coeffs, ts), rtol=0, atol=1e-10)


def test_points_scalar_round_trip():
    coeffs = np.array([1.0, 0.5, -0.25])
    v = cosine_poly_points(coeffs, 0.2)
    assert isinstance(v, float)
    assert v == pytest.approx(_brute(coeffs, 0.2)[0], abs=1e-12)


def test_points_scalar_and_array_agree_to_rounding():
    # a point's last bits depend on its place in the matrix product's
    # column groups, so a scalar call matches the array entry to rounding
    rng = np.random.default_rng(5000)
    c = rng.standard_normal(5000)
    ts = rng.uniform(-0.5, 0.5, 20)
    w_sum = 2.0 * np.abs(c).sum() - abs(c[0])
    eps = np.finfo(float).eps
    for t, v in zip(ts, cosine_poly_points(c, ts)):
        assert abs(cosine_poly_points(c, float(t)) - v) <= 4 * eps * w_sum


def test_points_chunking_consistency(monkeypatch):
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=5000)
    ts = rng.uniform(-0.5, 0.5, 100)
    b = cosine_poly_points(coeffs, ts)
    # blocks that split both the terms and the points unevenly: 37 terms
    # and 13 points
    monkeypatch.setattr(trigsum, "_POINTS_BLOCK", 37)
    monkeypatch.setattr(trigsum, "_BLOCK_BYTES", 64 * 37 * 13)
    a = cosine_poly_points(coeffs, ts)
    assert np.allclose(a, b, rtol=0, atol=1e-9)


@given(st.integers(1, 200), st.integers(1, 700))
def test_grid_matches_points(G, M):
    # M up to 3.5 G: every row count and coefficients folded over periods;
    # the grid is the half k = 0..G//2
    rng = np.random.default_rng(G * 41 + M)
    coeffs = rng.normal(size=M)
    grid = cosine_poly_grid(coeffs, G)
    ts = -0.5 + np.arange(G // 2 + 1) / G
    direct = cosine_poly_points(coeffs, ts)
    assert np.allclose(grid, direct, rtol=0, atol=1e-10 * max(1, M))


@pytest.mark.parametrize("G", [2 ** k for k in range(13)]
                         + [3, 7, 9, 12, 17, 20, 24, 96, 4095])
def test_grid_half_spectrum_matches_points(G):
    # the grid is the half k = 0..G//2, read off P lattice rows of length
    # G/P, with P the largest power of two that divides G, is at most 32
    # and keeps M <= G/P, and at least 2 for even G; rows above P/2 are
    # read reversed from their mirrors.  The M below sit on both sides of
    # each step of that rule (P = 32, 16, 8, 4, 2); M = G//2 + 1 keeps
    # P = 2, and M = G, G + 1 and 3G + 2 are folded onto degree G//2
    # first.  An odd G is one row paired with a zero row; 12, 20, 24 and
    # 96 have small odd factors.  Every index of the half is compared with
    # the direct sum
    rng = np.random.default_rng(G)
    idx = np.arange(G // 2 + 1)
    for M in (1, 3, G // 32, G // 32 + 1, G // 16 + 1, G // 8 + 1,
              G // 4 + 1, G // 2 + 1, G, G + 1, 3 * G + 2):
        if M == 0:
            continue
        coeffs = rng.normal(size=M)
        grid = cosine_poly_grid(coeffs, G)
        assert grid.shape == (G // 2 + 1,) and grid.dtype == float
        bar = 1e-13 * (1.0 + 2.0 * np.abs(coeffs).sum())
        direct = cosine_poly_points(coeffs, -0.5 + idx / G)
        assert np.max(np.abs(grid - direct)) <= bar, M


@pytest.mark.parametrize("G", [1, 2, 3, 7, 64, 96, 1024, 4095, 4096])
def test_half_grid_is_the_first_half(G):
    # the grid holds k = 0..G//2 of the whole period; unfolded with
    # g[G-i] = g[i] it matches the direct sum at every k < G.  For G = 64
    # and 4096 the M below give P = 32, 16, 8, 4 and 2 (G//32, G//32 + 1,
    # G//16 + 1, G//8 + 1, G//4 + 1); odd G has P = 1; M = G + 1 and
    # 3G + 2 are folded onto degree G//2 first
    rng = np.random.default_rng(G)
    for M in (1, 3, G // 32, G // 32 + 1, G // 16 + 1, G // 8 + 1,
              G // 4 + 1, G // 2 + 1, G + 1, 3 * G + 2):
        if M == 0:
            continue
        coeffs = rng.normal(size=M)
        half = cosine_poly_grid(coeffs, G)
        assert half.shape == (G // 2 + 1,) and half.dtype == float
        whole = np.concatenate((half, half[1:(G + 1) // 2][::-1]))
        assert whole.shape == (G,)
        bar = 1e-13 * (1.0 + 2.0 * np.abs(coeffs).sum())
        direct = cosine_poly_points(coeffs, -0.5 + np.arange(G) / G)
        assert np.max(np.abs(whole - direct)) <= bar, (G, M)


def _oracle_fold(c, G):
    # every term m = pG + r added on its own, in increasing m, to bin r or,
    # for r > G//2, to bin G - r, times (-1)^(Gp), one more (-1)^G when
    # reflected and 2 when aliased onto bin 0
    m = np.arange(c.size)
    p, r = np.divmod(m, G)
    up = r > G // 2
    factor = np.where(G * p % 2, -1.0, 1.0)
    factor[up & (G % 2 == 1)] *= -1.0
    factor[(r == 0) & (p > 0)] *= 2.0
    out = np.zeros(min(c.size, G // 2 + 1))
    np.add.at(out, np.where(up, G - r, r), factor * c)
    return out


@pytest.mark.parametrize("G", [1, 2, 3, 16, 17, 4096, 4097])
def test_fold_pieces_keep_the_bits(G):
    # _fold_into folds the coefficients in pieces of any length, cut
    # inside and across periods, onto the bins of the in-order oracle bit
    # for bit: without whole periods, with one and with many, past
    # _FOLD_TERMS, where a run of whole periods takes several tables, and
    # up to G//2 + 1 terms it gives the coefficients back unfolded
    rng = np.random.default_rng(G + 5)
    for M in (1, G // 2 + 1, G // 2 + 2, G, G + 1, 2 * G + 3,
              7 * G + G // 2, 300 * G + 5, 3 * trigsum._FOLD_TERMS + 1):
        c = rng.normal(size=M) * 10.0 ** rng.integers(-6, 6, M)
        want = _oracle_fold(c, G)
        if M <= G // 2 + 1:
            assert np.array_equal(want, c)
        for cuts in (0, 1, 5):
            got = np.zeros(want.size)
            m = 0
            for piece in np.split(c, np.sort(rng.integers(0, M + 1, cuts))):
                trigsum._fold_into(got, piece, m, G)
                m += piece.size
            assert np.array_equal(got, want), (G, M, cuts)


def _stepwise_fold(out, part, m, G):
    # the fold one period, or the rest of one, per Python step: the
    # oracle for the runs of whole periods that _fold_into takes at once
    h = G // 2 + 1
    ops = (np.add, np.subtract)
    while part.size:
        p, r = divmod(m, G)
        n = min(part.size, G - r)
        s = G * p % 2
        i = int(r == 0 and p > 0)
        if i:
            out[0] = ops[s](out[0], 2.0 * part[0])
        k = max(min(n, h - r), 0)
        dst = out[r + i:r + k]
        ops[s](dst, part[i:k], dst)
        dst = out[G - r - n + 1:G - r - k + 1]
        ops[s ^ G % 2](dst, part[k:n][::-1], dst)
        part, m = part[n:], m + n


@pytest.mark.parametrize("G", [16, 17, 4096, 4097])
def test_reference_fold_matches_stepwise_fold(G, monkeypatch):
    # reference_function_grid folds j_max + 1 = 2^22 + 1 second differences
    # a chunk of 2^20 at a time onto the bins that the stepwise fold of
    # the whole vector gives, bit for bit: each bin takes the direct term
    # of period p, then its mirrored term, then period p + 1
    seen = []

    def spy(coeffs, grid_size):
        seen.append(coeffs.copy())
        return np.ones(grid_size // 2 + 1)

    monkeypatch.setattr(partial_sums, "cosine_poly_grid", spy)
    seq = ConvexSequence.log_reciprocal()
    j_max = 2 ** 22
    partial_sums.reference_function_grid(seq, G, j_max)
    want = np.zeros(G // 2 + 1)
    _stepwise_fold(want, seq.second_differences(j_max + 1), 1, G)
    assert seen[0].tobytes() == want.tobytes()


@pytest.mark.parametrize("G, M, P", [
    (2 ** 20, 2 ** 19 + 1, 2), (2 ** 21, 2 ** 20 + 1, 4),
    (2 ** 22, 2 ** 21 + 1, 8), (3 * 2 ** 20, 2 ** 19, 8),
    (2 ** 21, 65537, 16), (2 ** 22, 65537, 32), (2 ** 20 + 1, 3, 1)])
def test_grid_rows_fit_the_budget(monkeypatch, G, M, P):
    # P rises until one complex FFT row, two offsets of 16 L bytes at
    # L = G/P, fits _BLOCK_BYTES: the reference's folded G//2 + 1
    # coefficients take P = 2 up to G = 2^20, 4 at 2^21 and 8 at 2^22,
    # and short vectors keep their P; at 3 * 2^20 it takes L = 3 * 2^17.
    # The rows of offsets 0..P/2 are asked for, from the block generator
    calls = []

    def spy(coeffs, cell_count, offsets):
        calls.append((cell_count, len(offsets)))
        return iter(())

    monkeypatch.setattr(trigsum, "_cell_blocks", spy)
    cosine_poly_grid(np.ones(M), G)
    assert calls == [(G // P, P // 2 + 1)]


def _grid_from_rows(coeffs, G, L):
    # the half grid assembled from whole cosine_poly_on_cells rows: the
    # (P/2 + 1) x L row array and its transpose that cosine_poly_grid built
    # before it took the rows a block at a time
    P = G // L
    K = G // 2 // P + 1
    if coeffs.size > G // 2 + 1:
        folded = np.zeros(G // 2 + 1)
        trigsum._fold_into(folded, coeffs, 0, G)
        coeffs = folded
    rows = cosine_poly_on_cells(coeffs, L, 0.5 + np.arange(P // 2 + 1) / G)
    out = np.empty((K, P))
    out[:, :P // 2 + 1] = rows[:, :K].T
    out[:, P // 2 + 1:] = rows[P // 2 - 1:0:-1, ::-1][:, :K].T
    return out.ravel()[:G // 2 + 1]


def test_grid_matches_the_row_assembly(monkeypatch):
    # the blocks go straight into the half grid, bit for bit as the whole
    # rows did, for every row count P = 1..32 (odd G take 1; the budget
    # raises 3 * 2^20 to 8), short and folded coefficients
    seen = set()
    blocks = trigsum._cell_blocks

    def spy(coeffs, cell_count, offsets):
        lattice.append(cell_count)
        return blocks(coeffs, cell_count, offsets)

    monkeypatch.setattr(trigsum, "_cell_blocks", spy)
    rng = np.random.default_rng(26)
    for G in (16, 4095, 4096, 4097, 2 ** 16, 3 * 2 ** 20):
        sizes = {1, 3, G // 2 + 1, G + 5}
        sizes |= {G // (2 * P) for P in (2, 4, 8, 16, 32) if G // (2 * P)}
        if G > 2 ** 16:
            sizes = {3, G // 64, G // 2 + 1}
        for M in sorted(sizes):
            coeffs = rng.normal(size=M)
            lattice = []
            grid = cosine_poly_grid(coeffs, G)
            (L,) = lattice
            seen.add(G // L)
            assert np.array_equal(grid, _grid_from_rows(coeffs, G, L)), (G, M)
    assert seen == {1, 2, 4, 8, 16, 32}


def test_grid_budget_rows_match_points(monkeypatch):
    # a budget of 32 L bytes at L = 64 raises P for G = 1024 and 1000 to
    # 16 and 8 rows, whose lattice folds the G//2 + 1 coefficients over
    # periods of L; every index of the half matches the direct sum
    monkeypatch.setattr(trigsum, "_BLOCK_BYTES", 32 * 64)
    calls = []
    blocks = trigsum._cell_blocks

    def spy(coeffs, cell_count, offsets):
        calls.append(cell_count)
        return blocks(coeffs, cell_count, offsets)

    monkeypatch.setattr(trigsum, "_cell_blocks", spy)
    rng = np.random.default_rng(9)
    for G, L in ((1024, 64), (1000, 125)):
        coeffs = rng.normal(size=G + 7)
        grid = cosine_poly_grid(coeffs, G)
        assert calls[-1] == L
        bar = 1e-13 * (1.0 + 2.0 * np.abs(coeffs).sum())
        direct = cosine_poly_points(coeffs, -0.5 + np.arange(G // 2 + 1) / G)
        assert np.max(np.abs(grid - direct)) <= bar


def test_grid_matches_points_at_benchmark_scale():
    # shaped like the residual benchmark's S_N: G = 2^21 and M = 65537 give
    # P = 16 rows of length 2^17, of which rows 0..8 are evaluated.  As at
    # L = 65537 below, the coefficients decay like 1/m^2 and the direct sum
    # is taken at a sample of indices of the half
    G, M = 2 ** 21, 65537
    rng = np.random.default_rng(M)
    coeffs = rng.normal(size=M) / (1.0 + np.arange(M)) ** 2
    idx = np.unique(np.concatenate(([0, 1, 7, 8, 15, 16, G // 2 - 1, G // 2],
                                    rng.integers(0, G // 2 + 1, 26))))
    grid = cosine_poly_grid(coeffs, G)
    assert grid.shape == (G // 2 + 1,) and grid.dtype == float
    bar = 1e-13 * (1.0 + 2.0 * np.abs(coeffs).sum())
    direct = cosine_poly_points(coeffs, -0.5 + idx / G)
    assert np.max(np.abs(grid[idx] - direct)) <= bar


def test_on_cells_matches_points_short_and_folded():
    # the lattice against the direct sum.  Coefficient vectors: short,
    # w.size = L//2 + 1 (its top term sits on the Nyquist bin of the half
    # spectrum when L is even), w.size = L and folded up to 25 times over.
    # Offset counts 1, 3, 9 and 17 leave an unpaired last row, 2 is one
    # pair, and 9 and 17 span more than one offset block.  At L = 65537
    # the direct sum is taken at a sample of columns, and the coefficients
    # decay like 1/m^2: the direct sum sees t = k/L + x rounded to a
    # double, which moves p by up to eps |t| |p'|, and |p'| must stay small
    for L in (1, 2, 5, 7, 8, 9, 16, 33, 65537):
        rng = np.random.default_rng(L)
        if L < 100:
            sizes = (4, 40, 128, L // 2 + 1, L, 3 * L + 2)
            cols = np.arange(L)
        else:
            sizes = (40, L // 2 + 1)
            cols = np.unique(np.concatenate(([0, 1, L // 2, L - 1],
                                             rng.integers(0, L, 28))))
        for M in sizes:
            coeffs = rng.normal(size=M)
            if L > 100:
                coeffs /= (1.0 + np.arange(M)) ** 2
            bar = 1e-13 * (1.0 + 2.0 * np.abs(coeffs).sum())
            for count in (1, 2, 3, 9, 17):
                offsets = np.concatenate(([0.01, 0.0, 0.5 / L, 0.09],
                                          rng.uniform(-1.0, 1.0, 13)))[:count]
                vals = cosine_poly_on_cells(coeffs, L, offsets)
                assert vals.shape == (count, L) and vals.dtype == float
                direct = cosine_poly_points(coeffs,
                                            cols / L + offsets[:, None])
                err = np.max(np.abs(vals[:, cols] - direct))
                assert err <= bar, (L, M, count)


@pytest.mark.parametrize("L", [1, 2, 7, 16, 33, 1000])
def test_on_cells_layout_independence(monkeypatch, L):
    # a budget of 16 L bytes per offset gives blocks of 2, 4, 6 and 8
    # offsets, and phase slices of a quarter of it, L/4 terms (whole jump
    # rows: 6 terms at L = 33, 224 at L = 1000).  Coefficient vectors shorter
    # than L/2, of 1 and about 2 and 3 periods; offset counts 1 and 3 (one
    # partial block), 16 and 17 (several, the last one unpaired).  Every
    # layout gives the same bits, and they match the direct sum
    rng = np.random.default_rng(L + 11)
    cols = np.arange(L) if L < 100 else np.unique(rng.integers(0, L, 48))
    for M in (L // 4 + 1, L, 2 * L + 3, 3 * L):
        coeffs = rng.normal(size=M)
        bar = 1e-13 * (1.0 + 2.0 * np.abs(coeffs).sum())
        for count in (1, 3, 16, 17):
            offsets = rng.uniform(-1.0, 1.0, count)
            layouts = []
            for k in (2, 4, 6, 8):
                monkeypatch.setattr(trigsum, "_BLOCK_BYTES", 16 * L * k)
                assert trigsum._block_size(L) == k
                layouts.append(cosine_poly_on_cells(coeffs, L, offsets))
            for vals in layouts[1:]:
                assert np.array_equal(vals, layouts[0]), (L, M, count)
            direct = cosine_poly_points(coeffs, cols / L + offsets[:, None])
            err = np.max(np.abs(layouts[0][:, cols] - direct))
            assert err <= bar, (L, M, count)


def test_on_cells_working_set_within_budget():
    # D_N at N = 2^17 on 16 Gauss offsets, as the |.| engine asks for it:
    # at L = 2^18 + 1 a block holds 2 offsets, and what is traced beyond the
    # 128 L-byte result fits twice the budget (blocks of 8 offsets peaked at
    # 264 L bytes beyond it, 69 MB).  Cell 0 holds D_N at the offsets
    L = 2 ** 18 + 1
    offsets = (0.5 + 0.5 * np.polynomial.legendre.leggauss(16)[0]) / L
    tracemalloc.start()
    try:
        vals = cosine_poly_on_cells(np.ones(2 ** 17 + 1), L, offsets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vals.shape == (16, L)
    assert peak - vals.nbytes <= 2 * trigsum._BLOCK_BYTES
    u = np.pi * offsets
    assert np.allclose(vals[:, 0], np.sin(L * u) / np.sin(u), rtol=1e-12)


def test_on_cells_torus_column_order():
    # column indexing follows FFT convention: torus cell q sits at q % L
    coeffs = np.array([0.0, 1.0])
    L = 9
    vals = cosine_poly_on_cells(coeffs, L, np.array([0.003]))
    for q in (-4, -1, 0, 3):
        t = q / L + 0.003
        assert vals[0, q % L] == pytest.approx(
            float(cosine_poly_points(coeffs, t)), abs=1e-12)


def test_input_validation():
    with pytest.raises(ValueError):
        cosine_poly_grid(np.array([1.0]), 0)
    with pytest.raises(ValueError):
        cosine_poly_on_cells(np.array([1.0]), 0, np.array([0.0]))
    with pytest.raises(ValueError):
        cosine_poly_points(np.empty(0), 0.1)
    for bad in (np.empty(0), np.ones((2, 2))):
        with pytest.raises(ValueError, match="nonempty 1-d"):
            cosine_poly_grid(bad, 16)
        with pytest.raises(ValueError, match="nonempty 1-d"):
            cosine_poly_on_cells(bad, 4, np.array([0.0]))


def test_smooth_is_the_least_5_smooth_length():
    def smooth(k):
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        return k == 1

    want = [next(k for k in range(n, 2 * n + 1) if smooth(k))
            for n in range(1, 3000)]
    assert [trigsum._smooth(n) for n in range(1, 3000)] == want


@pytest.mark.parametrize("L", [1, 2, 7, 8, 729, 1000, 1009, 2048, 131329])
def test_centre_run_matches_the_lattice_row(L):
    # the chirp-z run against the lattice row at offset 1/(2L), the cell
    # centres.  L: prime (7, 1009), 5-smooth (729, 1000), even (2, 8,
    # 1000, 2048), and 11 * 11939, a Bluestein length for numpy's FFT
    # (the witness at N0 = 256).  Coefficient vectors of one term, of
    # L//2 + 1 and longer than L/2; runs of the whole torus, of one cell,
    # starting below 0 and below -L, and across the seam at L.  Every
    # value lies within 1e-13 sum|w|, and the root mean square of the
    # differences within the run's bound plus the row's own normwise
    # rounding
    eps = np.finfo(float).eps
    rng = np.random.default_rng(L)
    for size in (1, L // 2 + 1, L + 1, 3 * L + 2):
        coeffs = rng.normal(size=size) / (1.0 + np.arange(size))
        row = cosine_poly_on_cells(coeffs, L, 0.5 / L)[0]
        row_rms = eps * np.log2(L + 1) * np.linalg.norm(row) / np.sqrt(L)
        bar = 1e-13 * (1.0 + 2.0 * np.abs(coeffs).sum())
        for start, count in ((0, L), (3, 1), (-5, min(L, 9)),
                             (L - 3, min(L, 7)), (-L - 2, min(L, 40))):
            vals, rms = trigsum._centre_run(coeffs, L, start, count)
            assert vals.shape == (count,) and vals.dtype == float
            diff = vals - row[np.arange(start, start + count) % L]
            assert np.max(np.abs(diff)) <= bar, (size, start, count)
            assert np.sqrt(np.mean(diff ** 2)) <= rms + row_rms, (size, start, count)

