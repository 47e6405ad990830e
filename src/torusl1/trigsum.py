"""Fast evaluation of even cosine polynomials.

Everything here evaluates p(t) = c_0 + sum_{m>=1} 2 c_m cos(2 pi m t) for a
real coefficient vector c.  There are four evaluators, the third a read-out
of the lattice transforms of the second:

  * cosine_poly_points: direct sum at scattered points (the slow oracle the
    fast path is checked against); angles go through an exact split
    product so per-term error stays near machine level.
  * cosine_poly_on_cells: the lattice t = k/L + x for all residues k at a
    few offsets x.  Each offset's row is real, so two rows share one
    complex inverse FFT of length L (one as the real part, one as the
    imaginary part of the output); the phases come from a split table of
    about 2 sqrt(L) exponentials per offset and period of L terms, built a
    slice at a time.  Offsets are taken in blocks of an even count sized
    from L, so that one byte budget bounds the working set: 8 offsets up to
    L = 65537, 6 at L = 131073 and 2 from L = 262145 on.  The weights are
    formed a phase slice at a time, with no copy of the coefficients, and
    the private generator _cell_blocks hands out each block's transforms
    for its caller to copy.  This is what lets cell-aligned quadrature
    touch every kernel cell at once.
  * cosine_poly_grid: the half k = 0..G//2 of the uniform grid
    t_k = -1/2 + k/G, read off P <= 32 interleaved lattice rows of length
    G/P, with P raised until one complex FFT row fits the same byte
    budget.  p is even, so the whole grid is g[G-k] = g[k]: only rows
    0..P/2 are evaluated and only the half is returned.  Coefficients
    running past degree G//2 are first folded onto it, from pieces of the
    vector if the caller has no whole one (_fold_to_grid).  It transforms
    nothing itself: it copies each block of _cell_blocks into the half
    grid as it comes, so beside the coefficients and the half grid only
    one block is alive.  An odd G has P = 1, whose row is paired with a
    zero row: twice the FFT work of one real inverse FFT of length G.
  * _centre_run: the values at the cell centres t = (k + 1/2)/L on one run
    of M consecutive cells k, by a chirp-z (Bluestein) transform: with
    zeta = e^{pi i/L}, mk = (m^2 + k^2 - (k - m)^2)/2 makes the run one
    convolution of the n + 1 chirped coefficients with a chirp of n + M
    terms, three FFTs of a 5-smooth length S >= n + M.  Every chirp angle
    takes j^2 mod 2L in int64, exactly.  It also returns a normwise bound
    on the rounding of its values.  The signed integrals read only the
    cells they need this way, not a whole row of L.
"""

import math

import numpy as np

from .kernels import product_frac

__all__ = [
    "cosine_poly_points",
    "cosine_poly_grid",
    "cosine_poly_on_cells",
]


_POINTS_BLOCK = 2048  # terms and points per block in cosine_poly_points
# working set of one offset block in cosine_poly_on_cells; numpy's FFT plan
# and work buffers come on top (about 14 MB at L = 2^19)
_BLOCK_BYTES = 2 ** 24
_GRID_ROWS = 32  # most interleaved lattice rows in cosine_poly_grid
_FOLD_TERMS = 2 ** 20  # most terms summed at once in _fold_to_grid
_TILE = 1024  # lattice columns per tile of cosine_poly_grid's copies
_EPS = float(np.finfo(float).eps)


def _coeffs(coeffs):
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coeffs must be a nonempty 1-d array")
    return c


def _weights(coeffs, lo=0, hi=None):
    """The weights w_m = (c_0, 2 c_m) for m = lo..hi-1, a fresh array."""
    c = _coeffs(coeffs)
    w = c[lo:hi] * 2.0
    if lo == 0:
        w[0] = c[0]
    return w


def cosine_poly_points(coeffs, ts):
    """Direct evaluation at arbitrary points; scalar in, scalar out.

    Chunked over both terms and points so temporaries stay bounded.
    """
    w = _weights(coeffs)
    ts_arr = np.atleast_1d(np.asarray(ts, dtype=float)).ravel()
    out = np.empty(ts_arr.shape)
    for p0 in range(0, ts_arr.size, _POINTS_BLOCK):
        blk = ts_arr[p0:p0 + _POINTS_BLOCK]
        acc = np.full(blk.shape, w[0])
        for lo in range(1, w.size, _POINTS_BLOCK):
            m = np.arange(lo, min(lo + _POINTS_BLOCK, w.size), dtype=float)
            fr = product_frac(m[:, None], blk[None, :])
            acc += w[lo:lo + m.size] @ np.cos(2.0 * np.pi * fr)
        out[p0:p0 + blk.size] = acc
    if np.ndim(ts) == 0:
        return float(out[0])
    return out.reshape(np.shape(ts))


def _fold_to_grid(pieces, size, G):
    """Coefficients of degree <= G//2 with the same values on the G-grid.

    pieces yields the coefficient vector c in order, c_0 first, in pieces
    of any length and size terms in all.  At t_k = -1/2 + k/G,
    cos(2 pi (m + G) t_k) and cos(2 pi (G - m) t_k) are both
    (-1)^G cos(2 pi m t_k).  So the whole periods of G terms are summed in
    order, even and odd periods apart, the odd sum added with sign (-1)^G,
    then the last partial period with sign (-1)^(G whole); bin G - r is
    added to bin r last.  An aliased term keeps its weight 2 on bin 0,
    where c_0 has weight 1: once a period has been summed, bin 0 is
    2 acc - c_0.  Every bin takes its terms in that order however c is
    cut, so the pieces do not change the bits.  Two periods are held
    while whole periods are summed, up to _FOLD_TERMS of them added in
    one call; without any, only bins 0..G//2 are,
    and a term past them goes onto bin G - m as it arrives.  So size <=
    G//2 + 1 gives c back unfolded.
    """
    h = G // 2 + 1
    sign = -1.0 if G % 2 else 1.0
    whole = size // G
    acc = np.zeros(G if whole else min(size, h))  # even periods, then all
    odd = np.zeros(G) if whole > 1 else None
    m = 0  # index of the next term
    for piece in pieces:
        if m == 0 and piece.size:
            c0 = float(piece[0])
        while piece.size:
            p, r = divmod(m, G)
            k = min(piece.size // G, whole - p, _FOLD_TERMS // G) if r == 0 else 0
            if k > 1:
                # k whole periods at once: each parity's sum still takes
                # its periods in order, after what it holds
                rows = piece[:k * G].reshape(k, G)
                for i, total in ((p % 2, acc), (1 - p % 2, odd)):
                    np.add.reduce(np.concatenate((total[None], rows[i::2])),
                                  axis=0, out=total)
                piece, m = piece[k * G:], m + k * G
                continue
            n = min(piece.size, G - r)
            part, piece = piece[:n], piece[n:]
            m += n
            if p < whole:
                (odd if p % 2 else acc)[r:r + n] += part
                continue
            if odd is not None:
                acc += sign * odd
                odd = None
            # terms kept in place; without whole periods, those past bin
            # G//2 go onto bin G - i at once
            k = n if whole else max(min(n, h - r), 0)
            acc[r:r + k] += sign ** whole * part[:k]
            acc[G - r - n + 1:G - r - k + 1] += sign * part[k:][::-1]
    if odd is not None:
        acc += sign * odd
    if not whole:
        return acc  # bin 0 holds c_0 alone
    out = acc[:h].copy()
    out[1:G - h + 1] += sign * acc[:h - 1:-1]
    out[0] = 2.0 * out[0] - c0
    return out


def cosine_poly_grid(coeffs, grid_size):
    """Values at t_k = -1/2 + k/grid_size for k = 0..grid_size//2.

    That is the half t_k <= 0 of the uniform grid, G//2 + 1 values; the
    whole grid is their mirror (below).  Coefficients past degree G//2 are
    first folded onto it (_fold_to_grid), which leaves the grid values
    alone; shorter ones go to the lattice as they are.  For P dividing G,
    t_{kP+j} = k/L + 1/2 + j/G (mod 1) with L = G/P, so the grid is P
    interleaved lattices: the lattice row at offset 1/2 + j/G
    (cosine_poly_on_cells) holds grid values j, j + P, ...  P is the
    largest power of two that divides G, is at most _GRID_ROWS and keeps
    len(coeffs) <= L, and at least 2 for even G, whose two rows then share
    one complex FFT of length G/2.  It is raised further, as far as G's factors of two
    and _GRID_ROWS allow, until one complex FFT row, two offsets of
    16 L bytes (_block_size), fits _BLOCK_BYTES: G = 2^20 keeps P = 2 for
    G//2 + 1 coefficients, 2^21 takes 4 and 2^22 takes 8, and the
    lattice then folds the coefficients over periods of L.  p is even and
    t_{G-i} = -t_i, so g[G-i] = g[i]: grid
    value kP + j for P/2 < j < P is value L-1-k of row P - j, and only
    rows 0..P/2 are evaluated.  Each grid point up to G//2 is read from
    exactly one evaluated row entry.

    The rows come a block at a time (_cell_blocks) and are copied straight
    into the (K, P) half grid, so no (P/2 + 1) x L array of rows is built:
    rows j and j + 1 of one complex FFT are its real and imaginary parts,
    one complex column of the grid, and the mirrored rows go to their
    columns reversed.  The copies run a tile of _TILE lattice columns at a
    time, so each stretch of the grid is written once per block while it
    is in cache.
    """
    G = int(grid_size)
    if G < 1:
        raise ValueError("grid_size must be >= 1")
    c = np.asarray(coeffs, dtype=float)
    if c.ndim == 1 and c.size > G // 2 + 1:
        c = _fold_to_grid((c,), c.size, G)
    P = math.gcd(G, 2)
    # one complex FFT row, two offsets of 16 L bytes each (_block_size),
    # must fit the budget
    while (P < _GRID_ROWS and G % (2 * P) == 0
           and (c.size <= G // (2 * P) or 32 * (G // P) > _BLOCK_BYTES)):
        P *= 2
    L = G // P
    K = G // 2 // P + 1  # lattice columns that reach index G//2
    out = np.empty((K, P))
    pairs = out.view(complex) if P > 1 else None
    for i, n, rows in _cell_blocks(c, L, 0.5 + np.arange(P // 2 + 1) / G):
        m = n // 2
        copies = []
        if m:
            copies.append((pairs[:, i // 2:i // 2 + m], rows[:m, :K].T))
        if n % 2:
            copies.append((out[:, i + n - 1], rows[m, :K].real))
        for j, part in ((i, rows.real), (i + 1, rows.imag[:m])):
            # part[a] is row j + 2a; while 0 < j + 2a < P/2 it is also
            # column P - j - 2a, reversed
            lo, hi = int(j == 0), min(len(part), (P // 2 - j + 1) // 2)
            if lo < hi:
                copies.append((out[:, P - j - 2 * lo:P - j - 2 * hi:-2],
                               part[lo:hi, ::-1][:, :K].T))
        for k in range(0, K, _TILE):
            for dst, src in copies:
                dst[k:k + _TILE] = src[k:k + _TILE]
        del rows, part, copies, dst, src  # before the next block is built
    return out.ravel()[:G // 2 + 1]


def _block_size(L):
    """Offsets per block of _cell_blocks at cell count L.

    Each offset holds L/2 complex values in each of three stages: its half
    spectrum, its share of the packed spectra, its share of their inverse
    FFT.  No more than two stages are alive at once (the half spectra with
    the packed ones, then the packed ones with the transforms), and only
    the transforms are handed out, so an offset costs 16 L bytes beside
    the caller's coefficients, of which no weighted copy is made.  A block
    takes the largest even count that fits _BLOCK_BYTES, at most 8 and at
    least 2, one complex FFT row: so 8 up to L = 65537, 6 at L = 131073
    and 2 from L = 262145 on.  Even counts
    keep every FFT's row pairs, so the values do not depend on the block.
    numpy's FFT plan and work buffers are outside the budget: they add
    about 14 MB of RSS beside a block at L = 2^19, the log2 residual
    reference's rows at G = 2^22, and tracemalloc does not see them.
    """
    return max(2, min(8, _BLOCK_BYTES // (16 * L)) // 2 * 2)


def _phases(lo, hi, x, terms):
    """e^{2 pi i m x} for m = lo..hi-1 at each offset x, a slice at a time.

    Yields (s, z) in increasing s, z of shape (x.size, n) holding
    m = lo + s .. lo + s + n - 1, about `terms` terms per slice.  With
    m = lo + qB + j and B about sqrt(hi - lo), the phase is the product of
    e^{2 pi i (lo + qB) x} and e^{2 pi i j x}, two tables of about
    sqrt(hi - lo) entries per offset whose angles product_frac reduces
    exactly; the product costs one complex multiply per term instead of an
    exp.  A slice is whole rows q of the jump table, so B, and every
    product, is that of the whole range lo..hi-1.
    """
    size = hi - lo
    B = math.isqrt(size - 1) + 1
    Q = -(-size // B)
    x = x[:, None]
    step = np.exp((2.0j * np.pi) * product_frac(np.arange(B, dtype=float), x))
    jump = np.exp((2.0j * np.pi) * product_frac(lo + B * np.arange(Q, dtype=float), x))
    rows = max(1, terms // B)
    for q in range(0, Q, rows):
        z = (jump[:, q:q + rows, None] * step[:, None, :]).reshape(x.size, -1)
        yield q * B, z[:, :size - q * B]
        del z  # the caller drops its view too before the next slice is built


def _cell_blocks(coeffs, L, offsets):
    """The lattice transforms of cosine_poly_on_cells, a block of offsets at
    a time.

    Yields (i, n, rows) for offsets i..i+n-1, rows a complex array of shape
    (ceil(n/2), L): offset i + 2a is rows[a].real and offset i + 2a + 1 is
    rows[a].imag.  rows is the block's only array once it is handed out,
    and the caller copies what it keeps before asking for the next block.
    The weights times L/2 are formed a phase slice at a time
    (_weights(c, lo, hi)), so no copy of coeffs is made and the values are
    those of whole weights bit for bit.
    """
    c = _coeffs(coeffs)
    h = L // 2 + 1
    block = _block_size(L)
    for i in range(0, offsets.size, block):
        x = offsets[i:i + block]
        n = x.size
        half = np.zeros((n + n % 2, h), dtype=complex)
        for lo in range(0, c.size, L):
            for s, z in _phases(lo, min(lo + L, c.size), x, _BLOCK_BYTES // (64 * n)):
                e = s + z.shape[1]
                w = _weights(c, lo + s, lo + e)
                w *= 0.5 * L
                z *= w
                del w
                k = max(min(e, h) - s, 0)  # residues s..s+k-1 lie below h
                half[:n, s:s + k] += z[:, :k]
                # r = s+k..e-1 (all >= h) lands on L - r, descending
                upper = z[:, k:]
                np.conjugate(upper, out=upper)
                half[:n, L - s - k:L - e:-1] += upper
                del z, upper  # each temporary goes before the next is allocated
        half[:, 0] = 2.0 * half[:, 0].real
        if L % 2 == 0:
            half[:, -1] = 2.0 * half[:, -1].real
        a, b = half[0::2], half[1::2]
        packed = np.empty((a.shape[0], L), dtype=complex)
        lower, upper = packed[:, :h], packed[:, h:]
        np.multiply(b, 1j, out=lower)
        lower += a
        # H_{L-r} = conj H_r for r = 1..L-h, stored at h..L-1:
        # conj(a_r) + i conj(b_r) = conj(a_r - i b_r)
        np.multiply(b[:, L - h:0:-1], -1j, out=upper)
        upper += a[:, L - h:0:-1]
        np.conjugate(upper, out=upper)
        del half, a, b, lower, upper
        rows = np.fft.ifft(packed, axis=1)
        del packed
        yield i, n, rows
        del rows


def cosine_poly_on_cells(coeffs, cell_count, offsets):
    """Values of p at t = k/cell_count + x for every residue k and offset x.

    Returns an array of shape (len(offsets), cell_count); column k holds the
    value at k/cell_count + x (interpreted mod 1), matching numpy FFT index
    order, so torus cell index q maps to column q % cell_count.

    With z_m = w_m e^{2 pi i m x} folded into one-sided bins b_r (r = m mod
    L), p(k/L + x) = Re sum_r b_r e^{2 pi i r k/L} = L ifft(H)_k with the
    Hermitian extension H_r = (b_r + conj b_{-r})/2.  The half spectrum
    H_0..H_{L//2} is folded directly: terms with m mod L <= L//2 land on
    H_r, the others conjugated on H_{L-r}, and the self-conjugate bins
    (r = 0 and, for even L, r = L/2) keep the real part of b_r; H_{L-r} =
    conj H_r fills the rest.  Since both rows of a pair are real, one
    complex inverse FFT of H_a + i H_b returns row a as its real part and
    row b as its imaginary part; an unpaired last row is paired with a zero
    row.  The factor L is folded into the weights, a phase slice at a time
    (_cell_blocks).

    One byte budget, _BLOCK_BYTES, bounds the working set whatever
    len(coeffs): offsets are taken _block_size(L) at a time, whose half
    spectra, packed spectra and transforms are each about block/2 x L
    complex values, no more than two of them alive at once, and terms one
    period of L at a time in phase slices of a quarter of the budget.  Each
    bin still receives its terms in increasing m, so the values do not
    depend on the block or the slice.  Each block's transforms are copied
    into the result as they come.
    """
    L = int(cell_count)
    if L < 1:
        raise ValueError("cell_count must be >= 1")
    offsets = np.atleast_1d(np.asarray(offsets, dtype=float))
    out = np.empty((offsets.size, L))
    for i, n, rows in _cell_blocks(coeffs, L, offsets):
        out[i:i + n:2] = rows.real
        out[i + 1:i + n:2] = rows.imag[:n // 2]
        del rows
    return out


def _norm(x):
    """||x||_2 with x scaled by a power of two, so the squares neither
    overflow nor change their bits where they would not have overflowed;
    a norm past the float range is inf.  A complex array is taken as its
    real view."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        x = x.view(float)
    e = math.frexp(float(np.abs(x).max()))[1]
    return float(np.ldexp(np.linalg.norm(np.ldexp(x, -e)), e))


def _smooth(n):
    """The least 2^a 3^b 5^c >= n."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _chirp(lo, hi, L, shift=0):
    """zeta^(j (j + shift)) with zeta = e^{pi i/L}, for j = lo..hi-1.

    The power has period 2L in j and in its exponent, so j is reduced mod
    2L first, and j (j + shift) < 4 L^2 + 2L is exact in int64: the
    angle's only rounding is that of (pi/L) r for the reduced r < 2L.
    """
    r = np.arange(lo, hi, dtype=np.int64)
    r %= 2 * L
    r *= r + shift
    r %= 2 * L
    theta = r * (np.pi / L)
    del r
    z = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=z.real)
    np.sin(theta, out=z.imag)
    return z


def _centre_run(coeffs, cell_count, start, count):
    """Values of p at t = (k + 1/2)/cell_count, k = start..start+count-1,
    and a bound on the root mean square of their rounding errors.

    With L = cell_count, zeta = e^{pi i/L} and w_m the weights (c_0,
    2 c_m), p((k + 1/2)/L) = Re sum_m w_m zeta^{2mk + m}, and
    2mk = m^2 + k^2 - (k - m)^2 makes it Re zeta^{k^2} sum_m x_m h_{k-m}
    with x_m = w_m zeta^{m^2 + m} and h_j = zeta^{-j^2}.  For the n + 1
    coefficients and the M = count cells the chirp runs over
    j = start - n .. start + M - 1, n + M terms, and their cyclic
    convolution of a 5-smooth length S >= n + M holds the M sums at
    indices n..n+M-1, clear of the wrap: three FFTs of length S.  Any
    integer start works, runs below 0 or across L too.

    The bound keeps the normwise form of Higham (Accuracy and Stability,
    24.1) for each FFT, an error of 2-norm log2(S) eps ||y||_2 for a
    transform y of length S, spread evenly over its S entries.  The
    error of X = fft(x), g_x ||X||_2 with ||X||_2 = sqrt(S) ||w||_2, then
    meets H entry by entry, which weighs it by ||H||_2 / sqrt(S) =
    sqrt(n + M); the error of H = fft(h) likewise meets X; and the
    inverse FFT, a factor 1/sqrt(S) in 2-norm, adds its own
    g_c ||C||_2 / sqrt(S) for C = X H.  So the S cyclic outputs are off by
        g_x ||w||_2 sqrt(n + M) + g_h ||w||_2 sqrt(n + M) + g_c ||C||_2 / sqrt(S)
    in 2-norm.  The chirps of x and h round by at most 4 eps per entry
    (angle, cosine and sine, product), so g_x = g_h = (log2(S) + 4) eps;
    the spectrum product and the last chirp add 4 eps more to the inverse,
    g_c = (log2(S) + 8) eps.  That 2-norm over sqrt(S), the root mean
    square per output, is returned.  The norms are taken at a power-of-two
    scale (_norm), so coefficients scaled by 2^k scale the values and the
    bound by exactly 2^k.
    """
    L = int(cell_count)
    w = _weights(coeffs)
    n = w.size - 1
    S = _smooth(n + count)
    x = _chirp(0, n + 1, L, 1)
    x *= w
    w_norm = _norm(w)
    del w
    X = np.fft.fft(x, S)
    del x
    h = _chirp(start - n, start + count, L)
    np.conjugate(h, out=h)
    H = np.fft.fft(h, S)
    del h
    X *= H
    del H
    c_norm = _norm(X)
    c = np.fft.ifft(X)[n:n + count]
    del X
    c *= _chirp(start, start + count, L)
    log_s = math.log2(S)
    err = _EPS * (2.0 * (log_s + 4.0) * w_norm * math.sqrt(n + count)
                  + (log_s + 8.0) * c_norm / math.sqrt(S))
    return c.real.copy(), err / math.sqrt(S)
