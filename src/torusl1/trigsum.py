"""Fast evaluation of even cosine polynomials.

Everything here evaluates p(t) = c_0 + sum_{m>=1} 2 c_m cos(2 pi m t) for a
real coefficient vector c, in three layouts:

  * cosine_poly_points: direct sum at scattered points (the slow oracle the
    fast paths are checked against); angles go through an exact split
    product so per-term error stays near machine level.
  * cosine_poly_grid: the uniform grid t_k = -1/2 + k/G in O(M + G log G)
    by folding the coefficients onto the real half spectrum r = 0..G//2
    and taking one real inverse FFT of length G.
  * cosine_poly_on_cells: the lattice t = k/L + x for all residues k at a
    few offsets x.  Each offset's row is real, so two rows share one
    complex inverse FFT of length L (one as the real part, one as the
    imaginary part of the output); the phases come from a split table of
    about 2 sqrt(len(c)) exponentials per offset, and offsets are taken a
    block at a time.  This is what lets cell-aligned quadrature touch
    every kernel cell at once.
"""

import math

import numpy as np

from .kernels import product_frac

__all__ = [
    "cosine_poly_points",
    "cosine_poly_grid",
    "cosine_poly_on_cells",
]


_OFFSET_BLOCK = 8  # offsets per inverse FFT batch in cosine_poly_on_cells


def _weights(coeffs):
    w = np.asarray(coeffs, dtype=float).copy()
    if w.ndim != 1 or w.size == 0:
        raise ValueError("coeffs must be a nonempty 1-d array")
    w[1:] *= 2.0
    return w


def cosine_poly_points(coeffs, ts, m_chunk=2048, t_chunk=2048):
    """Direct evaluation at arbitrary points; scalar in, scalar out.

    Chunked over both terms and points so temporaries stay bounded.
    """
    w = _weights(coeffs)
    ts_arr = np.atleast_1d(np.asarray(ts, dtype=float)).ravel()
    out = np.empty(ts_arr.shape)
    for p0 in range(0, ts_arr.size, t_chunk):
        blk = ts_arr[p0:p0 + t_chunk]
        acc = np.full(blk.shape, w[0])
        for lo in range(1, w.size, m_chunk):
            m = np.arange(lo, min(lo + m_chunk, w.size), dtype=float)
            fr = product_frac(m[:, None], blk[None, :])
            acc += w[lo:lo + m.size] @ np.cos(2.0 * np.pi * fr)
        out[p0:p0 + blk.size] = acc
    if np.ndim(ts) == 0:
        return float(out[0])
    return out.reshape(np.shape(ts))


def cosine_poly_grid(coeffs, grid_size):
    """Values at t_k = -1/2 + k/grid_size for k = 0..grid_size-1.

    At t_k the term m contributes (-1)^m w_m cos(2 pi r k/G) with r = m mod
    G, and cos(2 pi r k/G) = cos(2 pi (G - r) k/G), so the signed weights
    fold onto the real half spectrum r = min(m mod G, G - m mod G) =
    0..G//2.  One real inverse FFT of length G then gives every value:
    irfft weighs the self-conjugate bins (r = 0 and, for even G, r = G/2)
    once and the others twice, so those two carry G c_r and the rest
    G c_r / 2.
    """
    G = int(grid_size)
    if G < 1:
        raise ValueError("grid_size must be >= 1")
    w = _weights(coeffs)
    m = np.arange(w.size)
    signed = np.where(m % 2 == 0, w, -w)  # e^{2 pi i m t} picks up (-1)^m at t = k/G - 1/2
    r = m % G
    half = np.bincount(np.minimum(r, G - r), weights=signed, minlength=G // 2 + 1)
    half *= 0.5 * G
    half[0] *= 2.0
    if G % 2 == 0:
        half[-1] *= 2.0
    return np.fft.irfft(half, n=G)


def _phases(size, x):
    """e^{2 pi i m x} for m = 0..size-1 at each offset x: shape (x.size, size).

    With m = qB + j and B about sqrt(size), the phase is the product of
    e^{2 pi i qB x} and e^{2 pi i j x}, two tables of about sqrt(size)
    entries per offset whose angles product_frac reduces exactly; the
    product costs one complex multiply per term instead of an exp.
    """
    B = math.isqrt(size - 1) + 1
    Q = -(-size // B)
    x = x[:, None]
    step = np.exp((2.0j * np.pi) * product_frac(np.arange(B, dtype=float), x))
    jump = np.exp((2.0j * np.pi) * product_frac(B * np.arange(Q, dtype=float), x))
    return (jump[:, :, None] * step[:, None, :]).reshape(x.shape[0], Q * B)[:, :size]


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
    row.  The factor L is folded into the weights.  Offsets are taken
    _OFFSET_BLOCK at a time, so the only complex temporaries are block x
    len(coeffs) phases, the block x (L//2 + 1) half spectra and the
    block/2 x L packed spectra.
    """
    L = int(cell_count)
    if L < 1:
        raise ValueError("cell_count must be >= 1")
    w = _weights(coeffs)
    offsets = np.atleast_1d(np.asarray(offsets, dtype=float))
    h = L // 2 + 1
    half_w = (0.5 * L) * w
    out = np.empty((offsets.size, L))
    for i in range(0, offsets.size, _OFFSET_BLOCK):
        x = offsets[i:i + _OFFSET_BLOCK]
        z = _phases(w.size, x)
        z *= half_w
        half = np.zeros((x.size + x.size % 2, h), dtype=complex)
        for s in range(0, w.size, L):
            up = z[:, s:s + h]
            half[:x.size, :up.shape[1]] += up
            down = z[:, s + h:s + L]  # r = h..L-1 lands on L - r, descending
            half[:x.size, L - h:L - h - down.shape[1]:-1] += down.conj()
        del z  # each temporary goes before the next is allocated
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
        del half, a, b
        rows = np.fft.ifft(packed, axis=1)
        del packed
        out[i:i + x.size:2] = rows.real
        out[i + 1:i + x.size:2] = rows.imag[:x.size // 2]
    return out
