"""Oscillatory L1 quadrature over interval unions on the torus.

Two engines.

Cell-aligned Gauss (|.| of partial sums and kernels):
panels follow the sign cells [k/L, (k+1)/L) of the kernel, and every cell
is evaluated at the composite Gauss offsets through the lattice FFT
(trigsum.cosine_poly_on_cells).  The offsets are symmetric about the
cell centre and the integrand is even, so only the first half of the
offsets is evaluated; each other row is a reversed view of its mirror.
Each interval contributes one contiguous range of full cells and at most
two partial remnants.  The Gauss sums are reduced once per lattice column
and gathered at the full cells.  Partial remnants, and full cells whose
values change sign (tested against the cell-edge values, evaluated once
per call), are integrated from the same values: on each panel they fix a
Legendre interpolant, which is split at its real roots and integrated
with Gauss rules exact for its degree.  Remnants are placed on the panels
from their torus ends, so a thin sliver keeps its width.  The lattice is
evaluated once per call.  The error estimate is an a priori bound
(Bernstein-ellipse bounds on the Gauss sums and the panel interpolants,
plus the interpolated rounding of the lattice values) with a roundoff
floor relative to the value.  Signed integrals need no panels: one
lattice row at the cell centres gives every full cell's integral, and
each partial remnant is one direct sum.

Uniform-grid trapezoid (residuals |f - S_N|): S_N and the reference f
are each read off a few interleaved rows of the same lattice FFT
(trigsum.cosine_poly_grid), and the grid must exceed 2N points.  The
reference carries per-point truncation bounds; the integrated bound, the
grid-refinement difference, and end slivers are combined into the error
estimate.  Sets must stay clear of the origin when the reference tail
diverges there; the mass of the excluded window is bounded in closed form
and reported.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .partial_sums import partial_sum_grid, reference_function_grid
from .trigsum import cosine_poly_on_cells, cosine_poly_points

__all__ = [
    "QuadResult",
    "ResidualResult",
    "TraceEntry",
    "NormTrace",
    "integrate_cosine_poly",
    "integrate_abs_partial_sum",
    "integrate_signed",
    "residual_l1",
    "origin_window_bound",
    "norm_trace",
]

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    panels: int


@dataclass(frozen=True)
class ResidualResult:
    value: float
    error_estimate: float
    panels: int
    window: tuple
    excluded_bound: float


@dataclass(frozen=True)
class TraceEntry:
    N: int
    value: float
    error_estimate: float


@dataclass(frozen=True)
class NormTrace:
    entries: tuple

    def __post_init__(self):
        ns = [e.N for e in self.entries]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("trace entries must have strictly increasing N")
        if any(e.error_estimate < 0.0 for e in self.entries):
            raise ValueError("error estimates must be nonnegative")

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def Ns(self):
        return np.array([e.N for e in self.entries])

    def values(self):
        return np.array([e.value for e in self.entries])

    def errors(self):
        return np.array([e.error_estimate for e in self.entries])


# -- cell-aligned Gauss engine -----------------------------------------


@lru_cache(maxsize=None)
def _gauss(n):
    """Gauss-Legendre rule on [-1, 1] and the matrix that maps values at
    its nodes to the Legendre coefficients of their interpolant.

    The rule is exact to degree 2n-1, so discrete orthogonality gives
    coefficient j as (j + 1/2) sum_i w_i P_j(x_i) f(x_i).
    """
    x, w = np.polynomial.legendre.leggauss(n)
    vander = np.polynomial.legendre.legvander(x, n - 1)
    to_coeffs = (np.arange(n) + 0.5)[:, None] * (vander * w[:, None]).T
    for arr in (x, w, to_coeffs):
        arr.setflags(write=False)
    return x, w, to_coeffs


def _unit_composite(panels, nodes):
    """Composite Gauss nodes/weights on [0, 1], symmetric about 1/2 bit
    for bit: the last n//2 nodes are 1 - x of the first n//2, reversed,
    and carry their weights."""
    x, w, _ = _gauss(nodes)
    edges = np.linspace(0.0, 1.0, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    pts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * np.broadcast_to(w, (panels, w.size))).ravel()
    m = pts.size // 2
    pts[pts.size - m:] = 1.0 - pts[m - 1::-1]
    wts[wts.size - m:] = wts[m - 1::-1]
    return pts, wts


def _decompose(E, L):
    """Split E into full lattice cells [k/L, (k+1)/L) and partial remnants.

    Returns (full, partial): full is an integer array holding, interval by
    interval, the one contiguous range of cells the interval covers (cell
    k is full when lo <= k/L and (k+1)/L <= hi; both conditions are
    monotone in k).  A remnant is (k, lo, hi): its cell index and its ends
    on the torus, k/L <= lo < hi <= (k+1)/L, however thin.  The cells
    outside the full range, one more at each end than lo * L and hi * L
    name so that their rounding cannot hide a sliver, are examined one by
    one; an end on the float k/L adds no remnant.
    """
    full = []
    partial = []
    for lo, hi in E.intervals:
        k0 = math.floor(lo * L) - 1
        k1 = math.ceil(hi * L) + 1
        f0 = k0
        while f0 < k1 and f0 / L < lo:
            f0 += 1
        f1 = k1
        while f1 > f0 and f1 / L > hi:
            f1 -= 1
        full.append(np.arange(f0, f1))
        for k in (*range(k0, f0), *range(f1, k1)):
            p_lo = max(lo, k / L)
            p_hi = min(hi, (k + 1) / L)
            if p_hi - p_lo > 0.0:
                partial.append((k, p_lo, p_hi))
    return np.concatenate(full or [np.empty(0, dtype=int)]), partial


def _lattice(coeffs, L, panels, nodes):
    """The n = panels * nodes composite Gauss rows of the cell lattice and
    their weights: row i holds every cell's value at offset x_i / L.

    p is even, so the row at offset 1/L - x is the row at x reversed:
    p((k + 1)/L - x) = p((L - 1 - k)/L + x).  The offsets are symmetric
    (x_{n-1-i} = 1 - x_i), so only the first ceil(n/2) rows are evaluated
    and the others are reversed views of them.
    """
    offs, wts = _unit_composite(panels, nodes)
    n = offs.size
    vals = cosine_poly_on_cells(coeffs, L, offs[:n - n // 2] / L)
    rows = [*vals, *(vals[j, ::-1] for j in range(n // 2 - 1, -1, -1))]
    return rows, wts / L


def _interpolated(rows, pieces, L, panels, nodes):
    """Integrate |.| over cell pieces (k, lo, hi) from their panel interpolants.

    Column k % L of the lattice rows holds the composite Gauss values of
    cell k; on each panel they fix the degree nodes-1 Legendre interpolant
    q in the panel coordinate s in [-1, 1].  A panel the piece covers is
    all of [-1, 1].  The part [a, b] of a panel it cuts is mapped from its
    torus ends: half-width L P (b - a), which keeps a sliver's width to
    rounding however far from the origin it lies, centred at its offset
    from the panel centre.  q is split at its real roots there and each
    root-free range is integrated with ceil(nodes/2)-point Gauss, exact for
    q's degree.  Returns (integral, panels used).
    """
    leg = np.polynomial.legendre
    cols = [k % L for k, _, _ in pieces]
    by_panel = np.array([row[cols] for row in rows]).T.reshape(
        len(pieces), panels, nodes)
    coeffs = by_panel @ _gauss(nodes)[2].T
    gx, gw, _ = _gauss((nodes + 1) // 2)
    LP = L * panels
    total = 0.0
    used = 0
    for (k, lo, hi), c in zip(pieces, coeffs):
        for i in range(panels):
            j = k * panels + i
            e0, e1 = j / LP, (j + 1) / LP
            a, b = max(lo, e0), min(hi, e1)
            if b <= a:
                continue
            if a == e0 and b == e1:
                mid, half = 0.0, 1.0
            else:
                mid = 2.0 * LP * (0.5 * (a + b) - (2 * j + 1) / (2 * LP))
                half = LP * (b - a)
            r = leg.legroots(c[i])
            r = np.sort(r.real[(r.imag == 0.0) & (np.abs(r.real - mid) < half)])
            cuts = np.concatenate(([mid - half], r, [mid + half]))
            mids = 0.5 * (cuts[1:] + cuts[:-1])
            halves = 0.5 * np.diff(cuts)
            if r.size == 0:  # keep the part's own centre and width
                mids[0], halves[0] = mid, half
            q = leg.legval(mids[:, None] + halves[:, None] * gx, c[i])
            total += float(np.abs(halves * (q @ gw)).sum()) / (2 * LP)
            used += 1
    return total, used


def _lebesgue(n):
    """Lebesgue constant of the n Gauss-Legendre nodes.

    Their Lebesgue function sum_i |l_i(s)| peaks at s = +-1, and
    P_j(1) = 1 turns l_i(1) into the column sums of the coefficient map.
    """
    return float(np.abs(_gauss(n)[2].sum(axis=0)).sum())


# Bernstein ellipse parameters the |.| bound is minimised over
_RHO = 1.0 + np.geomspace(1e-4, 1e4, 321)


def _abs_bound(coeffs, L, panels, n, definite_panels, cut):
    """A priori error bound of the single-level |.| integral.

    On a panel of half-width h = 1/(2 panels L), p is entire and bounded on
    the Bernstein ellipse E_rho of the panel coordinate by
    M = sum|w_m| cosh(pi m_max h (rho - 1/rho)).  Each sign-definite Gauss
    panel errs by at most h (64/15) M rho^(-2(n-1)) / (rho^2 - 1) (Trefethen,
    ATAP, Thm 19.3); the pieces integrated from panel interpolants, of total
    measure cut, by (1 + Lambda_n) times the best approximation error
    2 M rho^(-(n-1)) / (rho - 1) (Thm 8.2 and Lebesgue's lemma) plus the
    interpolated rounding of lattice values, eps sum|w_m| each.  rho is the
    best of a fixed grid, worked in logs since cosh overflows.
    """
    h = 0.5 / (panels * L)
    w_sum = 2.0 * float(np.abs(coeffs).sum()) - abs(float(coeffs[0]))
    amp = 1.0 + _lebesgue(n)
    x = math.pi * (coeffs.size - 1) * h * (_RHO - 1.0 / _RHO)
    log_rho = np.log(_RHO)
    with np.errstate(divide="ignore"):  # log 0 = -inf drops an empty term
        log_w, log_gauss, log_interp = np.log(
            [w_sum, definite_panels * h * 64.0 / 15.0, cut * amp * 2.0])
    gauss = log_gauss - 2 * (n - 1) * log_rho - np.log(_RHO ** 2 - 1.0)
    interp = log_interp - (n - 1) * log_rho - np.log(_RHO - 1.0)
    log_m = log_w + np.logaddexp(x, -x) - math.log(2.0)  # log cosh x
    terms = log_m + np.logaddexp(gauss, interp)
    return float(np.exp(terms.min())) + cut * amp * _EPS * w_sum


def _abs(coeffs, E, L, panels, nodes):
    """The |.| integral over E from one lattice evaluation (_lattice).

    The Gauss sums of |.| and the peak |.| are reduced once per lattice
    column, a row at a time, then gathered at the full cells.  Full cells
    are summed with the Gauss weights, except cells whose values change
    sign against their edge values; those join the remnants on the
    panel-interpolant path.  The edge values (x = 0) take a lattice call
    of their own: in the Gauss rows' call they would be paired with a
    Gauss row in one FFT whenever panels * nodes / 2 is odd, and change
    that row's rounding.  The error estimate is _abs_bound with a roundoff
    floor.
    """
    full, pieces = _decompose(E, L)
    rows, wts = _lattice(coeffs, L, panels, nodes)
    total = 0.0
    n_panels = 0
    if full.size:
        edges = cosine_poly_on_cells(coeffs, L, 0.0)[0]
        cols = np.mod(full, L)
        mass = np.zeros(L)
        peak = np.zeros(L)
        a = np.empty(L)
        for wt, row in zip(wts, rows):
            np.abs(row, out=a)
            np.maximum(peak, a, out=peak)
            a *= wt
            mass += a
        mass = mass[cols]
        right = np.roll(edges, -1)
        # kernel zeros sit exactly on cell edges; rounding noise there
        # must not read as a sign change, so tiny values count as zero
        thresh = 64.0 * _EPS * max(float(peak[cols].max()),
                                   float(np.abs(edges[cols]).max()),
                                   float(np.abs(right[cols]).max()))
        kinky = np.zeros(L, dtype=bool)
        pos = edges > thresh
        neg = edges < -thresh
        for row in (*rows, right):
            pos_next = row > thresh
            neg_next = row < -thresh
            kinky |= (pos & neg_next) | (neg & pos_next)
            pos, neg = pos_next, neg_next
        kinky = kinky[cols]
        contrib = mass[~kinky]
        total = float(contrib.sum())
        n_panels = panels * contrib.size
        pieces += [(k, k / L, (k + 1) / L) for k in full[kinky].tolist()]
    definite = n_panels
    if pieces:
        t, p = _interpolated(rows, pieces, L, panels, nodes)
        total += t
        n_panels += p
    cut = math.fsum(hi - lo for _, lo, hi in pieces)
    bound = _abs_bound(coeffs, L, panels, nodes, definite, cut)
    return QuadResult(total, max(bound, 64.0 * _EPS * total), n_panels)


def _signed(coeffs, E, L):
    """Signed integral over E, with `panels` counting the pieces.

    A piece of width w centred at c integrates to the cosine polynomial
    with coefficients c_m w sinc(m w) at c: one lattice row at offset
    1/(2L) for the full cells, one direct sum per remnant.
    Error: 64 eps sum |piece|, plus the FFT's normwise rounding log2(L) eps
    ||row||_2 (Higham, Accuracy and Stability, 24.1) spread evenly over
    the cells, plus 4 eps sum |terms| per direct sum.
    """
    full, pieces = _decompose(E, L)
    m = np.arange(coeffs.size)
    parts = [np.empty(0)]
    rounding = 0.0
    if full.size:
        row = cosine_poly_on_cells(coeffs * np.sinc(m / L) / L, L, 0.5 / L)[0]
        parts.append(row[np.mod(full, L)])
        rounding = (math.log2(L + 1) * math.sqrt(full.size / L)
                    * float(np.linalg.norm(row)))
    for _, lo, hi in pieces:
        w = hi - lo
        c = coeffs * (w * np.sinc(m * w))
        parts.append([cosine_poly_points(c, 0.5 * (lo + hi))])
        rounding += 4.0 * (2.0 * float(np.abs(c).sum()) - abs(float(c[0])))
    vals = np.concatenate(parts)
    err = (64.0 * _EPS * float(np.abs(vals).sum()) + _EPS * rounding
           + np.finfo(float).tiny)  # subnormal widths round absolutely
    return QuadResult(float(vals.sum()), float(err), int(vals.size))


def integrate_cosine_poly(coeffs, E, cell_count, panels_per_cell=2,
                          nodes_per_panel=16, absolute=False):
    """Integrate c_0 + sum 2 c_m cos(2 pi m t) (or its |.|) over E.

    cell_count is the sign-cell modulus the pieces align to (2N+1 for a
    partial sum of order N, j+1 for the order-j nonnegative kernel).  The
    |.| integral evaluates the lattice once, with 2 * panels_per_cell
    Gauss panels of nodes_per_panel nodes per cell; its error estimate is
    an a priori interpolation, quadrature and rounding bound (_abs_bound)
    with a roundoff floor of 64 eps times the value.  The signed integral
    uses no panels, so panels_per_cell and nodes_per_panel do not affect
    it, and its estimate is a rounding bound.
    """
    L = int(cell_count)
    if L < 1:
        raise ValueError("cell_count must be >= 1")
    panels_per_cell = int(panels_per_cell)
    nodes_per_panel = int(nodes_per_panel)
    if panels_per_cell < 1 or nodes_per_panel < 2:
        raise ValueError("need panels_per_cell >= 1 and nodes_per_panel >= 2")
    coeffs = np.asarray(coeffs, dtype=float)
    if E.is_empty:
        return QuadResult(0.0, 0.0, 0)
    if not absolute:
        return _signed(coeffs, E, L)
    return _abs(coeffs, E, L, 2 * panels_per_cell, nodes_per_panel)


def integrate_abs_partial_sum(seq, N, E, panels_per_cell=2, nodes_per_panel=16):
    """integral over E of |S_N(f, t)| dt with cell-aligned panels."""
    if N != int(N) or N < 0:
        raise ValueError("N must be a nonnegative integer")
    N = int(N)
    return integrate_cosine_poly(seq.values(N + 1), E, 2 * N + 1,
                                 panels_per_cell, nodes_per_panel,
                                 absolute=True)


def integrate_signed(seq, N, E):
    """integral over E of S_N(f, t) dt (no absolute value), to rounding."""
    if N != int(N) or N < 0:
        raise ValueError("N must be a nonnegative integer")
    N = int(N)
    return integrate_cosine_poly(seq.values(N + 1), E, 2 * N + 1)


# -- residual engine ----------------------------------------------------


@lru_cache(maxsize=8)
def _cached_reference(seq, grid_size, j_max):
    vals, tails = reference_function_grid(seq, grid_size, j_max)
    vals.setflags(write=False)
    tails.setflags(write=False)
    return vals, tails


def _grid_trapezoid(y, E, G, stride):
    """Trapezoid over the grid points of E at the given stride.

    Returns (integral, sliver mass, samples); slivers are the sub-spacing
    leftovers at interval ends, included in the integral as rectangles and
    reported so the caller can count them toward the error.  Each interval
    is read as a strided view of y; only an interval ending at +1/2 needs
    a copy, to append the wrapped point y[0].
    """
    h = stride / G
    total = 0.0
    sliver = 0.0
    used = 0
    for lo, hi in E.intervals:
        pos_lo = (lo + 0.5) * G
        pos_hi = (hi + 0.5) * G
        i_lo = int(math.ceil(pos_lo - 1e-9))
        i_hi = int(math.floor(pos_hi + 1e-9))
        i_lo = ((i_lo + stride - 1) // stride) * stride
        i_hi = (i_hi // stride) * stride
        if i_lo > i_hi:
            mid = y[int(round(0.5 * (pos_lo + pos_hi))) % G]
            patch = (hi - lo) * float(mid)
            total += patch
            sliver += abs(patch)
            continue
        if i_hi < G:
            yy = y[i_lo:i_hi + 1:stride]
        else:  # the upper end is +1/2, grid index G, which wraps to 0
            yy = np.append(y[i_lo:G:stride], y[0])
        used += yy.size
        if yy.size > 1:
            total += h * (float(yy.sum()) - 0.5 * float(yy[0] + yy[-1]))
        w1 = max(i_lo - pos_lo, 0.0) / G
        w2 = max(pos_hi - i_hi, 0.0) / G
        patch = w1 * float(yy[0]) + w2 * float(yy[-1])
        total += patch
        sliver += abs(patch)
    return total, sliver, used


def origin_window_bound(seq, N, eta, j_star=None):
    """Closed-form bound on the residual mass inside (-eta, eta).

    Splits f at order J: the kept part is below sum (j+1)^2 d2_j pointwise,
    the dropped kernels contribute at most their full-torus mass, and |S_N|
    is below its coefficient sum; everything is then integrated over the
    window of width 2 eta.
    """
    eta = float(eta)
    if eta <= 0.0:
        return 0.0
    J = int(j_star) if j_star is not None else max(2, int(round(0.5 / eta)))
    d2 = seq.second_differences(J + 1)
    j = np.arange(J + 1, dtype=float)
    f_peak = float(((j + 1.0) ** 2) @ d2)
    dropped = seq.weighted_tail_beyond(J)
    a = seq.values(int(N) + 1)
    s_peak = float(a[0] + 2.0 * a[1:].sum())
    return 2.0 * eta * (f_peak + s_peak) + dropped


def residual_l1(seq, N, E, j_max=100000, grid_size=2 ** 16):
    """integral over E of |f - S_N| dt on a uniform grid, with tail bounds.

    E must keep a positive distance >= one grid spacing from the origin
    whenever the reference tail diverges there (both log families); the
    bound on the mass excluded by that window is reported alongside.  The
    grid must resolve S_N: grid_size > 2 N, else ValueError.
    """
    if N != int(N) or N < 0:
        raise ValueError("N must be a nonnegative integer")
    N = int(N)
    G = int(grid_size)
    if G < 16:
        raise ValueError("grid_size must be >= 16")
    if 2 * N >= G:
        raise ValueError(f"grid_size {G} is below Nyquist for order {N}: "
                         "it must exceed 2 N")
    if E.is_empty:
        return ResidualResult(0.0, 0.0, 0, (0.0, 0.0), 0.0)
    d0 = E.distance_from_zero()
    unbounded_at_zero = not math.isfinite(seq.squared_weighted_tail_beyond(j_max))
    if unbounded_at_zero:
        if d0 <= 0.0:
            raise ValueError("set must exclude a window around 0: the "
                             "reference function's tail bound diverges there")
        if d0 < 1.0 / G:
            raise ValueError("origin window is narrower than the grid spacing")
    f_vals, f_tails = _cached_reference(seq, G, j_max)
    r = partial_sum_grid(seq, N, G)  # a fresh buffer; f_vals is cached
    np.subtract(f_vals, r, out=r)
    np.abs(r, out=r)
    i_fine, sliver, used = _grid_trapezoid(r, E, G, 1)
    i_coarse, _, _ = _grid_trapezoid(r, E, G, 2)
    tail_int, _, _ = _grid_trapezoid(f_tails, E, G, 1)
    err = abs(i_fine - i_coarse) + tail_int + sliver + 64.0 * _EPS * abs(i_fine)
    window = (-d0, d0) if d0 > 0.0 else (0.0, 0.0)
    bound = origin_window_bound(seq, N, d0) if d0 > 0.0 else 0.0
    return ResidualResult(float(i_fine), float(err), int(used), window,
                          float(bound))


def norm_trace(seq, Ns, E, kind="abs", panels_per_cell=2, nodes_per_panel=16,
               j_max=100000, grid_size=2 ** 16):
    """One QuadResult per N assembled into a NormTrace.

    kind "abs" integrates |S_N| with the cell-aligned engine; kind
    "residual" integrates |f - S_N| with the grid engine (E must already
    exclude the origin window).
    """
    Ns = [int(n) for n in Ns]
    if any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ValueError("Ns must be strictly increasing")
    entries = []
    for N in Ns:
        if kind == "abs":
            q = integrate_abs_partial_sum(seq, N, E, panels_per_cell,
                                          nodes_per_panel)
        elif kind == "residual":
            q = residual_l1(seq, N, E, j_max, grid_size)
        else:
            raise ValueError(f"unknown trace kind {kind!r}")
        entries.append(TraceEntry(N, q.value, q.error_estimate))
    return NormTrace(tuple(entries))
