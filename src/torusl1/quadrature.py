"""Oscillatory L1 quadrature over interval unions on the torus.

Two engines.

Cell-aligned Gauss (|.| of partial sums and kernels):
panels follow the sign cells [k/L, (k+1)/L) of the kernel, and every cell
is evaluated at the composite Gauss offsets through the lattice FFT
(trigsum.cosine_poly_on_cells).  The offsets are symmetric about the
cell centre and the integrand is even, so only the first half of the
offsets is evaluated; each other row is a reversed view of its mirror.
Each interval contributes one contiguous range of full cells and at most
two partial remnants.  Every panel's Gauss sum and a sign certificate,
from the Legendre coefficients of its interpolant and derivative bounds,
are computed a block of lattice columns at a time, for the first half of
the panels only, and mirrored.  Certified panels of full cells count
their Gauss sums.  The other panels of full cells and the partial
remnants are integrated from the same values: on each panel they fix a
Legendre interpolant, which is split at its real roots and integrated
with Gauss rules exact for its degree.  Remnants are placed on the panels
from their torus ends, so a thin sliver keeps its width.  The lattice is
evaluated once per call.  The error estimate is an a priori bound
(Bernstein-ellipse bounds on the Gauss sums and the panel interpolants,
plus the interpolated rounding of the lattice values, and a charge for
panels whose certificate reads a kernel zero on a panel end) with a
roundoff floor relative to the value.  Signed integrals need no panels: one
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


def _interpolated(rows, parts, L, panels, nodes, delta):
    """Integrate |.| over panel parts (j, lo, hi) from their interpolants.

    Panel j = k * panels + i is panel i of cell k: rows i*nodes ..
    (i+1)*nodes - 1 of lattice column k % L hold its Gauss values, which
    fix the degree nodes-1 Legendre interpolant q in the panel coordinate
    s in [-1, 1].  A part that is the whole panel is all of [-1, 1].  A
    part [a, b] that cuts the panel is mapped from its torus ends:
    half-width L P (b - a), which keeps a sliver's width to rounding
    however far from the origin it lies, centred at its offset from the
    panel centre.  q is split at its real roots there, unless _certify
    finds the panel sign-definite, and each root-free range is integrated
    with ceil(nodes/2)-point Gauss, exact for q's degree.  Returns the
    integral and the edge charges of the certified panels.
    """
    leg = np.polynomial.legendre
    vals = np.array([[rows[(j % panels) * nodes + r][(j // panels) % L]
                      for r in range(nodes)] for j, _, _ in parts])
    coeffs = vals @ _gauss(nodes)[2].T
    LP = L * panels
    certified, charge = _certify(vals.T, delta, 0.5 / LP)
    gx, gw, _ = _gauss((nodes + 1) // 2)
    total = 0.0
    for (j, a, b), c, sure in zip(parts, coeffs, certified):
        if a == j / LP and b == (j + 1) / LP:
            mid, half = 0.0, 1.0
        else:
            mid = 2.0 * LP * (0.5 * (a + b) - (2 * j + 1) / (2 * LP))
            half = LP * (b - a)
        r = np.empty(0) if sure else leg.legroots(c)
        r = np.sort(r.real[(r.imag == 0.0) & (np.abs(r.real - mid) < half)])
        cuts = np.concatenate(([mid - half], r, [mid + half]))
        mids = 0.5 * (cuts[1:] + cuts[:-1])
        halves = 0.5 * np.diff(cuts)
        if r.size == 0:  # keep the part's own centre and width
            mids[0], halves[0] = mid, half
        q = leg.legval(mids[:, None] + halves[:, None] * gx, c)
        total += float(np.abs(halves * (q @ gw)).sum()) / (2 * LP)
    return total, float(charge.sum())


def _lebesgue(n):
    """Lebesgue constant of the n Gauss-Legendre nodes.

    Their Lebesgue function sum_i |l_i(s)| peaks at s = +-1, and
    P_j(1) = 1 turns l_i(1) into the column sums of the coefficient map.
    """
    return float(np.abs(_gauss(n)[2].sum(axis=0)).sum())


# Bernstein ellipse parameters the |.| bound is minimised over
_RHO = 1.0 + np.geomspace(1e-4, 1e4, 321)


def _abs_bound(coeffs, L, panels, n):
    """A priori error terms of the |.| integral: (gauss, delta).

    On a panel of half-width h = 1/(2 panels L), p is entire and bounded on
    the Bernstein ellipse E_rho of the panel coordinate by
    M = sum|w_m| cosh(pi m_max h (rho - 1/rho)).  A sign-definite Gauss
    panel errs by at most gauss = h (64/15) M rho^(-2(n-1)) / (rho^2 - 1)
    (Trefethen, ATAP, Thm 19.3).  delta bounds |p - q| on a panel, q the
    interpolant of the lattice values: (1 + Lambda_n) times the best
    approximation error 2 M rho^(-(n-1)) / (rho - 1) (Thm 8.2 and
    Lebesgue's lemma) plus the interpolated rounding of lattice values,
    eps sum|w_m| each.  It is the certificate's slack and the error per
    unit measure of every piece integrated from its interpolant.  Each rho
    is the best of a fixed grid, worked in logs since cosh overflows.
    """
    h = 0.5 / (panels * L)
    w_sum = 2.0 * float(np.abs(coeffs).sum()) - abs(float(coeffs[0]))
    amp = 1.0 + _lebesgue(n)
    x = math.pi * (coeffs.size - 1) * h * (_RHO - 1.0 / _RHO)
    log_rho = np.log(_RHO)
    with np.errstate(divide="ignore"):  # log 0 = -inf for a zero polynomial
        log_m = np.log(w_sum) + np.logaddexp(x, -x) - math.log(2.0)
    gauss = (math.log(h * 64.0 / 15.0) - 2 * (n - 1) * log_rho
             - np.log(_RHO ** 2 - 1.0))
    interp = math.log(2.0) - (n - 1) * log_rho - np.log(_RHO - 1.0)
    return (float(np.exp((log_m + gauss).min())),
            amp * (float(np.exp((log_m + interp).min())) + _EPS * w_sum))


@lru_cache(maxsize=None)
def _certificate_maps(n):
    """The gap ends [-1, x_1, .., x_n, 1] of an n-node panel, the map from
    Legendre coefficients to q and q' there, and the weights of the
    derivative bounds max|q'| <= sum|c_j| P_j'(1) and max|q''| <=
    sum|c_j| P_j''(1), with P_j'(1) = j(j+1)/2 and P_j''(1) =
    (j-1) j (j+1) (j+2)/8."""
    leg = np.polynomial.legendre
    ends = np.concatenate(([-1.0], _gauss(n)[0], [1.0]))
    val = leg.legvander(ends, n - 1)
    der = leg.legvander(ends, max(n - 2, 0)) @ leg.legder(np.eye(n))
    j = np.arange(n, dtype=float)
    bounds = np.stack([j * (j + 1) / 2, (j - 1) * j * (j + 1) * (j + 2) / 8],
                      axis=1)
    maps = (ends, np.concatenate([val, der]), bounds.T)
    for arr in maps:
        arr.setflags(write=False)
    return maps


def _certify(vals, delta, h):
    """Certify panels sign-definite from their Gauss values.

    Column t of vals holds the n node values of panel t; q is their
    Legendre interpolant with coefficients c, and |p - q| <= delta on the
    panel.  Every gap between neighbouring gap ends (_certificate_maps)
    must pass one of two tests, which keep p's sign on it:
      1. |q(a)| + |q(b)| - D1 (b - a) > 2 delta, D1 = sum|c_j| P_j'(1)
         bounding |q'|: then |q| > delta on [a, b];
      2. q is monotone there, m = max(|q'(a)|, |q'(b)|) - D2 (b - a) > 0
         with D2 = sum|c_j| P_j''(1), and its ends agree in sign beyond
         delta.
    A panel end with |q| <= delta counts as a zero (the kernel zeros on
    cell edges) and agrees with either sign, but only under test 2: p can
    then take the wrong sign only where |q| <= delta, within 2 delta / m
    of the end, so |sum w p| errs from the integral of |p| by at most
    8 h delta^2 / m more, h the panel half-width in t.
    Returns (certified, charge), one entry per panel.
    """
    n = vals.shape[0]
    ends, to_values, bounds = _certificate_maps(n)
    c = _gauss(n)[2] @ vals
    at = to_values @ c  # q at the gap ends, then q'
    q, dq = np.abs(at[:n + 2]), np.abs(at[n + 2:])
    pos, neg = at[:n + 2] > delta, at[:n + 2] < -delta
    d1, d2 = bounds @ np.abs(c)
    width = np.diff(ends)[:, None]
    zero_lo = ~(pos[0] | neg[0])
    zero_hi = ~(pos[-1] | neg[-1])
    agree = (pos[:-1] & pos[1:]) | (neg[:-1] & neg[1:])
    agree[0] |= zero_lo & (pos[1] | neg[1])
    agree[-1] |= zero_hi & (pos[-2] | neg[-2])
    slope = np.maximum(dq[:-1], dq[1:])
    slope -= d2 * width
    lipschitz = q[:-1] + q[1:]
    lipschitz -= d1 * width
    lipschitz = lipschitz > 2.0 * delta
    lipschitz[0] &= ~zero_lo
    lipschitz[-1] &= ~zero_hi
    certified = (lipschitz | (agree & (slope > 0.0))).all(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = (np.where(zero_lo, 1.0 / slope[0], 0.0)
               + np.where(zero_hi, 1.0 / slope[-1], 0.0))
        charge = np.where(certified, 8.0 * h * delta ** 2 * inv, 0.0)
    return certified, charge


_COLUMN_BLOCK = 8192  # lattice columns per certificate batch


def _panel_table(rows, wts, L, panels, nodes, delta):
    """Gauss sum, certificate and edge charge (_certify) of every panel.

    Returns three (L, panels) arrays: entry (k, i) is panel i of lattice
    column k.  Only the first ceil(panels/2) panels are computed, a block
    of columns at a time; p is even, so panel panels-1-i of column k is
    panel i of column L-1-k reversed, and the rest are mirrored from them.
    """
    half = (panels + 1) // 2
    w = wts[:half * nodes].reshape(half, nodes)
    h = 0.5 / (panels * L)
    sums = np.empty((L, panels))
    certified = np.empty((L, panels), dtype=bool)
    charge = np.empty((L, panels))
    for c0 in range(0, L, _COLUMN_BLOCK):
        c1 = min(c0 + _COLUMN_BLOCK, L)
        vals = np.stack([row[c0:c1] for row in rows[:half * nodes]])
        for i in range(half):
            v = vals[i * nodes:(i + 1) * nodes]
            sums[c0:c1, i] = w[i] @ v
            certified[c0:c1, i], charge[c0:c1, i] = _certify(v, delta, h)
    for arr in (sums, certified, charge):
        for i in range(panels // 2):
            arr[:, panels - 1 - i] = arr[::-1, i]
    return sums, certified, charge


def _abs(coeffs, E, L, panels, nodes):
    """The |.| integral over E from one lattice evaluation (_lattice).

    Every panel of the full cells that _certify finds sign-definite
    contributes |sum w p|.  The other panels of full cells and every panel
    part of a remnant are integrated from their interpolants
    (_interpolated).  The error estimate is gauss per certified full-cell
    panel, delta per unit measure interpolated and the edge charges
    (_abs_bound, _certify), with a roundoff floor.
    """
    full, pieces = _decompose(E, L)
    gauss, delta = _abs_bound(coeffs, L, panels, nodes)
    rows, wts = _lattice(coeffs, L, panels, nodes)
    LP = L * panels
    parts = []
    for k, lo, hi in pieces:
        for j in range(k * panels, (k + 1) * panels):
            a, b = max(lo, j / LP), min(hi, (j + 1) / LP)
            if a < b:
                parts.append((j, a, b))
    total = edge = 0.0
    definite = 0
    if full.size:
        sums, certified, charge = _panel_table(rows, wts, L, panels, nodes,
                                               delta)
        cols = np.mod(full, L)
        sure = certified[cols]
        total = float(np.abs(sums[cols][sure]).sum())
        edge = float(charge[cols].sum())  # zero on uncertified panels
        definite = int(np.count_nonzero(sure))
        cell, i = np.nonzero(~sure)
        parts += [(j, j / LP, (j + 1) / LP)
                  for j in (full[cell] * panels + i).tolist()]
    if parts:
        t, e = _interpolated(rows, parts, L, panels, nodes, delta)
        total += t
        edge += e
    cut = math.fsum(b - a for _, a, b in parts)
    bound = definite * gauss + cut * delta + edge
    return QuadResult(total, max(bound, 64.0 * _EPS * total),
                      definite + len(parts))


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
    |.| integral evaluates the lattice once, with panels_per_cell Gauss
    panels of nodes_per_panel nodes per cell; its error estimate is an a
    priori interpolation, quadrature and rounding bound (_abs_bound,
    _certify) with a roundoff floor of 64 eps times the value.  The signed
    integral uses no panels, so panels_per_cell and nodes_per_panel do not
    affect it, and its estimate is a rounding bound.
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
    return _abs(coeffs, E, L, panels_per_cell, nodes_per_panel)


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


def origin_window_bound(seq, N, eta):
    """Closed-form bound on the residual mass inside (-eta, eta).

    Splits f at order J = round(1/(2 eta)), at least 2: the kept part is below sum (j+1)^2 d2_j pointwise,
    the dropped kernels contribute at most their full-torus mass, and |S_N|
    is below its coefficient sum; everything is then integrated over the
    window of width 2 eta.
    """
    eta = float(eta)
    if eta <= 0.0:
        return 0.0
    J = max(2, int(round(0.5 / eta)))
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
