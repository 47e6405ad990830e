"""Oscillatory L1 quadrature over interval unions on the torus.

Two engines.

Cell-aligned Gauss (|.| of partial sums and kernels):
panels follow the cells [k/L, (k+1)/L) of a lattice of L cells, and every
cell is evaluated at the composite Gauss offsets through the lattice FFT
(trigsum.cosine_poly_on_cells).  The lattice is picked from the
coefficients before any evaluation (integrate_abs_partial_sum): L = 2N+1,
the sign cells of D_N, when S_N = a_0 D_N, whose zeros are the cell edges
and certify there; otherwise the least 5-smooth L >= 2N+1, a fast FFT
length, since the zeros of any other S_N fall inside cells of either
lattice.  The offsets are symmetric about the cell centre and the
integrand is even, so only the first half of the offsets is evaluated;
each other row is a reversed view of its mirror.  Each interval
contributes one contiguous range of full cells and at most
two partial remnants.  The Gauss sum and a sign certificate (from the
Legendre coefficients of its interpolant and derivative bounds) of a
panel of a full cell are computed only on the lattice columns that the
full cells read, for the first half of the panels, whose mirrors stand
for the rest; each block of columns is added into the integral as it is
done, weighted by how many full cells read it.  Certified panels count
their Gauss sums.  The other panels of full cells and the partial
remnants are integrated from the same values: on each panel they fix a
Legendre interpolant, which is split at its real roots and integrated
with Gauss rules exact for its degree.  This path works on arrays: a
panel whose every gap is clear of zero or monotone has one root in each
gap whose ends differ in sign, and one bracketed Newton iteration on q
and q' finds all of them at once; the roots of the other panels of one
degree come from one stacked eigenvalue solve of their companion
matrices; and one legval call (Clenshaw on arrays) evaluates every
root-free range.  Remnants are placed on the panels from their torus
ends, so a thin sliver keeps its width.  The lattice is evaluated once
per call.  The error estimate is an a priori bound
(Bernstein-ellipse bounds on the Gauss sums and the panel interpolants,
plus the interpolated rounding of the lattice values, and a charge for
panels whose certificate reads a kernel zero on a panel end) with a
roundoff floor relative to the value.  Signed integrals need no panels:
the full cells' integrals are values at the cell centres, read by one
chirp-z transform over the shortest run of cells that holds them
(trigsum._centre_run), and each partial remnant is one direct sum.

Uniform-grid trapezoid (residuals |f - S_N|): S_N and the reference f
are each read off a few interleaved rows of the same lattice FFT, and the
grid must exceed 2N points.  Both are even, so the grid functions return
only the half grid t_k = -1/2 + k/G, k = 0..G//2
(partial_sums.partial_sum_grid, partial_sums.reference_function_grid),
which is all that is stored and subtracted; the trapezoid reads
full-grid index i > G//2 at G - i.  A sweep of orders over one set builds
f once; its per-point truncation bounds are integrated over the set and
dropped before the first order, so each order holds f's half grid and its
own.  Those bounds, like the closed-form origin window bound, hold because
the coefficients are nonincreasing and convex, which the ConvexSequence
constructor enforces.  The integrated bound, the grid-refinement
difference, and end slivers are combined into the error estimate.  Sets
must stay clear of the origin when the reference tail diverges there; the
mass of the excluded window is bounded in closed form and reported.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kernels import check_index
from .partial_sums import partial_sum_grid, reference_function_grid
from .trigsum import (_centre_run, _smooth, cosine_poly_on_cells,
                      cosine_poly_points)

__all__ = [
    "QuadResult",
    "ResidualResult",
    "NormTrace",
    "integrate_cosine_poly",
    "integrate_abs_partial_sum",
    "integrate_signed",
    "residual_l1",
    "origin_window_bound",
    "norm_trace",
]

_EPS = float(np.finfo(float).eps)
# added to every cell-engine bar: subnormal widths and values round absolutely
_TINY = float(np.finfo(float).tiny)


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


@dataclass(frozen=True, eq=False)
class NormTrace:
    """One read-only array per column: orders N (strictly increasing), the
    values and their nonnegative error estimates, all of one length."""
    N: np.ndarray
    value: np.ndarray
    error_estimate: np.ndarray

    def __post_init__(self):
        for name, dtype in (("N", int), ("value", float),
                            ("error_estimate", float)):
            col = np.array(getattr(self, name), dtype=dtype)
            col.setflags(write=False)
            object.__setattr__(self, name, col)
        if not (self.N.ndim == 1 and self.N.shape == self.value.shape
                == self.error_estimate.shape):
            raise ValueError("trace columns must have one length")
        if np.any(np.diff(self.N) <= 0):
            raise ValueError("trace entries must have strictly increasing N")
        if np.any(self.error_estimate < 0.0):
            raise ValueError("error estimates must be nonnegative")


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

    Returns (full, partial): full lists, interval by interval, the one
    contiguous range (f0, f1) of cells f0 <= k < f1 the interval covers
    (cell k is full when lo <= k/L and (k+1)/L <= hi; both conditions are
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
        full.append((f0, f1))
        for k in (*range(k0, f0), *range(f1, k1)):
            p_lo = max(lo, k / L)
            p_hi = min(hi, (k + 1) / L)
            if p_hi - p_lo > 0.0:
                partial.append((k, p_lo, p_hi))
    return full, partial


def _lattice(coeffs, L, panels, nodes):
    """The n = panels * nodes composite Gauss rows of the cell lattice and
    their weights: row i holds every cell's value at offset x_i / L.

    p is even, so the row at offset 1/L - x is the row at x reversed:
    p((k + 1)/L - x) = p((L - 1 - k)/L + x).  The offsets are symmetric
    (x_{n-1-i} = 1 - x_i), so only the first ceil(n/2) rows are evaluated
    and the others are reversed views of them.  Values that are not
    finite (coefficients whose lattice arithmetic overflows) raise
    ValueError before any root solve sees them.
    """
    offs, wts = _unit_composite(panels, nodes)
    n = offs.size
    vals = cosine_poly_on_cells(coeffs, L, offs[:n - n // 2] / L)
    # nan propagates through min and max, which need no temporary array
    if not (math.isfinite(vals.min()) and math.isfinite(vals.max())):
        raise ValueError("the cell lattice values are not finite: "
                         "the coefficients overflow float64")
    rows = [*vals, *(vals[j, ::-1] for j in range(n // 2 - 1, -1, -1))]
    return rows, wts / L


def _interpolated(rows, j, lo, hi, L, panels, nodes, delta):
    """Integrate |.| over panel parts [lo, hi] of panels j from their
    interpolants.

    Panel j = k * panels + i is panel i of cell k: rows i*nodes ..
    (i+1)*nodes - 1 of lattice column k % L hold its Gauss values, which
    fix the degree nodes-1 Legendre interpolant q in the panel coordinate
    s in [-1, 1].  A part that is the whole panel is all of [-1, 1].  A
    part that cuts the panel is mapped from its torus ends: half-width
    L P (hi - lo), which keeps a sliver's width to rounding however far
    from the origin it lies, centred at its offset from the panel centre.
    q is split at its real roots there, unless _certify finds the panel
    sign-definite: by bracketed Newton (_gap_roots) when every gap of the
    panel is clear of zero (_certify's test 1) or monotone, else by the
    stacked eigenvalue solve (_real_roots).  Each root-free range is
    integrated with ceil(nodes/2)-point Gauss, exact for q's degree; one
    legval call evaluates every range of a block.  The parts go a block at
    a time, so that a block's companion matrices hold no more values than
    a block of lattice columns.  Returns the integral, summed in part
    order, and the edge charges of the certified panels.
    """
    LP = L * panels
    panel, col = j % panels, (j // panels) % L
    vals = np.empty((j.size, nodes))
    for i in range(panels):  # one fancy index per lattice row
        at = np.flatnonzero(panel == i)
        for r in range(nodes):
            vals[at, r] = rows[i * nodes + r][col[at]]
    coeffs = vals @ _gauss(nodes)[2].T
    certified, charge, simple = _certify(vals.T, delta, 0.5 / LP)
    whole = (lo == j / LP) & (hi == (j + 1) / LP)
    mid = np.where(whole, 0.0,
                   2.0 * LP * (0.5 * (lo + hi) - (2 * j + 1) / (2 * LP)))
    half = np.where(whole, 1.0, LP * (hi - lo))
    gx, gw, _ = _gauss((nodes + 1) // 2)
    step = max(1, _COLUMN_BLOCK * nodes // (nodes - 1) ** 2)
    part = np.empty(j.size)
    for s0 in range(0, j.size, step):
        b = slice(s0, s0 + step)
        c, m, h = coeffs[b], mid[b], half[b]
        roots = np.full((len(c), nodes + 1), np.nan)
        newton = simple[b] & ~certified[b]
        eigen = ~(simple[b] | certified[b])
        roots[newton] = _gap_roots(c[newton])
        roots[eigen, :nodes - 1] = _real_roots(c[eigen])
        inside = np.abs(roots - m[:, None]) < h[:, None]
        count = np.count_nonzero(inside, axis=1)
        cuts = np.column_stack([m - h, np.where(inside, roots, np.nan), m + h])
        cuts = np.sort(cuts, axis=1)[:, :count.max() + 2]  # NaN sorts last
        mids = 0.5 * (cuts[:, 1:] + cuts[:, :-1])
        halves = 0.5 * np.diff(cuts, axis=1)
        none = count == 0  # keep the part's own centre and width
        mids[none, 0], halves[none, 0] = m[none], h[none]
        keep = np.arange(mids.shape[1]) <= count[:, None]
        owner = np.nonzero(keep)[0]
        halves = halves[keep]
        x = mids[keep][:, None] + halves[:, None] * gx
        q = np.polynomial.legendre.legval(x.T, c[owner].T, tensor=False)
        piece = np.abs(halves * (q.T @ gw))
        part[b] = np.bincount(owner, piece, len(c)) / (2 * LP)
    return float(np.cumsum(part)[-1]), float(charge.sum())


def _newton(f, pos, neg, x):
    """Roots of f on arrays by Newton's method inside brackets.

    f(x) returns f and f' at x, and f(pos) > 0 > f(neg) bracket one root
    per entry; every iterate where f > 0 or f < 0 replaces that end.  A
    step that leaves the bracket known so far is replaced by the
    bracket's midpoint; a step onto a bracket end counts as inside.  The
    loop ends once every step repeats the current or the previous iterate,
    which each entry reaches: an iterate strictly inside its bracket
    shrinks it, and once none can, the iterates take only the bracket's two
    ends.  It stops after 64 steps at most, in which bisection alone
    narrows a bracket of width 2 to 1e-19.  Returns the last iterates.
    """
    prev = x
    for _ in range(64):
        v, d = f(x)
        pos = np.where(v > 0.0, x, pos)
        neg = np.where(v < 0.0, x, neg)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x - v / d
        lo, hi = np.minimum(pos, neg), np.maximum(pos, neg)
        step = np.where((lo <= step) & (step <= hi), step, 0.5 * (pos + neg))
        settled = np.all((step == x) | (step == prev))
        prev, x = x, step
        if settled:
            break
    return x


def _gap_roots(c):
    """The roots in [-1, 1] of the Legendre series q in each row of c,
    where every gap between its gap ends (_certificate_maps) passes
    _certify's test 1 or is monotone, NaN-padded to one column per gap.

    A gap of test 1 holds no root and a monotone gap at most one, which
    its ends bracket; so each gap whose ends, evaluated by legval, differ
    in sign or hold a zero gets one root by bracketed Newton (_newton) on
    q and q' from the gap's midpoint, all gaps of all rows at once.
    """
    leg = np.polynomial.legendre
    n = c.shape[1]
    ends = np.concatenate(([-1.0], _gauss(n)[0], [1.0]))
    roots = np.full((c.shape[0], n + 1), np.nan)
    sign = np.sign(leg.legval(ends, c.T))
    part, gap = np.nonzero(sign[:, :-1] * sign[:, 1:] <= 0.0)
    if part.size:
        q = c[part].T
        dq = leg.legder(q)
        a, b = ends[gap], ends[gap + 1]
        up = sign[part, gap + 1] > sign[part, gap]
        roots[part, gap] = _newton(
            lambda x: (leg.legval(x, q, tensor=False),
                       leg.legval(x, dq, tensor=False)),
            np.where(up, b, a), np.where(up, a, b), 0.5 * (a + b))
    return roots


def _companions(c):
    """legcompanion(c)[::-1, ::-1] of every row of c, stacked: the same
    scaled Legendre colleague matrix, built in the same operation order,
    so eigvals returns legroots' roots bit for bit."""
    n = c.shape[1] - 1
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    off = np.arange(1, n) * scl[:n - 1] * scl[1:n]
    mat = np.zeros((c.shape[0], n, n))
    i = np.arange(n - 1)
    mat[:, i, i + 1] = off
    mat[:, i + 1, i] = off
    mat[:, :, -1] -= ((c[:, :-1] / c[:, -1:]) * (scl / scl[-1])
                      * (n / (2 * n - 1)))
    return mat[:, ::-1, ::-1]


def _real_roots(c):
    """The real roots legroots finds for the Legendre series in each row
    of c, unsorted, NaN-padded to c.shape[1] - 1 columns: the root step
    of the panels where some gap may hold several roots (_interpolated).

    Each row is trimmed of its trailing zero coefficients, as legroots
    does.  The rows of each trimmed degree d >= 1 share one stacked
    eigvals over their companion matrices (Trefethen, ATAP, Ch. 18); for
    d = 1 that matrix is legroots' closed form -c_0/c_1, and eigvals
    returns it bit for bit while 1e-138 < |c_0/c_1| < 1e138, outside
    which LAPACK rescales the matrix.
    """
    roots = np.full((c.shape[0], c.shape[1] - 1), np.nan)
    deg = np.max((c != 0.0) * np.arange(c.shape[1]), axis=1, initial=0)
    for d in range(1, c.shape[1]):
        at = deg == d
        if not at.any():
            continue
        w = np.linalg.eigvals(_companions(c[at, :d + 1]))
        roots[at, :d] = np.where(np.imag(w) == 0.0, np.real(w), np.nan)
    return roots


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
    sum|w_m| multiplies each term outside the exponential, so scaling the
    coefficients by a power of two scales both terms exactly.
    """
    h = 0.5 / (panels * L)
    w_sum = 2.0 * float(np.abs(coeffs).sum()) - abs(float(coeffs[0]))
    amp = 1.0 + _lebesgue(n)
    x = math.pi * (coeffs.size - 1) * h * (_RHO - 1.0 / _RHO)
    log_rho = np.log(_RHO)
    log_cosh = np.logaddexp(x, -x) - math.log(2.0)
    gauss = (math.log(h * 64.0 / 15.0) - 2 * (n - 1) * log_rho
             - np.log(_RHO ** 2 - 1.0))
    interp = math.log(2.0) - (n - 1) * log_rho - np.log(_RHO - 1.0)
    return (w_sum * float(np.exp((log_cosh + gauss).min())),
            amp * w_sum * (float(np.exp((log_cosh + interp).min())) + _EPS))


@lru_cache(maxsize=None)
def _certificate_maps(n):
    """The widths of the gaps between the ends [-1, x_1, .., x_n, 1] of an
    n-node panel, the map from Legendre coefficients to q' at those ends,
    and the weights of the derivative bounds max|q'| <= sum|c_j| P_j'(1)
    and max|q''| <= sum|c_j| P_j''(1), with P_j'(1) = j(j+1)/2 and
    P_j''(1) = (j-1) j (j+1) (j+2)/8."""
    leg = np.polynomial.legendre
    ends = np.concatenate(([-1.0], _gauss(n)[0], [1.0]))
    der = leg.legvander(ends, max(n - 2, 0)) @ leg.legder(np.eye(n))
    j = np.arange(n, dtype=float)
    bounds = np.stack([j * (j + 1) / 2, (j - 1) * j * (j + 1) * (j + 2) / 8],
                      axis=1)
    maps = (np.diff(ends)[:, None], der, bounds.T)
    for arr in maps:
        arr.setflags(write=False)
    return maps


_CERTIFY_COLUMNS = 1024  # panels per matrix product in _certify


def _by_columns(a, b):
    """a @ b, _CERTIFY_COLUMNS columns of b at a time.  Threaded BLAS
    sometimes stalled on products of a few rows by 8192 columns in a fresh
    process on a 2-core machine (2 of 16 runs of the full-torus log trace
    spent 0.13-0.24 s in _certify instead of 0.04-0.07 s); slices of 1024
    columns did not."""
    out = np.empty((a.shape[0], b.shape[1]))
    for s in range(0, b.shape[1], _CERTIFY_COLUMNS):
        out[:, s:s + _CERTIFY_COLUMNS] = a @ b[:, s:s + _CERTIFY_COLUMNS]
    return out


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
    A panel whose every gap passes test 1 or is monotone (test 2 without
    its sign condition) holds at most one root of q per gap, bracketed by
    the gap's ends (_gap_roots); simple flags those panels.
    q at the nodes is vals itself, and q(1) = sum c_j, q(-1) =
    sum (-1)^j c_j since P_j(+-1) = (+-1)^j.  Test 2 and its slopes q' are
    worked out only on the panels where some gap fails test 1.  The matrix
    products take the panels 1024 at a time (_by_columns).
    Returns (certified, charge, simple), one entry per panel.
    """
    n = vals.shape[0]
    width, to_slopes, bounds = _certificate_maps(n)
    c = _by_columns(_gauss(n)[2], vals)
    at = np.empty((n + 2, vals.shape[1]))  # q at the gap ends
    at[0] = (c * (-1.0) ** np.arange(n)[:, None]).sum(axis=0)
    at[1:-1] = vals
    at[-1] = c.sum(axis=0)
    q = np.abs(at)
    d1, d2 = _by_columns(bounds, np.abs(c))
    zero_lo, zero_hi = ~(q[0] > delta), ~(q[-1] > delta)
    lipschitz = q[:-1] + q[1:]
    lipschitz -= d1 * width
    lipschitz = lipschitz > 2.0 * delta
    lipschitz[0] &= ~zero_lo
    lipschitz[-1] &= ~zero_hi
    certified = lipschitz.all(axis=0)  # no zero end: no charge
    simple = certified.copy()
    charge = np.zeros(vals.shape[1])
    rest = np.flatnonzero(~certified)
    if rest.size:  # test 2, where some gap fails test 1
        t = slice(None) if rest.size == certified.size else rest
        at, lipschitz, zero_lo, zero_hi = (at[:, t], lipschitz[:, t],
                                           zero_lo[t], zero_hi[t])
        pos, neg = at > delta, at < -delta
        agree = (pos[:-1] & pos[1:]) | (neg[:-1] & neg[1:])
        agree[0] |= zero_lo & (pos[1] | neg[1])
        agree[-1] |= zero_hi & (pos[-2] | neg[-2])
        dq = np.abs(_by_columns(to_slopes, c[:, t]))
        slope = np.maximum(dq[:-1], dq[1:])
        slope -= d2[t] * width
        monotone = slope > 0.0
        sure = (lipschitz | (agree & monotone)).all(axis=0)
        certified[t] = sure
        simple[t] = (lipschitz | monotone).all(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = (np.where(zero_lo, 1.0 / slope[0], 0.0)
                   + np.where(zero_hi, 1.0 / slope[-1], 0.0))
            # no delta^2, which overflows for heads above about 1e154
            charge[t] = np.where(sure, 8.0 * h * delta * (delta * inv), 0.0)
    return certified, charge, simple


_COLUMN_BLOCK = 8192  # lattice columns per certificate batch


def _runs(full, L):
    """The lattice columns k mod L of the full cells (_decompose) as runs
    [a, b) of 0..L, merged where they touch; a range of at most L cells
    wraps round L at most once."""
    runs = []
    for f0, f1 in full:
        a = f0 % L
        b = a + f1 - f0
        runs += [(a, L), (0, b - L)] if b > L else [(a, b)]
    return _merge(runs)


def _merge(runs):
    """Runs [a, b) sorted, with those that overlap or touch joined."""
    out = []
    for a, b in sorted(r for r in runs if r[0] < r[1]):
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(b, out[-1][1]))
        else:
            out.append((a, b))
    return out


def _reads(runs, c0, c1):
    """How many full cells read each column c0..c1-1, from _runs."""
    n = c1 - c0
    out = np.zeros(n, dtype=int)
    for a, b in runs:
        out[min(max(a - c0, 0), n):min(max(b - c0, 0), n)] += 1
    return out


def _cells(full, L, cols):
    """The full cells k with k mod L in cols, range by range."""
    parts = [np.empty(0, dtype=int)]
    for f0, f1 in full:
        d = (cols - f0) % L
        parts.append(f0 + d[d < f1 - f0])
    return np.concatenate(parts)


def _full_cells(rows, wts, full, L, panels, nodes, delta):
    """Gauss sums, certificates and edge charges (_certify) of the panels
    of the full cells, reduced a block of lattice columns at a time.

    p is even, so panel panels-1-i of column L-1-k is panel i of column k
    reversed: only the first ceil(panels/2) panels are computed, and panel
    i < panels // 2 of column k also stands for that mirror, while an odd
    count's middle panel is its own mirror and stands only for itself.
    Each panel is computed only on the columns that a full cell reads
    through it, _COLUMN_BLOCK at a time, and weighted by how many full
    cells read it.  Returns the weighted sum of |sum w p| over certified
    panels, their weighted count and edge charge, and the indices
    j = k * panels + i of the uncertified panels of full cells, ascending.
    """
    half = (panels + 1) // 2
    w = wts[:half * nodes].reshape(half, nodes)
    h = 0.5 / (panels * L)
    own = _runs(full, L)
    both = _merge(own + [(L - b, L - a) for a, b in own])
    total = edge = 0.0
    definite = 0
    more = [np.empty(0, dtype=int)]
    for i in range(half):
        mirrored = i < panels // 2
        for a, b in both if mirrored else own:
            for c0 in range(a, b, _COLUMN_BLOCK):
                c1 = min(c0 + _COLUMN_BLOCK, b)
                v = np.stack([row[c0:c1]
                              for row in rows[i * nodes:(i + 1) * nodes]])
                sure, charge, _ = _certify(v, delta, h)
                weight = _reads(own, c0, c1)
                if mirrored:
                    weight += _reads(own, L - c1, L - c0)[::-1]
                total += float(np.abs(w[i] @ v)[sure] @ weight[sure])
                definite += int(weight[sure].sum())
                edge += float(charge @ weight)  # zero on uncertified panels
                bad = c0 + np.flatnonzero(~sure)
                more.append(_cells(full, L, bad) * panels + i)
                if mirrored:
                    more.append(_cells(full, L, L - 1 - bad) * panels
                                + panels - 1 - i)
    return total, definite, edge, np.sort(np.concatenate(more))


def _abs(coeffs, E, L, panels, nodes):
    """The |.| integral over E from one lattice evaluation (_lattice).

    Every panel of the full cells that _certify finds sign-definite
    contributes |sum w p|, reduced a block of columns at a time over the
    columns the full cells read (_full_cells).  The other panels of full
    cells and every panel part of a remnant are integrated from their
    interpolants (_interpolated).  The error estimate is gauss per
    certified full-cell panel, delta per unit measure interpolated and
    the edge charges (_abs_bound, _certify), with a roundoff floor, plus
    2^-1022 for values that round in the subnormal range.
    """
    full, pieces = _decompose(E, L)
    gauss, delta = _abs_bound(coeffs, L, panels, nodes)
    rows, wts = _lattice(coeffs, L, panels, nodes)
    LP = L * panels
    k, lo, hi = np.array(pieces, dtype=float).reshape(-1, 3).T
    j = (k.astype(int)[:, None] * panels + np.arange(panels)).ravel()
    lo = np.maximum(np.repeat(lo, panels), j / LP)
    hi = np.minimum(np.repeat(hi, panels), (j + 1) / LP)
    keep = lo < hi
    j, lo, hi = j[keep], lo[keep], hi[keep]
    total, definite, edge, more = _full_cells(rows, wts, full, L, panels,
                                              nodes, delta)
    j = np.concatenate([j, more])
    lo = np.concatenate([lo, more / LP])
    hi = np.concatenate([hi, (more + 1) / LP])
    if j.size:
        t, e = _interpolated(rows, j, lo, hi, L, panels, nodes, delta)
        total += t
        edge += e
    cut = math.fsum((hi - lo).tolist())
    bound = definite * gauss + cut * delta + edge
    return QuadResult(total, max(bound, 64.0 * _EPS * total) + _TINY,
                      definite + int(j.size))


def _span(full, L):
    """The shortest run start..start+count-1 whose residues mod L hold
    every cell of full: it starts after the widest gap between the
    residues, taken round the torus, so the full torus gives (0, L)."""
    r = np.sort(np.mod(full, L))
    gaps = np.diff(r, prepend=r[-1] - L)  # gaps[i]: residue i less the one before
    i = int(np.argmax(gaps))
    return int(r[i]), L + 1 - int(gaps[i])


def _signed(coeffs, E, L):
    """Signed integral over E, with `panels` counting the pieces.

    A piece of width w centred at c integrates to the cosine polynomial
    with coefficients c_m w sinc(m w) at c: the full cells are its values
    at the cell centres, read by one chirp-z transform over the shortest
    run of cells that holds them (trigsum._centre_run), and each remnant
    is one direct sum.
    Error: 64 eps sum |piece|, plus the run's normwise rounding bound, a
    root mean square per cell (Higham, Accuracy and Stability, 24.1, for
    each of its three FFTs), times sqrt(cells), plus 4 eps sum |terms| per
    direct sum.
    """
    ranges, pieces = _decompose(E, L)
    full = np.concatenate([np.arange(*r) for r in ranges])
    m = np.arange(coeffs.size)
    parts = [np.empty(0)]
    rounding = 0.0
    if full.size:
        start, count = _span(full, L)
        run, rms = _centre_run(coeffs * np.sinc(m / L) / L, L, start, count)
        parts.append(run[np.mod(full - start, L)])
        rounding = math.sqrt(full.size) * rms
    for _, lo, hi in pieces:
        w = hi - lo
        c = coeffs * (w * np.sinc(m * w))
        parts.append([cosine_poly_points(c, 0.5 * (lo + hi))])
        rounding += 4.0 * _EPS * (2.0 * float(np.abs(c).sum()) - abs(float(c[0])))
    vals = np.concatenate(parts)
    err = 64.0 * _EPS * float(np.abs(vals).sum()) + rounding + _TINY
    return QuadResult(float(vals.sum()), float(err), int(vals.size))


def integrate_cosine_poly(coeffs, E, cell_count, panels_per_cell=2,
                          nodes_per_panel=16, absolute=False):
    """Integrate c_0 + sum 2 c_m cos(2 pi m t) (or its |.|) over E.

    cell_count is the number L of cells [k/L, (k+1)/L) the pieces align
    to; any L gives a valid integral and bar.  The kernel's zero spacing
    is the natural one: 2N+1 for a partial sum of order N (the sign cells
    of D_N, which integrate_signed keeps), j+1 for the order-j
    nonnegative kernel.  For |S_N|, integrate_abs_partial_sum takes 2N+1
    only when S_N = a_0 D_N and a 5-smooth L otherwise.  The |.|
    integral evaluates the lattice once, with panels_per_cell Gauss
    panels of nodes_per_panel nodes per cell; its error estimate is an a
    priori interpolation, quadrature and rounding bound (_abs_bound,
    _certify) with a roundoff floor of 64 eps times the value, plus 2^-1022
    for subnormal results.  The signed
    integral uses no panels, so panels_per_cell and nodes_per_panel do not
    affect it, and its estimate is a rounding bound: 64 eps per piece, the
    chirp-z run's normwise bound for its three FFTs (_signed) and 4 eps
    per term of each remnant's direct sum.  nodes_per_panel must
    lie in 2..64.  Lattice values, an integral or a bar that is not finite
    (coefficients whose arithmetic overflows float64) raise ValueError.
    """
    L = int(cell_count)
    if L < 1:
        raise ValueError("cell_count must be >= 1")
    panels_per_cell = int(panels_per_cell)
    nodes_per_panel = int(nodes_per_panel)
    if panels_per_cell < 1 or not 2 <= nodes_per_panel <= 64:
        # checked before _gauss, whose rule solves an n x n eigenproblem
        raise ValueError("need panels_per_cell >= 1 and "
                         "2 <= nodes_per_panel <= 64")
    coeffs = np.asarray(coeffs, dtype=float)
    if E.is_empty:
        return QuadResult(0.0, 0.0, 0)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        if absolute:
            q = _abs(coeffs, E, L, panels_per_cell, nodes_per_panel)
        else:
            q = _signed(coeffs, E, L)
    if not (math.isfinite(q.value) and math.isfinite(q.error_estimate)):
        raise ValueError("the integral over E or its error bar is not "
                         "finite: the coefficients overflow float64")
    return q


def integrate_abs_partial_sum(seq, N, E, panels_per_cell=2, nodes_per_panel=16):
    """integral over E of |S_N(f, t)| dt on a lattice picked for the FFT.

    When a_0 = a_1 = ... = a_N, S_N = a_0 D_N, whose zeros are the edges of
    the cells [k/L, (k+1)/L) at L = 2N+1: there the panels certify with
    the zeros on their ends, so the call keeps that lattice.  The zeros of
    any other S_N fall inside cells on either lattice, and the call takes
    L = _smooth(2N+1), the least 2^a 3^b 5^c >= 2N+1: an FFT length with
    small factors, where 2N+1 is often a Bluestein length (32769 =
    3^2 11 331 at N = 16384).  The rule reads only the coefficients, before
    any evaluation, and scaling them leaves it unchanged.
    """
    N = check_index(N, "N")
    a = seq.values(N + 1)
    L = 2 * N + 1 if np.all(a == a[0]) else _smooth(2 * N + 1)
    return integrate_cosine_poly(a, E, L, panels_per_cell, nodes_per_panel,
                                 absolute=True)


def integrate_signed(seq, N, E):
    """integral over E of S_N(f, t) dt (no absolute value), to rounding."""
    N = check_index(N, "N")
    return integrate_cosine_poly(seq.values(N + 1), E, 2 * N + 1)


# -- residual engine ----------------------------------------------------


def _grid_trapezoid(y, E, G, stride):
    """Trapezoid over the grid points of E at the given stride.

    y holds an even function on the half grid k = 0..G//2: full-grid index
    i reads y[i] for i <= G//2 and y[G - i] above, and index G (t = +1/2)
    reads y[0].  Returns (integral, sliver mass, samples); slivers are the
    sub-spacing leftovers at interval ends, included in the integral as
    rectangles and reported so the caller can count them toward the
    error.  Each interval is read as a strided view of y, reversed above
    G//2; only an interval crossing G//2 (t = 0) needs a copy, to join
    the two.
    """
    h = stride / G
    top = G // 2
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
            i = int(round(0.5 * (pos_lo + pos_hi))) % G
            patch = (hi - lo) * float(y[min(i, G - i)])
            total += patch
            sliver += abs(patch)
            continue
        i_up = max(i_lo, (top // stride + 1) * stride)  # first index above G//2
        parts = []
        if i_lo <= top:
            parts.append(y[i_lo:min(i_hi, top) + 1:stride])
        if i_up <= i_hi:
            parts.append(y[G - i_hi:G - i_up + 1:stride][::-1])
        yy = parts[0] if len(parts) == 1 else np.concatenate(parts)
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

    Splits f at order J = round(1/(2 eta)), at least 2: the kept part is
    below sum (j+1)^2 d2_j pointwise, the dropped kernels contribute at
    most their full-torus mass (d2_j >= 0 and F_j >= 0, since the
    constructor enforces convexity), and |S_N| is below its coefficient sum;
    everything is then integrated over the window of width 2 eta.  A
    constant tail's second differences vanish beyond its head, so its kept
    sum stops there however small eta is.  A log tail keeps J + 1 terms,
    and more than 2^25 of them (eta below about 1.5e-8) raise ValueError.
    The kept sum is taken a chunk of 2^20 second differences at a time
    (ConvexSequence._second_difference_chunks), so its arrays stay a few
    MB whatever K; up to one chunk it is a single dot product.
    """
    eta = float(eta)
    if eta <= 0.0:
        return 0.0
    J = max(2, round(min(0.5 / eta, 2.0 ** 62)))  # 0.5 / 5e-324 is inf
    K = min(J, len(seq.head)) if seq.tail_rule == "constant" else J
    if K >= 2 ** 25:
        raise ValueError(f"eta = {eta!r} is too small for the origin window "
                         f"bound of a {seq.tail_rule} tail: it would sum "
                         f"{K + 1} second differences, more than 2^25")
    f_peak = 0.0
    for lo, d2 in seq._second_difference_chunks(K + 1):
        j = np.arange(lo, lo + d2.size, dtype=float)
        f_peak += float(((j + 1.0) ** 2) @ d2)
        del d2, j  # before the next chunk is built
    dropped = seq.weighted_tail_beyond(J)
    a = seq.values(int(N) + 1)
    s_peak = float(a[0] + 2.0 * a[1:].sum())
    return 2.0 * eta * (f_peak + s_peak) + dropped


def _residual_sweep(seq, Ns, E, j_max, grid_size):
    """One ResidualResult per order of Ns, all over the set E.

    Every order is checked before any work.  f's half grid is built once,
    and its tail bounds are integrated over E and dropped before the first
    order; each order then runs on f and its own half grid.
    """
    G = int(grid_size)
    orders = []
    for N in Ns:
        N = check_index(N, "N")
        if G < 16:
            raise ValueError("grid_size must be >= 16")
        if 2 * N >= G:
            raise ValueError(f"grid_size {G} is below Nyquist for order {N}: "
                             "it must exceed 2 N")
        orders.append(N)
    if E.is_empty or not orders:
        return [ResidualResult(0.0, 0.0, 0, (0.0, 0.0), 0.0)] * len(orders)
    d0 = E.distance_from_zero()
    unbounded_at_zero = not math.isfinite(seq.squared_weighted_tail_beyond(j_max))
    if unbounded_at_zero:
        if d0 <= 0.0:
            raise ValueError("set must exclude a window around 0: the "
                             "reference function's tail bound diverges there")
        if d0 < 1.0 / G:
            raise ValueError("origin window is narrower than the grid spacing")
    window = (-d0, d0) if d0 > 0.0 else (0.0, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        f_vals, tails = reference_function_grid(seq, G, j_max)
        if not np.isfinite(f_vals).all():
            raise ValueError("reference function f is not finite on the grid: "
                             "the coefficients overflow float64")
        tail_int = _grid_trapezoid(tails, E, G, 1)[0]
        del tails
    results = []
    for N in orders:
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            r = partial_sum_grid(seq, N, G)
            np.subtract(f_vals, r, out=r)
            np.abs(r, out=r)
            i_fine, sliver, used = _grid_trapezoid(r, E, G, 1)
            i_coarse, _, _ = _grid_trapezoid(r, E, G, 2)
            del r  # before the next order's grid
            err = (abs(i_fine - i_coarse) + tail_int + sliver
                   + 64.0 * _EPS * abs(i_fine))
        if not (math.isfinite(i_fine) and math.isfinite(err)):
            raise ValueError(f"|f - S_N| is not finite on the grid at N = {N}: "
                             "the coefficients overflow float64")
        bound = origin_window_bound(seq, N, d0) if d0 > 0.0 else 0.0
        results.append(ResidualResult(float(i_fine), float(err), int(used),
                                      window, float(bound)))
    return results


def residual_l1(seq, N, E, j_max=100000, grid_size=2 ** 16):
    """integral over E of |f - S_N| dt on a uniform grid, with tail bounds.

    E must keep a positive distance >= one grid spacing from the origin
    whenever the reference tail diverges there (both log families); the
    bound on the mass excluded by that window is reported alongside.  The
    grid must resolve S_N: grid_size > 2 N, else ValueError.  This is the
    one-order sweep of norm_trace(kind="residual"), so each call builds f.
    The half grid k <= G//2 holds everything, h = 8 (G/2 + 1) bytes per
    array.  Building f peaks at about 2 h plus one lattice block of
    trigsum's byte budget, or 3 h at its tail bounds, whatever j_max,
    since reference_function_grid takes its terms a chunk at a time and
    the lattice blocks go straight into the half grid; the bounds are
    integrated over E and dropped, and an order holds f, its own half
    grid and one block.  A reference or residual that is not finite
    (coefficients whose grid arithmetic overflows float64) raises
    ValueError.
    """
    return _residual_sweep(seq, [N], E, j_max, grid_size)[0]


def norm_trace(seq, Ns, E, kind="abs", panels_per_cell=2, nodes_per_panel=16,
               j_max=100000, grid_size=2 ** 16):
    """The value and error estimate of one QuadResult per N, as a NormTrace.

    kind "abs" integrates |S_N| with the cell-aligned engine; kind
    "residual" integrates |f - S_N| with the grid engine (E must already
    exclude the origin window), building f once for the whole trace.
    """
    Ns = [int(n) for n in Ns]
    if any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ValueError("Ns must be strictly increasing")
    if kind == "abs":
        qs = [integrate_abs_partial_sum(seq, N, E, panels_per_cell,
                                        nodes_per_panel) for N in Ns]
    elif kind == "residual":
        qs = _residual_sweep(seq, Ns, E, j_max, grid_size)
    else:
        raise ValueError(f"unknown trace kind {kind!r}")
    return NormTrace(Ns, [q.value for q in qs], [q.error_estimate for q in qs])
