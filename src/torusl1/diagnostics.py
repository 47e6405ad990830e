"""Finite-trace convergence diagnostics.

A trace is a NormTrace: short columns N, value and error_estimate,
with increasing N.  The verdict machinery slides a window of TAIL_WINDOW
entries over the values and compares the spread inside the last window
against the spread inside the first and against the drift of the window
means.
Verdicts are heuristic labels for desk checks, not proofs; anything the
data cannot support at that window size comes back "inconclusive".
"""

from dataclasses import dataclass

__all__ = ["ConvergenceVerdict", "analyze_trace"]

# entries per window; a trace needs TAIL_WINDOW + 2 entries for a verdict
TAIL_WINDOW = 4


@dataclass(frozen=True)
class ConvergenceVerdict:
    verdict: str
    cauchy_gap: float
    tail_window: int
    limit_estimate: float
    uncertainty: float
    window_gaps: tuple
    window_means: tuple


def _windows(values, w):
    # trailing-aligned windows: last one ends at the final entry
    count = len(values) - w + 1
    return [values[i:i + w] for i in range(count)]


def analyze_trace(trace):
    """Label a trace converging / bounded-nonconverging / unbounded / unknown.

    A window gap (max - min of its values) no larger than the largest
    error_estimate in that window is unresolved, and the rules read it as
    0.  So values that agree to within their error bars get one verdict
    whatever their rounding.  `cauchy_gap` and `window_gaps` still report
    the raw gaps.

    Rules, in order:
      1. last window's gap, or its largest error_estimate when that is
         larger, <= 5% of the limit, and the gap no wider than 3/4 of the
         first window's gap -> "converging"
      2. quadrature error dominating the gap -> "inconclusive"
      3. window means nondecreasing and total drift exceeding the last
         gap -> "unbounded-signature"
      4. drift small next to the window gaps -> "bounded-nonconverging-signature"
      5. otherwise "inconclusive"
    """
    w = TAIL_WINDOW
    values, errors = trace.value, trace.error_estimate
    if len(values) < w + 2:
        raise ValueError(f"need at least TAIL_WINDOW + 2 = {w + 2} entries")

    wins = _windows(values, w)
    gaps = tuple(float(win.max() - win.min()) for win in wins)
    means = tuple(float(win.mean()) for win in wins)
    last = values[-w:]
    limit = float(last.mean())
    err_first = float(errors[:w].max())
    err_last = float(errors[-w:].max())
    uncertainty = gaps[-1] + err_last
    # unresolved gaps, within their window's error bars, compare as 0
    g_first = gaps[0] if gaps[0] > err_first else 0.0
    g_last = gaps[-1] if gaps[-1] > err_last else 0.0
    drift = means[-1] - means[0]
    scale = max(abs(limit), 1e-300)

    if (max(g_last, err_last) <= 0.05 * scale
            and (g_last <= 0.75 * g_first or g_first == g_last == 0.0)):
        verdict = "converging"
    elif err_last > g_last:
        verdict = "inconclusive"
    elif all(b >= a for a, b in zip(means, means[1:])) and drift > g_last:
        verdict = "unbounded-signature"
    elif abs(drift) <= 0.5 * max(g_first, g_last):
        verdict = "bounded-nonconverging-signature"
    else:
        verdict = "inconclusive"
    return ConvergenceVerdict(verdict=verdict,
                              cauchy_gap=gaps[-1],
                              tail_window=w,
                              limit_estimate=limit,
                              uncertainty=float(uncertainty),
                              window_gaps=gaps,
                              window_means=means)

