import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from torusl1.diagnostics import TAIL_WINDOW, analyze_trace, boundedness_report
from torusl1.quadrature import NormTrace


def _trace(values, errors=None):
    errors = [0.0] * len(values) if errors is None else errors
    return NormTrace([2**(k + 2) for k in range(len(values))], values, errors)


def test_constant_trace_converges():
    v = analyze_trace(_trace([1.7] * 8))
    assert v.verdict == "converging"
    assert v.cauchy_gap == 0.0
    assert v.limit_estimate == pytest.approx(1.7)
    assert v.uncertainty == 0.0


def test_settling_trace_converges():
    values = [2.0 + 0.5**k for k in range(8)]
    v = analyze_trace(_trace(values))
    assert v.verdict == "converging"
    assert v.limit_estimate == pytest.approx(2.0, abs=0.05)


def test_alternating_trace_is_bounded_nonconverging():
    v = analyze_trace(_trace([1.0, 2.0] * 4))
    assert v.verdict == "bounded-nonconverging-signature"
    assert v.cauchy_gap == pytest.approx(1.0)


def test_logarithmic_growth_is_unbounded_signature():
    values = [math.log(2.0**k) for k in range(4, 13)]
    v = analyze_trace(_trace(values))
    assert v.verdict == "unbounded-signature"
    means = v.window_means
    assert all(b >= a for a, b in zip(means, means[1:]))


def test_error_dominated_trace_is_inconclusive():
    values = [1.0, 1.004, 0.998, 1.003, 0.997, 1.004, 0.996]
    v = analyze_trace(_trace(values, [0.1] * len(values)))
    assert v.verdict == "inconclusive"
    assert v.uncertainty > v.cauchy_gap


# `torusl1 norms --sequence log2 --kind abs --n 16..1024x2` from two versions
# of the cell engine: every value equals a_0 to within 1-3 ulp, far inside
# the 6.5e-14 error bars.  With raw gaps the first trace reads inconclusive
# and the second converging, though they differ only in rounding.
_LOG2_ERR = [6.5185702789511559e-14, 6.5185702789511547e-14,
             6.5185702789511534e-14, 6.5185702789511559e-14,
             6.5185702789511559e-14, 6.5185702789511534e-14,
             6.5185702789511547e-14]
_LOG2_TRACES = [
    [4.5870360436363775, 4.5870360436363766, 4.5870360436363757,
     4.5870360436363775, 4.5870360436363775, 4.5870360436363757,
     4.5870360436363766],
    [4.5870360436363784, 4.5870360436363784, 4.5870360436363757,
     4.5870360436363766, 4.5870360436363775, 4.5870360436363766,
     4.5870360436363766],
]


@pytest.mark.parametrize("values", _LOG2_TRACES)
def test_gaps_within_error_bars_do_not_decide(values):
    v = analyze_trace(_trace(values, _LOG2_ERR))
    assert v.verdict == "converging"
    # the raw gaps are still reported
    gaps = [max(values[i:i + 4]) - min(values[i:i + 4]) for i in range(4)]
    assert list(v.window_gaps) == gaps
    assert v.cauchy_gap == gaps[-1] > 0.0
    assert v.uncertainty == gaps[-1] + max(_LOG2_ERR[-4:])


def test_slow_logarithmic_decay_is_not_called_converging():
    # 1/log decay moves too slowly for the gap test but drifts too much
    # for the bounded label at this horizon
    values = [2.6 / math.log(2.0**k) for k in range(4, 13)]
    v = analyze_trace(_trace(values))
    assert v.verdict in {"inconclusive", "bounded-nonconverging-signature"}
    assert v.verdict != "converging"


def test_limit_and_gap_use_last_window_only():
    values = [50.0, -3.0, 7.0, 1.0, 1.01, 0.99, 1.005]
    v = analyze_trace(_trace(values))
    last = values[-4:]
    assert v.limit_estimate == pytest.approx(np.mean(last), rel=1e-12)
    assert v.cauchy_gap == pytest.approx(max(last) - min(last), rel=1e-12)


@given(st.permutations(range(4)))
def test_tail_stats_invariant_under_window_permutation(perm):
    head = [9.0, 5.0, 3.0]
    tail = [1.0, 1.2, 0.9, 1.1]
    shuffled = head + [tail[i] for i in perm]
    a = analyze_trace(_trace(head + tail))
    b = analyze_trace(_trace(shuffled))
    assert a.cauchy_gap == b.cauchy_gap
    # summation order inside the window may differ in the last ulp
    assert a.limit_estimate == pytest.approx(b.limit_estimate, rel=1e-12)
    assert a.uncertainty == pytest.approx(b.uncertainty, rel=1e-12)


def test_boundedness_report():
    sup, at = boundedness_report(_trace([1.0, -7.5, 3.0, 2.0, 1.0, 1.0]))
    assert sup == 7.5
    assert at == 8 and type(at) is int  # second entry, N = 2**3


def test_validation():
    # a verdict needs TAIL_WINDOW + 2 = 6 entries
    assert TAIL_WINDOW == 4
    analyze_trace(_trace([1.0] * 6))
    with pytest.raises(ValueError, match="TAIL_WINDOW"):
        analyze_trace(_trace([1.0] * 5))
