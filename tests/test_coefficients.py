import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from torusl1 import ConvexSequence


def test_log_family_head_and_tail_values():
    seq = ConvexSequence.log_reciprocal()
    assert seq.value(2) == 1.0 / math.log(2.0)
    assert seq.value(3) == 1.0 / math.log(3.0)
    # head extrapolated so the second differences vanish at j = 0, 1
    assert np.all(np.abs(seq.second_differences(2)) < 1e-15)
    assert seq.value(0) == pytest.approx(2.5076066694132155, rel=1e-15)
    assert seq.value(1) == pytest.approx(1.9751508551510895, rel=1e-15)


def test_log_squared_family_values():
    seq = ConvexSequence.log_squared_reciprocal()
    assert seq.value(5) == 1.0 / math.log(5.0) ** 2
    assert abs(seq.second_differences(1)[0]) < 1e-15
    assert seq.tail_limit() == 0.0


def test_values_vector_matches_scalar():
    for seq in (ConvexSequence.log_reciprocal(),
                ConvexSequence.log_squared_reciprocal(),
                ConvexSequence((4.0, 3.0, 2.0, 1.0, 1.0))):
        v = seq.values(40)
        assert v.shape == (40,)
        for n in (0, 1, 2, 3, 17, 39):
            assert v[n] == seq.value(n)


def test_value_is_values_bit_for_bit():
    # the first indices where math.log and numpy's array log round apart;
    # value and values evaluate one tail rule
    for seq, ns in ((ConvexSequence.log_reciprocal(), (9170, 19143, 94869)),
                    (ConvexSequence.log_squared_reciprocal(), (733, 1484, 2138))):
        a = seq.values(max(ns) + 3)
        for n in ns:
            assert seq.value(n) == a[n]
            assert seq.first_difference(n) == a[n] - a[n + 1]


def test_both_families_are_convex_positive_null():
    # the constructor checks the head and two tail terms; the float values
    # of the tail rules neither rise nor bend beyond 8 eps a_j to j = 2e4
    for seq in (ConvexSequence.log_reciprocal(),
                ConvexSequence.log_squared_reciprocal()):
        a = seq.values(20003)
        d = a[:-1] - a[1:]
        assert not np.any(-d * 2.0 ** 49 > a[:-1])
        assert not np.any((d[1:] - d[:-1]) * 2.0 ** 49 > a[:-2])
        assert a.min() > 0.0
        assert seq.values(50000)[-1] < seq.value(10)


def test_head_must_be_normal_floats():
    # subnormal heads lose relative precision that no error bar counts:
    # every head value must be finite and at least 2^-1022
    tiny = 2.0 ** -1022
    assert ConvexSequence((2.0 * tiny, tiny)).head == (2.0 * tiny, tiny)
    assert ConvexSequence((1e307, 5e306)).value(3) == 5e306
    for head in ((1e-310, 5e-311), (1.0, tiny / 2.0), (1.0, 0.0),
                 (1.0, -1.0), (1.0, math.inf), (math.nan,)):
        with pytest.raises(ValueError, match=r"at least 2\^-1022"):
            ConvexSequence(head)


def test_constructor_checks_convexity_scale_free():
    # every sequence is checked when built, by a rule relative to the
    # sequence, so a head and its scalings by 2^+-600 and 1e+-20 get one
    # verdict
    heads = {(3.0, 2.0, 1.5, 1.2, 1.0): True,
             (1.0, 0.9, 0.8, 0.7): True,  # linear up to decimal rounding
             (1.0, 3.0, 1.0, 1.0): False,
             (3.0, 2.0, 1.5, 1.4, 1.0): False,
             (1.0, 1.0, 1.0 - 1e-6): False,  # bends 1e-6 at a_0 = 1
             (1.0, 1.0, 1.0, 1.0, 3.0): False}  # rises at its end
    for head, convex in heads.items():
        for scale in (1.0, 2.0 ** 600, 2.0 ** -600, 1e20, 1e-20):
            scaled = tuple(v * scale for v in head)
            if convex:
                assert ConvexSequence(scaled).head == scaled
            else:
                with pytest.raises(ValueError, match="not nonincreasing and convex"):
                    ConvexSequence(scaled)
    # the first index of the three that fail is named
    with pytest.raises(ValueError, match=r"^a_3, a_4, a_5 are not"):
        ConvexSequence((1.0, 1.0, 1.0, 1.0, 3.0))


def test_second_differences_match_brute_force():
    seq = ConvexSequence.log_reciprocal()
    a = seq.values(203)
    d2 = seq.second_differences(200)
    brute = a[:-2] + a[2:] - 2.0 * a[1:-1]
    assert np.allclose(d2, brute[:200], rtol=0, atol=1e-18)


def test_second_differences_by_chunks_are_the_whole_formula():
    # the tail rule runs in place and the differences go 2^20 at a time;
    # the bits are those of the closed forms and of the whole-array
    # formula, across three chunks and the head
    n = np.arange(2, 1000, dtype=float)
    assert np.array_equal(ConvexSequence.log_reciprocal().values(1000)[2:],
                          1.0 / np.log(n))
    assert np.array_equal(
        ConvexSequence.log_squared_reciprocal().values(1000)[2:],
        1.0 / np.log(n) ** 2)
    count = 2 ** 21 + 3
    for seq in (ConvexSequence.log_reciprocal(),
                ConvexSequence.log_squared_reciprocal(),
                ConvexSequence((5.0, 3.0, 2.0, 2.0))):
        a = seq.values(count + 2)
        whole = a[:-2] + a[2:] - 2.0 * a[1:-1]
        chunks = list(seq._second_difference_chunks(count))
        assert [lo for lo, _ in chunks] == [0, 2 ** 20, 2 ** 21]
        assert np.array_equal(np.concatenate([d for _, d in chunks]), whole)
        assert np.array_equal(seq.second_differences(count), whole)


def test_second_differences_working_set():
    # the log tail with its index array, log and reciprocal, then the copy
    # in values and the difference temporaries peaked at 4 times the
    # output; in place and a chunk at a time it is at most twice
    seq = ConvexSequence.log_reciprocal()
    tracemalloc.start()
    try:
        d2 = seq.second_differences(2 ** 22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * d2.nbytes


def test_weighted_tail_telescopes_against_partial_sums():
    # difference of two tails must equal the finite block sum in between
    for seq in (ConvexSequence.log_reciprocal(),
                ConvexSequence.log_squared_reciprocal(),
                ConvexSequence((5.0, 3.0, 2.0, 2.0))):
        J, K = 10, 800
        d2 = seq.second_differences(K + 1)
        j = np.arange(J + 1, K + 1)
        block = float(((j + 1) * d2[J + 1:]).sum())
        gap = seq.weighted_tail_beyond(J) - seq.weighted_tail_beyond(K)
        assert gap == pytest.approx(block, rel=1e-10, abs=1e-12)
        assert seq.weighted_tail_beyond(J) >= 0.0


def test_weighted_tail_constant_sequence_exact():
    seq = ConvexSequence((4.0, 3.0, 2.0, 1.0, 1.0))
    # the only nonzero second difference is the slope kink at j = 2
    assert seq.weighted_tail_beyond(1) == pytest.approx(3.0, abs=1e-14)
    assert seq.weighted_tail_beyond(2) == 0.0
    assert seq.tail_limit() == 1.0


def test_squared_weighted_tail_divergence_marker():
    assert ConvexSequence.log_reciprocal().squared_weighted_tail_beyond(100) == math.inf
    assert ConvexSequence.log_squared_reciprocal().squared_weighted_tail_beyond(100) == math.inf
    seq = ConvexSequence((4.0, 3.0, 2.0, 1.0, 1.0))
    assert seq.squared_weighted_tail_beyond(1) == pytest.approx(9.0, abs=1e-14)
    assert seq.squared_weighted_tail_beyond(10) == 0.0


def test_from_file_round_trip(tmp_path):
    p = tmp_path / "seq.txt"
    p.write_text("# comment line\n4.0\n3.0\n2.0\n1.5  # inline comment\nconstant\n")
    seq = ConvexSequence.from_file(p)
    assert seq.head == (4.0, 3.0, 2.0, 1.5)
    assert seq.tail_rule == "constant"
    assert seq.value(100) == 1.5


def test_from_file_log_rule(tmp_path):
    p = tmp_path / "seq.txt"
    p.write_text("3.0\n2.0\nlog_reciprocal\n")
    seq = ConvexSequence.from_file(p)
    assert seq.value(5) == 1.0 / math.log(5.0)


def test_from_file_refuses_heads_that_are_not_convex(tmp_path):
    p = tmp_path / "seq.txt"

    def load(text):
        p.write_text(text)
        return ConvexSequence.from_file(p)

    # increasing, concave inside the head, a log tail above the head, and
    # a head that bends concave into its log tail
    for text in ("1\n3\n1\n1\n", "3\n2\n1.5\n1.4\n1\n",
                 "3\n1\nlog_reciprocal\n", "3\n2.9\nlog_reciprocal\n"):
        with pytest.raises(ValueError, match="not nonincreasing and convex"):
            load(text)
        # the constructor refuses the same sequence, without a path
        with pytest.raises(ValueError, match="^a_"):
            ConvexSequence(*_parse(text))
    with pytest.raises(ValueError) as exc:
        load("1\n3\n1\n1\n")
    assert str(exc.value) == (f"sequence file {p}: a_0, a_1, a_2 are not "
                              "nonincreasing and convex")
    # the shipped files, an arithmetic progression whose decimal
    # differences round apart, and the log families written out
    fams = (ConvexSequence.log_reciprocal(), ConvexSequence.log_squared_reciprocal())
    texts = ["1\n", "3\n2\n1.5\n1.2\n1\nconstant\n",
             "3072\n2048\n1536\n1228.8\n1024\nconstant\n",
             "3\n2\nlog_reciprocal\n", "1\n0.9\n0.8\n0.7\n"]
    texts += ["".join(f"{v!r}\n" for v in f.head) + f.tail_rule + "\n"
              for f in fams]
    for text in texts:
        assert load(text).head == _parse(text)[0]
    # a rise of 8 eps a_j = 2^-49 is rounding, twice that is not
    edge = [f"1\n{1.0 + 2.0 ** -49!r}\n", f"1\n{1.0 + 2.0 ** -48!r}\n"]
    load(edge[0])
    with pytest.raises(ValueError):
        load(edge[1])
    # scaling a constant-tail file by 2^k keeps its verdict
    for text in (texts[1], texts[2], texts[4], "1\n3\n1\n1\n",
                 "3\n2\n1.5\n1.4\n1\n", *edge):
        verdicts = set()
        for k in (0, -1000, -7, 600, 1000):
            try:
                load("".join(f"{v * 2.0 ** k!r}\n" for v in _parse(text)[0]))
                verdicts.add(True)
            except ValueError:
                verdicts.add(False)
        assert len(verdicts) == 1, text


def test_from_file_tail_keyword_comes_last(tmp_path):
    # a keyword before the last value, or two keywords, is refused with the
    # path, not read as a tail rule with the values after it in the head
    p = tmp_path / "seq.txt"
    for text, rule in (("3\n2\nconstant\n1.5\n1.2\n", "constant"),
                       ("3\nlog_reciprocal\n2\nconstant\n", "log_reciprocal"),
                       ("3\n2\nconstant\nconstant\n", "constant")):
        p.write_text(text)
        with pytest.raises(ValueError) as exc:
            ConvexSequence.from_file(p)
        assert str(exc.value) == (f"sequence file {p}: tail keyword "
                                  f"{rule!r} must be the last entry")
    # comments and blank lines after the keyword are not entries
    p.write_text("3\n2\nlog_reciprocal  # tail\n\n# end\n")
    assert ConvexSequence.from_file(p).tail_rule == "log_reciprocal"


def _parse(text):
    """(head, tail rule) of a sequence file's text."""
    lines = text.split()
    rule = lines.pop() if lines[-1] in ("constant", "log_reciprocal",
                                        "log_squared_reciprocal") else "constant"
    return tuple(float(v) for v in lines), rule


def test_construction_validation():
    with pytest.raises(ValueError):
        ConvexSequence((1.0, -2.0))
    with pytest.raises(ValueError):
        ConvexSequence((1.0, float("nan")))
    with pytest.raises(ValueError):
        ConvexSequence((1.0, 0.5), tail_rule="bogus")
    with pytest.raises(ValueError):
        ConvexSequence((), tail_rule="constant")
    with pytest.raises(ValueError, match="not nonincreasing and convex"):
        ConvexSequence((2.0, 1.0, 3.0))  # unsorted


@given(st.floats(0.1, 10.0), st.lists(st.floats(0.0, 10.0), min_size=1, max_size=7))
def test_constant_tail_sequenergy_is_eventually_flat(last, steps):
    # a convex head: its steps a_j - a_{j+1} shrink toward the last value
    head = [last]
    for d in sorted(steps):
        head.insert(0, head[0] + d)
    seq = ConvexSequence(head, tail_rule="constant")
    tail = seq.values(len(head) + 20)[len(head):]
    assert np.all(tail == head[-1])
    assert seq.tail_limit() == head[-1]


@given(st.integers(2, 400))
def test_log_rule_values_agree_beyond_head(n):
    seq = ConvexSequence.log_reciprocal()
    if n >= len(seq.head):
        assert seq.value(n) == 1.0 / math.log(float(n))
