"""Finite unions of half-open intervals on the torus [-1/2, 1/2).

The computational stand-in for a measurable set: pairwise disjoint sorted
intervals [lo, hi).  Sets crossing the seam at +-1/2 are expressed as two
pieces.  Parsing accepts the CLI grammar "lo,hi;lo,hi".
"""

from dataclasses import dataclass

__all__ = ["IntervalUnion"]


@dataclass(frozen=True)
class IntervalUnion:
    intervals: tuple

    def __post_init__(self):
        cleaned = []
        prev_hi = None
        for pair in self.intervals:
            lo, hi = float(pair[0]), float(pair[1])
            if not (-0.5 <= lo < hi <= 0.5):
                raise ValueError(f"interval [{lo}, {hi}) not inside [-0.5, 0.5]")
            if prev_hi is not None and lo < prev_hi:
                raise ValueError("intervals must be sorted and disjoint")
            cleaned.append((lo, hi))
            prev_hi = hi
        object.__setattr__(self, "intervals", tuple(cleaned))

    @classmethod
    def full_torus(cls):
        return cls(((-0.5, 0.5),))

    @classmethod
    def empty(cls):
        return cls(())

    @classmethod
    def parse(cls, spec):
        """Parse "lo,hi;lo,hi"; whitespace ignored; empty string -> empty set."""
        spec = spec.strip()
        if not spec:
            return cls.empty()
        pairs = []
        for chunk in spec.split(";"):
            parts = chunk.split(",")
            if len(parts) != 2:
                raise ValueError(f"bad interval spec {chunk!r}, want 'lo,hi'")
            pairs.append((float(parts[0]), float(parts[1])))
        pairs.sort()
        return cls(tuple(pairs))

    @property
    def is_empty(self):
        return not self.intervals

    def measure(self):
        return sum(hi - lo for lo, hi in self.intervals)

    def distance_from_zero(self):
        """inf_{t in E} |t|; zero when the set meets the origin."""
        if self.is_empty:
            return float("inf")
        best = float("inf")
        for lo, hi in self.intervals:
            if lo <= 0.0 < hi:
                return 0.0
            best = min(best, abs(lo), abs(hi))
        return best

    def minus_window(self, eta):
        """Remove the symmetric window (-eta, eta) around the origin."""
        eta = float(eta)
        if eta <= 0.0:
            return self
        out = []
        for lo, hi in self.intervals:
            if hi <= -eta or lo >= eta:
                out.append((lo, hi))
                continue
            if lo < -eta:
                out.append((lo, -eta))
            if hi > eta:
                out.append((eta, hi))
        return IntervalUnion(tuple(out))
