"""Exact piecewise linear functions of one variable.

Breakpoints are (t, value) pairs with strictly increasing rational t.  A
function may extend to +infinity past its last breakpoint with a declared
tail slope.  The convex/concave shape claim is verified from the slopes
at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

@dataclass(frozen=True)
class PiecewiseLinearFunction:
    breakpoints: Tuple[Tuple[Fraction, Fraction], ...]
    tail_slope: Optional[Fraction] = None  # set iff domain is [t0, +inf)
    shape: str = "none"  # convex | concave | none

    def __post_init__(self):
        bps = tuple((Fraction(t), Fraction(v)) for t, v in self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        if self.tail_slope is not None:
            object.__setattr__(self, "tail_slope", Fraction(self.tail_slope))
        if not bps:
            raise ValueError("a piecewise linear function needs a breakpoint")
        for (t0, _), (t1, _) in zip(bps, bps[1:]):
            if not t0 < t1:
                raise ValueError("breakpoint abscissae must strictly increase")
        if self.shape not in ("convex", "concave", "none"):
            raise ValueError(f"bad shape {self.shape!r}")
        if self.shape != "none":
            slopes = self.slopes()
            if self.shape == "convex":
                ok = all(a <= b for a, b in zip(slopes, slopes[1:]))
            else:
                ok = all(a >= b for a, b in zip(slopes, slopes[1:]))
            if not ok:
                raise ValueError(f"declared shape {self.shape} contradicts slopes {slopes}")

    @property
    def domain_start(self) -> Fraction:
        return self.breakpoints[0][0]

    def slopes(self):
        out = []
        for (t0, v0), (t1, v1) in zip(self.breakpoints, self.breakpoints[1:]):
            out.append((v1 - v0) / (t1 - t0))
        if self.tail_slope is not None:
            out.append(self.tail_slope)
        return out

    def in_domain(self, t) -> bool:
        t = Fraction(t)
        if t < self.domain_start:
            return False
        return self.tail_slope is not None or t <= self.breakpoints[-1][0]

    def value_at(self, t) -> Fraction:
        t = Fraction(t)
        if not self.in_domain(t):
            raise ValueError(f"{t} outside domain of {self}")
        bps = self.breakpoints
        if t >= bps[-1][0]:
            t1, v1 = bps[-1]
            if t == t1:
                return v1
            return v1 + self.tail_slope * (t - t1)
        for (t0, v0), (t1, v1) in zip(bps, bps[1:]):
            if t0 <= t <= t1:
                return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
        raise AssertionError("unreachable")

    @classmethod
    def from_pieces(cls, pieces, shape="none", tail_slope=None):
        """Build from [(t_lo, t_hi, intercept, slope)] segments covering a
        closed interval; consecutive equal-slope segments are merged and the
        values must agree at the seams."""
        if not pieces:
            raise ValueError("no pieces")
        pieces = sorted(pieces)
        bps = []
        for (lo, hi, alpha, beta) in pieces:
            vlo = alpha + beta * lo
            if bps:
                if lo != bps[-1][0]:
                    raise ValueError("pieces do not tile the interval")
                if vlo != bps[-1][1]:
                    raise ValueError("pieces disagree at a seam")
            else:
                bps.append((lo, vlo))
            if hi is not None and hi != lo:
                bps.append((hi, alpha + beta * hi))
        # merge collinear interior breakpoints
        merged = [bps[0]]
        for k in range(1, len(bps) - 1):
            t0, v0 = merged[-1]
            t1, v1 = bps[k]
            t2, v2 = bps[k + 1]
            if (v1 - v0) * (t2 - t1) == (v2 - v1) * (t1 - t0):
                continue
            merged.append(bps[k])
        if len(bps) > 1:
            merged.append(bps[-1])
        if tail_slope is not None and len(merged) > 1:
            t0, v0 = merged[-2]
            t1, v1 = merged[-1]
            if (v1 - v0) == tail_slope * (t1 - t0):
                merged.pop()
        return cls(tuple(merged), tail_slope=tail_slope, shape=shape)

    def __repr__(self):
        pts = ", ".join(f"({t}, {v})" for t, v in self.breakpoints)
        tail = f", tail_slope={self.tail_slope}" if self.tail_slope is not None else ""
        return f"PLF([{pts}]{tail}, {self.shape})"

