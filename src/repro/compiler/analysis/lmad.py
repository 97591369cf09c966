"""The Linear Memory Access Descriptor (paper §4, refs [2,3,4]).

An LMAD describes the set of flat (column-major) array offsets a reference
touches: a *base offset* plus one dimension per participating loop, each
dimension a ``(stride, span)`` pair — stride is the distance between
consecutive accesses of that dimension's index, span the total distance
traversed.  The written form in the paper is::

    A  ^{stride_1, ..., stride_d} _{span_1, ..., span_d}  + base

All quantities here are concrete integers (parameters are folded by the
front end); dimensions are normalized to non-negative strides by folding
direction into the base.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import gcd
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Dim", "LMAD"]

#: Above this many points, exact set operations fall back to conservative
#: interval/GCD reasoning.
_EXACT_LIMIT = 1 << 21


@lru_cache(maxsize=8192)
def _enumerate_impl(lmad: "LMAD") -> np.ndarray:
    """Sorted distinct offsets of ``lmad`` (memoized, read-only array).

    LMADs are frozen/hashable and the postpass re-analyzes the same
    descriptors many times (per rank, per grain, per region), so this is
    the compiler's hottest function.  Beyond memoization, dimensions whose
    ascending strides each exceed the cumulative span of the dimensions
    below them generate points that are *already sorted and distinct* when
    built larger-stride-outermost — the `np.unique` sort (the dominant
    cost for dense descriptors) is skipped entirely.  Row-major array
    nests (stride_k = product of inner extents) always qualify.
    """
    dims = sorted((d for d in lmad.dims if d.count > 1), key=lambda d: d.stride)
    disjoint = True
    span_total = 0
    for d in dims:
        if d.stride <= span_total:
            disjoint = False
            break
        span_total += d.span
    pts = np.array([lmad.base], dtype=np.int64)
    if disjoint:
        for d in dims:
            # Larger stride outermost: blocks are disjoint and ordered.
            pts = (d.offsets()[:, None] + pts[None, :]).ravel()
    else:
        for d in dims:
            pts = (pts[:, None] + d.offsets()[None, :]).ravel()
        pts = np.unique(pts)
    pts.flags.writeable = False
    return pts


@lru_cache(maxsize=16384)
def _intersect_count(a: "LMAD", b: "LMAD") -> int:
    """Memoized |points(a) ∩ points(b)| for small exact descriptors."""
    return int(
        len(np.intersect1d(_enumerate_impl(a), _enumerate_impl(b),
                           assume_unique=True))
    )


@dataclass(frozen=True)
class Dim:
    """One access dimension: consistent stride, total span, source index."""

    stride: int
    span: int
    index: str = ""

    def __post_init__(self):
        if self.stride < 0:
            raise ValueError("Dim stride must be non-negative (normalize first)")
        if self.span < 0:
            raise ValueError("Dim span must be non-negative")
        if self.stride == 0 and self.span != 0:
            raise ValueError("zero stride with non-zero span")
        if self.stride > 0 and self.span % self.stride != 0:
            raise ValueError(
                f"span {self.span} not a multiple of stride {self.stride}"
            )

    @property
    def count(self) -> int:
        """Number of positions this dimension generates."""
        if self.stride == 0:
            return 1
        return self.span // self.stride + 1

    def offsets(self) -> np.ndarray:
        return np.arange(self.count, dtype=np.int64) * self.stride

    def __str__(self):
        tag = f"[{self.index}]" if self.index else ""
        return f"({self.stride},{self.span}){tag}"


def make_dim(stride: int, count: int, index: str = "") -> Dim:
    """Build a dim from (signed stride, iteration count); returns a
    normalized Dim and the base adjustment for negative strides."""
    if count < 1:
        raise ValueError("count must be >= 1")
    s = abs(int(stride))
    return Dim(stride=s, span=s * (count - 1), index=index)


@dataclass(frozen=True)
class LMAD:
    """Base offset + dimensions, identifying a set of flat offsets.

    ``exact`` is False for conservative over-approximations (whole-array
    fallbacks, widened triangular bounds): such descriptors are safe to
    *scatter* but must never drive a *collect* plan directly.
    """

    array: str
    base: int
    dims: Tuple[Dim, ...] = field(default_factory=tuple)
    exact: bool = True

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(self.dims))

    # -- constructors --------------------------------------------------------
    @staticmethod
    def from_counts(
        array: str,
        base: int,
        dims: Sequence[Tuple[int, int]],
        indices: Optional[Sequence[str]] = None,
        exact: bool = True,
    ) -> "LMAD":
        """Build from (signed stride, count) pairs; negative strides fold
        their traversal into the base."""
        out_dims: List[Dim] = []
        b = base
        indices = indices or [""] * len(dims)
        for (stride, count), idx in zip(dims, indices):
            if count < 1:
                raise ValueError("count must be >= 1")
            if stride < 0:
                b += stride * (count - 1)
            out_dims.append(make_dim(stride, count, idx))
        return LMAD(array=array, base=b, dims=tuple(out_dims), exact=exact)

    # -- basic geometry ---------------------------------------------------
    @property
    def min_offset(self) -> int:
        return self.base

    @property
    def max_offset(self) -> int:
        return self.base + sum(d.span for d in self.dims)

    @property
    def extent(self) -> int:
        """Size of the bounding contiguous interval."""
        return self.max_offset - self.min_offset + 1

    @property
    def nominal_count(self) -> int:
        """Product of per-dimension counts (duplicates counted once each)."""
        n = 1
        for d in self.dims:
            n *= d.count
        return n

    def sorted_dims(self) -> Tuple[Dim, ...]:
        """Dimensions by ascending stride (paper's written order)."""
        return tuple(sorted(self.dims, key=lambda d: (d.stride, d.span)))

    # -- exact point sets ------------------------------------------------------
    def enumerate(self) -> np.ndarray:
        """All touched offsets, sorted, without duplicates.

        The result is memoized per descriptor and returned as a
        **read-only** array — callers must copy before mutating.
        """
        if self.nominal_count > _EXACT_LIMIT:
            raise ValueError(
                f"LMAD too large to enumerate ({self.nominal_count} points)"
            )
        return _enumerate_impl(self)

    def count_distinct(self) -> int:
        return len(self.enumerate())

    def mask(self, size: int) -> np.ndarray:
        """Boolean mask over ``[0, size)`` of touched offsets."""
        m = np.zeros(size, dtype=bool)
        pts = self.enumerate()
        if len(pts) and (pts[0] < 0 or pts[-1] >= size):
            raise ValueError(
                f"LMAD touches [{pts[0]}, {pts[-1]}] outside array of size {size}"
            )
        m[pts] = True
        return m

    # -- relations ----------------------------------------------------------
    def _small(self, other: "LMAD") -> bool:
        return (
            self.nominal_count <= _EXACT_LIMIT
            and other.nominal_count <= _EXACT_LIMIT
        )

    def overlaps(self, other: "LMAD") -> bool:
        """May the two descriptors touch a common offset?  Exact for small
        descriptors; conservative (never false-negative) otherwise."""
        if self.array != other.array:
            return False
        if self.max_offset < other.min_offset or other.max_offset < self.min_offset:
            return False
        # GCD filter: every offset of an LMAD is base + combination of
        # strides, hence ≡ base (mod g) where g = gcd of its strides.
        g = gcd(self._stride_gcd(), other._stride_gcd())
        if g > 1 and (self.base - other.base) % g != 0:
            return False
        if self._small(other):
            return _intersect_count(self, other) > 0
        return True  # conservative

    def contains(self, other: "LMAD") -> bool:
        """Does this descriptor cover every offset of ``other``?  Exact for
        small descriptors; conservatively False otherwise."""
        if self.array != other.array:
            return False
        if other.min_offset < self.min_offset or other.max_offset > self.max_offset:
            return False
        if self._small(other):
            return _intersect_count(self, other) == other.count_distinct()
        return False  # conservative

    def _stride_gcd(self) -> int:
        g = 0
        for d in self.dims:
            if d.count > 1:
                g = gcd(g, d.stride)
        return g if g else 1

    # -- transformations ----------------------------------------------------
    def simplify(self) -> "LMAD":
        """Normalize: drop singleton dims, sort by stride, coalesce dims
        that concatenate contiguously (paper [4]'s simplification).

        Two ascending-sorted dims (s1, p1) then (s2, p2) merge into
        ``(s1, p1 + p2)`` when ``s2 == p1 + s1`` — the outer stride lands
        exactly one inner-stride past the inner span.
        """
        dims = [d for d in self.sorted_dims() if d.count > 1]
        merged: List[Dim] = []
        for d in dims:
            if merged:
                last = merged[-1]
                if d.stride == last.span + last.stride:
                    merged[-1] = Dim(
                        stride=last.stride,
                        span=last.span + d.span,
                        index=last.index or d.index,
                    )
                    continue
            merged.append(d)
        return LMAD(self.array, self.base, tuple(merged), exact=self.exact)

    def shifted(self, delta: int) -> "LMAD":
        return replace(self, base=self.base + delta)

    def bounding(self) -> "LMAD":
        """The contiguous approximation covering min..max offset."""
        n = self.extent
        if n == 1:
            return LMAD(self.array, self.min_offset, (), exact=self.exact)
        approx = self.extent != self.nominal_count or not self.is_contiguous
        return LMAD(
            self.array,
            self.min_offset,
            (Dim(1, n - 1),),
            exact=self.exact and not approx,
        )

    @property
    def is_contiguous(self) -> bool:
        """True when the touched set is exactly one dense interval."""
        s = self.simplify()
        if not s.dims:
            return True
        return len(s.dims) == 1 and s.dims[0].stride == 1

    # -- presentation -----------------------------------------------------------
    def __str__(self):
        dims = self.sorted_dims()
        strides = ",".join(str(d.stride) for d in dims)
        spans = ",".join(str(d.span) for d in dims)
        return f"{self.array}^{{{strides}}}_{{{spans}}}+{self.base}"
