"""Interned complex edge weights.

Every scalar that appears on a decision-diagram edge lives once in a
WeightTable and is referred to by an integer handle. Interning merges
values within a small tolerance, so numbers produced by different
floating-point routes (e.g. repeated 1/sqrt(2) products) collapse to a
single handle. That is what lets the node store hash successor tuples
exactly: structurally equal diagrams end up with identical handles.

Handles 0 and 1 are reserved for the constants ZERO and ONE.
"""

from __future__ import annotations

import math

ZERO = 0
ONE = 1

# Max-norm distance on (re, im) under which two values share a handle.
# Small enough to keep the phase ladder of a 24-qubit Fourier transform
# distinct, large enough to absorb rounding noise from repeated 1/sqrt(2)
# multiplications.
TOLERANCE = 1e-13

_BUCKET = 2.0 * TOLERANCE
_NEIGHBORS = (-1, 0, 1)


class WeightError(ValueError):
    """Non-finite or out-of-range input, or division by the zero weight."""


class WeightTable:
    """Tolerance-canonical intern table for complex scalars.

    Not safe for concurrent mutation; each engine instance owns one table.
    Lookup is amortized constant time: an exact-value dict catches repeats,
    and misses probe a coarse grid of buckets sized to the tolerance.
    """

    __slots__ = ("values", "mag2", "_exact", "_buckets")

    def __init__(self) -> None:
        self.values: list[complex] = []
        self.mag2: list[float] = []
        self._exact: dict[tuple[float, float], int] = {}
        self._buckets: dict[tuple[int, int], list[int]] = {}
        if self.intern(0.0, 0.0) != ZERO or self.intern(1.0, 0.0) != ONE:
            raise AssertionError("constant handles out of order")

    def __len__(self) -> int:
        return len(self.values)

    def intern(self, re: float, im: float = 0.0) -> int:
        """Return the canonical handle for (re, im), storing it if new.

        Returns an existing handle whenever a stored value lies within
        TOLERANCE (max-norm, inclusive); ties go to the closest stored
        value. Negative zero components normalize to +0.0 first. Raises
        WeightError for a NaN or infinite component, or one so large
        (above about 3.6e295) that its bucket index overflows.
        """
        if re == 0.0:
            re = 0.0
        if im == 0.0:
            im = 0.0
        key = (re, im)
        h = self._exact.get(key)
        if h is not None:
            return h
        # NaN, an infinity or a finite value too large for its bucket index
        # fails here; none is ever stored, so none is found in _exact above
        try:
            bi = math.floor(re / _BUCKET)
            bj = math.floor(im / _BUCKET)
        except (OverflowError, ValueError):
            raise WeightError(f"weight ({re!r}, {im!r}) not finite or too large") from None
        best = -1
        best_d = TOLERANCE
        for di in _NEIGHBORS:
            for dj in _NEIGHBORS:
                for cand in self._buckets.get((bi + di, bj + dj), ()):
                    v = self.values[cand]
                    d = max(abs(v.real - re), abs(v.imag - im))
                    if d <= best_d and (best < 0 or d < best_d):
                        best, best_d = cand, d
        if best >= 0:
            self._exact[key] = best
            return best
        h = len(self.values)
        self.values.append(complex(re, im))
        self.mag2.append(re * re + im * im)
        self._exact[key] = h
        self._buckets.setdefault((bi, bj), []).append(h)
        return h

    def intern_complex(self, v: complex) -> int:
        return self.intern(v.real, v.imag)

    def value(self, h: int) -> complex:
        return self.values[h]

    def add(self, a: int, b: int) -> int:
        if a == ZERO:
            return b
        if b == ZERO:
            return a
        v = self.values[a] + self.values[b]
        return self.intern(v.real, v.imag)

    def mul(self, a: int, b: int) -> int:
        if a == ONE:
            return b
        if b == ONE:
            return a
        if a == ZERO or b == ZERO:
            return ZERO
        v = self.values[a] * self.values[b]
        return self.intern(v.real, v.imag)

    def div(self, a: int, b: int) -> int:
        if b == ZERO:
            raise WeightError("division by the zero weight")
        if b == ONE or a == ZERO:
            return a
        if a == b:
            return ONE
        v = self.values[a] / self.values[b]
        return self.intern(v.real, v.imag)
