"""Weight interning and exact-contract arithmetic."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdd.weights import ONE, TOLERANCE, WeightError, WeightTable, ZERO

SQ2 = 1.0 / math.sqrt(2.0)


@pytest.fixture
def wt():
    return WeightTable()


def test_constants(wt):
    assert wt.intern(0.0, 0.0) == ZERO
    assert wt.intern(1.0, 0.0) == ONE
    assert wt.value(ZERO) == 0
    assert wt.value(ONE) == 1


def test_intern_idempotent(wt):
    a = wt.intern(SQ2, 0.0)
    b = wt.intern(SQ2, 0.0)
    assert a == b


def test_intern_merges_within_tolerance(wt):
    # oracle: direct |delta| <= tolerance check on each component
    a = wt.intern(SQ2, 0.0)
    nudged = SQ2 + 1e-14
    assert abs(nudged - SQ2) <= TOLERANCE
    assert wt.intern(nudged, 0.0) == a


def test_intern_keeps_distinct_values_apart(wt):
    a = wt.intern(SQ2, 0.0)
    b = wt.intern(SQ2 + 10 * TOLERANCE, 0.0)
    assert a != b


def test_negative_zero_normalizes(wt):
    assert wt.intern(-0.0, 0.0) == ZERO
    assert wt.intern(-0.0, -0.0) == ZERO


@pytest.mark.parametrize("re,im", [(float("nan"), 0.0), (0.0, float("inf")), (float("-inf"), 1.0)])
def test_non_finite_rejected(wt, re, im):
    with pytest.raises(WeightError):
        wt.intern(re, im)


@pytest.mark.parametrize("re,im", [(1e300, 0.0), (-1e300, 0.0), (0.0, 1e300), (0.5, -1e300)])
def test_huge_finite_rejected(wt, re, im):
    # finite, but its bucket index overflows; nothing is stored
    size = len(wt)
    with pytest.raises(WeightError):
        wt.intern(re, im)
    assert len(wt) == size
    with pytest.raises(WeightError):
        wt.intern(re, im)


def test_mul_identities_are_exact(wt):
    a = wt.intern(0.3, -0.4)
    assert wt.mul(a, ONE) == a
    assert wt.mul(ONE, a) == a
    assert wt.mul(a, ZERO) == ZERO
    assert wt.mul(ZERO, a) == ZERO


def test_algebra_examples(wt):
    s = wt.intern(SQ2, 0.0)
    assert wt.mul(s, s) == wt.intern(0.5, 0.0)
    half = wt.intern(0.5, 0.0)
    assert wt.add(half, half) == ONE
    i = wt.intern(0.0, 1.0)
    assert wt.mul(i, i) == wt.intern(-1.0, 0.0)


def test_div(wt):
    a = wt.intern(0.5, 0.5)
    assert wt.div(a, a) == ONE
    assert wt.div(a, ONE) == a
    assert wt.div(ZERO, a) == ZERO
    with pytest.raises(WeightError):
        wt.div(a, ZERO)


finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(finite, finite, finite, finite)
def test_arithmetic_tracks_complex_ops(re1, im1, re2, im2):
    wt = WeightTable()
    a = wt.intern(re1, im1)
    b = wt.intern(re2, im2)
    ca = wt.value(a)
    cb = wt.value(b)
    got = wt.value(wt.add(a, b))
    assert abs(got - (ca + cb)) <= 4 * TOLERANCE
    got = wt.value(wt.mul(a, b))
    assert abs(got - (ca * cb)) <= 4 * TOLERANCE


@settings(max_examples=100, deadline=None)
@given(finite, finite, finite, finite)
def test_handle_equality_is_value_closeness(re1, im1, re2, im2):
    # congruence: equal handles imply values within 2*tolerance (max-norm)
    wt = WeightTable()
    a = wt.intern(re1, im1)
    b = wt.intern(re2, im2)
    if a == b:
        va, vb = wt.value(a), wt.value(b)
        assert abs(va.real - vb.real) <= 2 * TOLERANCE
        assert abs(va.imag - vb.imag) <= 2 * TOLERANCE


def test_repeated_rounding_noise_collapses(wt):
    # products of 1/sqrt(2) pairs reach 0.5^k by different routes
    s = wt.intern(SQ2, 0.0)
    p1 = wt.mul(wt.mul(s, s), wt.mul(s, s))
    p2 = wt.mul(s, wt.mul(s, wt.mul(s, s)))
    assert p1 == p2
