"""Solution model tests: normalization, validation, merit and quality."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congabc.abc_core import (
    ABCSolution,
    HasZeroEntry,
    NotCoprime,
    NotDistinct,
    NotZeroSum,
    SolutionError,
    make_solution,
    merit,
    quality,
)
from congabc.numtheory import radical


def _solutions(max_c=500):
    """Strategy: valid solutions built from a coprime (s, c) pair."""
    return (
        st.tuples(st.integers(3, max_c), st.integers(1, max_c))
        .map(lambda t: (t[0], 1 + t[1] % (t[0] // 2 if t[0] > 3 else 1)))
        .filter(lambda t: math.gcd(t[0], t[1]) == 1 and 2 * t[1] != t[0])
        .map(lambda t: ABCSolution(t[1] - t[0], -t[1], t[0]))
    )


def test_normalization_examples():
    assert make_solution(-1, -8, 9) == ABCSolution(-8, -1, 9)
    assert make_solution(9, -8, -1) == ABCSolution(-8, -1, 9)
    assert make_solution(1, 8, -9) == ABCSolution(-8, -1, 9)
    with pytest.raises(NotCoprime):
        make_solution(-2, -4, 6)


def test_validation_errors():
    with pytest.raises(HasZeroEntry):
        make_solution(0, 5, 5)
    with pytest.raises(NotZeroSum):
        make_solution(-1, -2, 4)
    with pytest.raises(NotDistinct):
        make_solution(1, 1, -2)
    with pytest.raises(NotDistinct):
        make_solution(-3, 6, -3)
    with pytest.raises(NotCoprime):
        make_solution(2, 4, -6)
    for exc in (HasZeroEntry, NotZeroSum, NotDistinct, NotCoprime):
        assert issubclass(exc, SolutionError)
        assert issubclass(exc, ValueError)


def test_str_format():
    assert str(ABCSolution(-8, -1, 9)) == "(-8, -1, 9)"


@given(_solutions(), st.permutations([0, 1, 2]), st.booleans())
def test_normalization_invariant_under_permutation_and_sign(aa, perm, flip):
    entries = [aa.a, aa.b, aa.c]
    if flip:
        entries = [-v for v in entries]
    shuffled = [entries[i] for i in perm]
    got = make_solution(*shuffled)
    assert got == aa
    assert got.a <= got.b < 0 < got.c
    assert got.a + got.b + got.c == 0
    assert got.c == -got.a - got.b >= 3
    assert math.gcd(got.a, got.b) == math.gcd(got.b, got.c) == math.gcd(got.a, got.c) == 1


def test_merit_examples():
    aa = make_solution(-1, -8, 9)
    r0 = merit(aa, 0.0)
    assert r0.rad_abc == 6
    assert r0.merit == pytest.approx(0.405465108108, abs=1e-9)
    r1 = merit(aa, 1.0)
    assert r1.merit == pytest.approx(-1.386294361120, abs=1e-9)
    bb = make_solution(-1, -2, 3)
    assert merit(bb, 0.0).merit == pytest.approx(-0.693147180560, abs=1e-9)
    with pytest.raises(ValueError):
        merit(aa, -0.5)
    # eps is finite, but (1 + eps) * ln rad(abc) overflows: f was -inf
    big = make_solution(-3, -125, 128)
    with pytest.raises(ValueError, match="finite"):
        merit(big, 1e308)
    assert math.isfinite(merit(big, 1e300).merit)


def test_quality_examples():
    assert quality(make_solution(-1, -8, 9)) == pytest.approx(1.226294385530, abs=1e-9)
    assert quality(make_solution(-1, -2, 3)) == pytest.approx(0.613147192765, abs=1e-9)


def test_quality_large_oracle():
    # |a| = 3**10 * 109, c = 23**5; the engine must factor both unaided
    aa = make_solution(-2, -6436341, 6436343)
    rep = merit(aa, 0.0)
    assert rep.rad_abc == 15042
    assert rep.quality == pytest.approx(1.6299, abs=5e-4)
    assert rep.quality == pytest.approx(1.6299116841270482, abs=1e-12)


@given(_solutions(), st.floats(0.0, 4.0, allow_nan=False))
@settings(max_examples=150)
def test_merit_report_consistency(aa, eps):
    rep = merit(aa, eps)
    rad = radical(-aa.a) * radical(-aa.b) * radical(aa.c)
    assert rep.rad_abc == rad == radical(aa.a * aa.b * aa.c)
    assert rep.rad_abc % 2 == 0  # zero sum forces an even entry
    assert rep.epsilon == eps
    assert rep.merit == pytest.approx(
        math.log(aa.c) - (1 + eps) * math.log(rad), abs=1e-9
    )
    assert rep.quality == pytest.approx(math.log(aa.c) / math.log(rad), abs=1e-9)
    assert rep.triple == aa


@given(_solutions())
def test_merit_decreasing_in_epsilon(aa):
    f0, f1, f2 = (merit(aa, e).merit for e in (0.0, 0.5, 1.0))
    assert f0 > f1 > f2


@given(_solutions())
def test_geometry_bounds(aa):
    # |a - b| < c and both magnitudes below c
    assert 0 < -aa.b <= -aa.a < aa.c
    assert abs(aa.a - aa.b) < aa.c
