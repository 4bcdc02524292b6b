"""The even-power map on ABC-solutions and its amplification constants.

For an even n >= 2 the map sends (a, b, c) to

    A = -(a - b)**n / 2**m
    B = -(c**n - (a - b)**n) / 2**m
    C = c**n / 2**m

with m = n when c is even and m = 0 otherwise.  The image is again an
ABC-solution; both divisions are exact because when c is even a and b
are odd, so c and a - b are both even.

The companion constants, for even n >= 2 and epsilon > 0, are

    c_lin   = n / (n + n*eps - eps)                       in (0, 1]
    c_off   = -n*(1+eps)*ln(2n) / (n + n*eps - eps) - n*ln(2)
    eps_out = eps / (n + n*eps - eps) = eps / (n + (n-1)*eps)

and they tie the merit of the image at eps_out to the merit of the
input at eps:  f(image, eps_out) >= c_lin * f(input, eps) + c_off.
Rearranged, and writing bound for an assumed uniform upper bound on
the image merits, every input merit obeys

    f(input, eps) <= (bound - c_off) / c_lin

which is what derived_full_bound computes with n = totient(N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .abc_core import ABCSolution
from .numtheory import totient

DEFAULT_EXPONENT_CAP = 64


class OddN(ValueError):
    """The exponent must be an even integer >= 2."""


class NonpositiveEpsilon(ValueError):
    """epsilon must be finite and strictly positive here."""


class ExponentCapExceeded(ValueError):
    """The requested exponent exceeds DEFAULT_EXPONENT_CAP."""


class InternalInexactDivision(RuntimeError):
    """A division by 2**m left a remainder; this indicates a bug."""


@dataclass(frozen=True)
class ThetaResult:
    """One application of the even-power map.

    raw holds the image components (A, B, C) in definition order,
    before normalization; output is the normalized solution built
    from them.  m is n when input.c is even and 0 otherwise.
    """

    input: ABCSolution
    n: int
    m: int
    raw: tuple[int, int, int]
    output: ABCSolution


@dataclass(frozen=True)
class LemmaConstants:
    """The amplification constants c_lin, c_off, eps_out for (n, epsilon)."""

    n: int
    epsilon: float
    c_lin: float
    c_off: float
    eps_out: float

    def lift(self, bound):
        """The bound on f(input, epsilon) implied by f(image, eps_out) <= bound."""
        return (bound - self.c_off) / self.c_lin


def _require_even(n: int) -> None:
    if n < 2 or n % 2 != 0:
        raise OddN(f"exponent must be an even integer >= 2, got {n}")


def _require_positive(epsilon) -> None:
    # not 0 < nan, so a NaN epsilon, which would pass every check, fails here too
    if not 0 < epsilon < math.inf:
        raise NonpositiveEpsilon(f"epsilon must be positive and finite, got {epsilon}")


def _integral(v, rule: str) -> int:
    """v as the int it equals, so 7.0 is 7; any other v, such as 7.5, which int()
    would change to 7, or "7", is ValueError(f"{rule}, got {v!r}")."""
    try:
        if (n := int(v)) == v:
            return n
    except (TypeError, ValueError, OverflowError):  # None, NaN, inf
        pass
    raise ValueError(f"{rule}, got {v!r}")


def _require_exponent(n: int) -> None:
    """The exponent rule of theta and the suites: even, 2 <= n <= DEFAULT_EXPONENT_CAP.

    The image grows like c**n, so the cap guards against accidental huge powers.
    """
    _require_even(n)
    if n > DEFAULT_EXPONENT_CAP:
        raise ExponentCapExceeded(f"exponent {n} exceeds cap {DEFAULT_EXPONENT_CAP}")


def _image(aa: ABCSolution, n: int) -> tuple[int, tuple[int, int, int]]:
    """theta's arithmetic without its dataclasses: m and the raw image (A, B, C) of aa
    at an exponent n that the caller has checked (_require_exponent)."""
    d = aa.a - aa.b
    m = n if aa.c % 2 == 0 else 0
    two_m = 1 << m
    dn = d**n
    cn = aa.c**n
    a_img, r1 = divmod(-dn, two_m)
    b_img, r2 = divmod(dn - cn, two_m)
    c_img, r3 = divmod(cn, two_m)
    if r1 or r2 or r3:
        raise InternalInexactDivision(
            f"2**{m} does not divide the image of {aa} under n={n}"
        )
    # a solution by construction, not revalidated: c**n = 2*(a-b)**n has no integer
    # solutions, so the components are distinct; gcd(c, a-b) | 2, and 2**m removes it
    assert a_img != b_img and a_img < 0 and b_img < 0 and c_img > 0
    return m, (a_img, b_img, c_img)


def theta(aa: ABCSolution, n: int) -> ThetaResult:
    """Apply the even-power map once and normalize the image: _image's m and raw
    image, in the dataclasses.

    Raises OddN for invalid exponents and ExponentCapExceeded when n
    exceeds DEFAULT_EXPONENT_CAP (see _require_exponent).
    """
    _require_exponent(n)
    m, raw = _image(aa, n)
    return ThetaResult(input=aa, n=n, m=m, raw=raw, output=ABCSolution(*sorted(raw[:2]), raw[2]))


def _constants(n: int, epsilon, log) -> LemmaConstants:
    """The constants from their one formula: floats with a float epsilon and
    math.log, mpmath's working precision with an mpf epsilon and mpmath.log."""
    denom = n + n * epsilon - epsilon
    return LemmaConstants(
        n=n,
        epsilon=epsilon,
        c_lin=n / denom,
        c_off=-n * (1 + epsilon) * log(2 * n) / denom - n * log(2),
        eps_out=epsilon / denom,
    )


def lemma_constants(n: int, epsilon: float) -> LemmaConstants:
    """The amplification constants for even n >= 2 and finite epsilon > 0;
    ValueError where n * epsilon overflows (c_lin 0, c_off NaN: every check passes)."""
    _require_even(n)
    _require_positive(epsilon)
    k = _constants(n, float(epsilon), math.log)
    if not (k.c_lin > 0 and math.isfinite(k.c_off)):
        raise ValueError(f"the constants at n={n}, epsilon={epsilon} are not finite")
    return k


def derived_full_bound(N: int, epsilon: float, congruence_constant: float) -> float:
    """Propagate an assumed bound for triples with N | abc to all triples.

    congruence_constant is a hypothesis: an assumed uniform upper bound
    on f(aa, eps_out) over solutions divisible by N.  For N <= 2 the
    restriction is vacuous (every solution has an even entry), so the
    constant is returned unchanged.  Otherwise n = totient(N) is even
    and the returned value is (congruence_constant - c_off) / c_lin,
    an explicit bound on f(aa, epsilon) for all solutions.  ValueError
    where the bound is not finite: the constant NaN, infinite or lifted past float64.
    """
    if (N := _integral(N, "N must be a positive integer")) < 1:
        raise ValueError(f"N must be a positive integer, got {N}")
    _require_positive(epsilon)
    C = congruence_constant
    bound = C if N <= 2 else lemma_constants(totient(N), epsilon).lift(C)
    if not math.isfinite(bound):
        raise ValueError(f"the bound at N={N}, epsilon={epsilon}, C={C} is not finite")
    return float(bound)
