"""ABC-solution data model plus the merit and quality metrics.

An ABC-solution is a triple (a, b, c) of distinct, pairwise coprime,
nonzero integers summing to zero, normalized so that a <= b < 0 < c.
Consequently c = |a| + |b| >= 3 and exactly one of the three entries
is even.

For a solution and a nonnegative epsilon the merit is

    f = ln(c) - (1 + epsilon) * ln(rad(|a| * |b| * c))

and the quality is q = ln(c) / ln(rad(|a| * |b| * c)).  Solutions with
q > 1 (equivalently f > 0 at epsilon = 0) are the interesting rare ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numtheory import radical


class SolutionError(ValueError):
    """The input triple is not a valid ABC-solution."""


class HasZeroEntry(SolutionError):
    """All three entries must be nonzero."""


class NotZeroSum(SolutionError):
    """The three entries must sum to zero."""


class NotDistinct(SolutionError):
    """The three entries must be pairwise distinct."""


class NotCoprime(SolutionError):
    """The three entries must be pairwise coprime."""


@dataclass(frozen=True)
class ABCSolution:
    """Normalized ABC-solution with a <= b < 0 < c.

    Instances are assumed valid; build them with make_solution, which
    validates and normalizes arbitrary input order and signs.
    """

    a: int
    b: int
    c: int

    def __str__(self) -> str:
        return f"({self.a}, {self.b}, {self.c})"


@dataclass(frozen=True)
class MeritReport:
    """Radical, quality and merit of one solution at one epsilon.

    rad_abc = rad(|a| * |b| * c), quality = ln(c)/ln(rad_abc) and
    merit = ln(c) - (1 + epsilon) * ln(rad_abc), natural logs throughout.
    """

    triple: ABCSolution
    rad_abc: int
    quality: float
    merit: float
    epsilon: float


def make_solution(x: int, y: int, z: int) -> ABCSolution:
    """Validate and normalize a triple into an ABCSolution.

    The entries may come in any order; if two of them are positive the
    whole triple is negated first (the conventions (-a, -b, c) and
    (a, b, -c) describe the same solution).  Raises a SolutionError
    subclass naming the violated condition otherwise.
    """
    entries = (x, y, z)
    if any(v == 0 for v in entries):
        raise HasZeroEntry(f"{entries} contains a zero entry")
    if x + y + z != 0:
        raise NotZeroSum(f"{entries} does not sum to zero")
    if len({x, y, z}) != 3:
        raise NotDistinct(f"{entries} has a repeated entry")
    if math.gcd(x, y) != 1 or math.gcd(x, z) != 1 or math.gcd(y, z) != 1:
        raise NotCoprime(f"{entries} is not pairwise coprime")
    if sum(1 for v in entries if v > 0) == 2:
        entries = (-x, -y, -z)
    neg = sorted(v for v in entries if v < 0)
    pos = [v for v in entries if v > 0]
    # zero sum with nonzero entries forces exactly one positive here
    assert len(neg) == 2 and len(pos) == 1
    return ABCSolution(neg[0], neg[1], pos[0])


def radical_abc(aa: ABCSolution) -> int:
    """rad(|a| * |b| * c), computed per component.

    The components are pairwise coprime, so it is the product
    rad(|a|) * rad(|b|) * rad(c) of three smaller factorizations.
    """
    return radical(-aa.a) * radical(-aa.b) * radical(aa.c)


def merit(aa: ABCSolution, epsilon: float = 0.0) -> MeritReport:
    """Merit report for one solution at one epsilon >= 0; ValueError where
    the merit is not a finite float (a NaN or infinite epsilon, or one so
    large that the merit overflows)."""
    rad_abc = radical_abc(aa)
    log_rad = math.log(rad_abc)
    log_c = math.log(aa.c)
    f = log_c - (1.0 + epsilon) * log_rad
    if not (epsilon >= 0 and math.isfinite(f)):
        raise ValueError(f"epsilon must be nonnegative and the merit finite, got {epsilon}")
    return MeritReport(triple=aa, rad_abc=rad_abc, quality=log_c / log_rad, merit=f,
                       epsilon=float(epsilon))


def quality(aa: ABCSolution) -> float:
    """ln(c) / ln(rad(|a| * |b| * c)); always defined since rad >= 6."""
    return merit(aa, 0.0).quality
