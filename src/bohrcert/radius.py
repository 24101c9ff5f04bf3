"""Sharp-radius equations, their bisection roots, and closed forms.

Each catalog inequality holds up to a radius that is the unique root in
(0, 1) of a one-variable equation:

=============  =====================================================
ThmC34         r^(2p) + r^(p+m) - 1        (also written r^p (r^p + r^m) - 1)
Thm32          5 r^(2p+m) - 2 r^(p+m) + r^m + 4 r^p - 4
Cor43          r^(2p+m) + 2 r^(2p) - 1
Thm31          r (2 - a0^2 - a0^s) - (1 - a0^s), affine in r
ClassicBohr    3 r - 1
Alternating    3 r^2 - 1
=============  =====================================================

``solve_radius`` brackets by sign change and bisects; closed forms
(m = 0 degenerations, the affine case, and the m = p symmetric case)
short-circuit when available and are cross-checked against bisection in
the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from .errors import (
    NoSignChange,
    ParameterOutOfRange,
    RadiusOutOfRange,
    ToleranceTooSmall,
    UnknownTheorem,
)

__all__ = [
    "RADIUS_IDS",
    "RadiusSpec",
    "equation_value",
    "thm31_radius",
    "closed_form_radius",
    "solve_radius",
    "bisect_root",
    "mobius_equality_radius",
    "classical_bohr_radius",
]

RADIUS_IDS = ("ThmC34", "Thm31", "Thm32", "Cor43", "ClassicBohr", "Alternating")

# The m = 0 equation for Thm32 factors as (r^p + 1)(5 r^p - 3); near r = 0
# the relevant factor is negative, so start the bracket just inside 0 and
# assert the sign there instead of trusting the endpoint.
BRACKET_EPS = 1e-6
MAX_BISECT_ITER = 200


@dataclass(frozen=True)
class RadiusSpec:
    """Identifier plus parameters of one sharp-radius equation."""

    id: str
    p: int = 1
    m: int = 0
    extras: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.id not in RADIUS_IDS:
            raise UnknownTheorem(f"no radius equation with id {self.id!r}")
        if not (self.p >= 1 and 0 <= self.m <= self.p):
            raise ParameterOutOfRange(
                f"radius spec needs 1 <= p and 0 <= m <= p, got m={self.m}, p={self.p}"
            )
        object.__setattr__(self, "extras", dict(self.extras))
        if self.id == "Thm31":
            a0 = self.extras.get("a0")
            s = self.extras.get("s")
            if a0 is None or not 0.0 <= a0 < 1.0:
                raise ParameterOutOfRange("Thm31 needs extras['a0'] in [0, 1)")
            if s is None or not s > 0.0:
                raise ParameterOutOfRange("Thm31 needs extras['s'] > 0")


def equation_value(spec: RadiusSpec, r: float) -> float:
    """Value of the radius equation at r in [0, 1]."""
    if not 0.0 <= r <= 1.0:
        raise RadiusOutOfRange(f"radius equations are evaluated on [0, 1], got {r}")
    p, m = spec.p, spec.m
    if spec.id == "ThmC34":
        return r ** (2 * p) + r ** (p + m) - 1.0
    if spec.id == "Thm32":
        return 5.0 * r ** (2 * p + m) - 2.0 * r ** (p + m) + r ** m + 4.0 * r ** p - 4.0
    if spec.id == "Cor43":
        return r ** (2 * p + m) + 2.0 * r ** (2 * p) - 1.0
    if spec.id == "Thm31":
        a0 = spec.extras["a0"]
        s = spec.extras["s"]
        return r * (2.0 - a0 ** 2 - a0 ** s) - (1.0 - a0 ** s)
    if spec.id == "ClassicBohr":
        return 3.0 * r - 1.0
    if spec.id == "Alternating":
        return 3.0 * r ** 2 - 1.0
    raise UnknownTheorem(spec.id)


def thm31_radius(a0, s):
    """Sharp radius (1 - a0^s)/(2 - a0^2 - a0^s) of the |f(0)|^s bound.

    ``a0`` = |f(0)| may be a float or an array (one radius per function).
    """
    return (1.0 - a0 ** s) / (2.0 - a0 ** 2 - a0 ** s)


def closed_form_radius(spec: RadiusSpec) -> Optional[float]:
    """Closed form where one exists, else None."""
    p, m = spec.p, spec.m
    if spec.id == "Thm31":
        return thm31_radius(spec.extras["a0"], spec.extras["s"])
    if spec.id == "Thm32" and m == 0:
        return (3.0 / 5.0) ** (1.0 / p)
    if spec.id == "Cor43" and m == 0:
        return 3.0 ** (-1.0 / (2 * p))
    if spec.id == "ThmC34" and m == p:
        return 2.0 ** (-1.0 / (2 * p))
    if spec.id == "ClassicBohr":
        return 1.0 / 3.0
    if spec.id == "Alternating":
        return 1.0 / math.sqrt(3.0)
    return None


def bisect_root(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
    max_iter: int = MAX_BISECT_ITER,
) -> float:
    """Bisection on a bracketing interval: fn(lo) < 0 <= fn(hi).

    Converges unconditionally from a verified sign change; raises
    NoSignChange if the endpoints do not straddle zero and
    ToleranceTooSmall if ``tol`` is nonpositive or below what float
    spacing can deliver on this interval.
    """
    if not tol > 0.0:
        raise ToleranceTooSmall(f"tolerance must be positive, got {tol}")
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0.0) == (fhi < 0.0):
        raise NoSignChange(f"no sign change on [{lo}, {hi}]: f={flo:.3e}, {fhi:.3e}")
    if flo > 0.0:
        lo, hi, flo, fhi = hi, lo, fhi, flo
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if abs(hi - lo) * 0.5 < tol:
            return mid
        if mid == lo or mid == hi:
            # adjacent floats: cannot tighten further
            if abs(hi - lo) * 0.5 < tol:
                return mid
            raise ToleranceTooSmall(
                f"tol={tol:.1e} below float spacing near {mid!r}"
            )
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if fm < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_radius(spec: RadiusSpec, tol: float = 1e-12, use_closed_form: bool = True) -> float:
    """Root in (0, 1) of the identified equation, to within ``tol`` on r.

    Verifies the sign change near 0 and at 1 before bisecting; closed
    forms short-circuit unless ``use_closed_form`` is False (the tests
    compare both paths).
    """
    if use_closed_form:
        cf = closed_form_radius(spec)
        if cf is not None:
            return cf
    lo = BRACKET_EPS
    flo = equation_value(spec, lo)
    if not flo < 0.0:
        raise NoSignChange(
            f"{spec.id}: expected a negative value at r={lo}, got {flo:.3e}"
        )
    return bisect_root(lambda r: equation_value(spec, r), lo, 1.0, tol)


def mobius_equality_radius(a: float, tol: float = 1e-12) -> float:
    """Radius where the majorant sum of (a - z)/(1 - a z) first reaches 1.

    The majorant sum has the closed form a + (1 - a^2) r / (1 - a r),
    strictly increasing in r, so the equality radius is found by
    bisection on [0, 1].  (Analytically it equals 1/(1 + 2a); the tests
    hold this implementation to that.)
    """
    if not 0.0 <= a < 1.0:
        raise ParameterOutOfRange(f"family parameter a={a} outside [0, 1)")

    # B_a(r) - 1 = (1 - a) * [(1 + a) r / (1 - a r) - 1]; dividing out the
    # positive factor (1 - a) keeps the root well conditioned as a -> 1,
    # where the raw gap collapses into rounding noise.
    def majorant_gap(r: float) -> float:
        return (1.0 + a) * r / (1.0 - a * r) - 1.0

    hi = majorant_gap(1.0)
    if hi <= 0.0:
        return 1.0
    return bisect_root(majorant_gap, 0.0, 1.0, tol)


def classical_bohr_radius(tol: float = 1e-9, grid_points: int = 17, max_level: int = 60) -> float:
    """Infimum of the automorphism-family equality radii, by grid refinement.

    The equality radius 1/(1 + 2a) decreases toward 1/3 as a -> 1 without
    being attained; the refinement pushes the grid end toward 1 until the
    minimum stabilizes within ``tol``.
    """
    if not tol > 0.0:
        raise ToleranceTooSmall(f"tolerance must be positive, got {tol}")
    best_prev = None
    delta = 0.5
    for _ in range(max_level):
        step = (1.0 - delta) / (grid_points - 1)
        best = min(
            mobius_equality_radius(i * step, tol=tol * 1e-3)
            for i in range(grid_points)
        )
        if best_prev is not None and abs(best_prev - best) < 0.5 * tol:
            return best
        best_prev = best
        delta *= 0.25
    return best_prev
