"""Sharp-radius equations, their bisection roots, and closed forms.

Each catalog inequality holds up to a radius that is the unique root in
(0, 1) of a one-variable equation.  Each equation is one ``_EQUATIONS``
entry, holding its value at r and its closed form where one exists (the
m = 0 degenerations, the affine Thm31 case and the m = p symmetric
case); ``RADIUS_IDS`` lists the entries.

``solve_radius`` brackets by sign change and bisects; closed forms
short-circuit when available and are cross-checked against bisection in
the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Optional

from .errors import (
    NoSignChange,
    ParameterOutOfRange,
    RadiusOutOfRange,
    ToleranceTooSmall,
    UnknownTheorem,
    check_shape,
)
from .functionals import _THEOREMS

__all__ = [
    "RADIUS_IDS",
    "RadiusSpec",
    "equation_value",
    "thm31_radius",
    "closed_form_radius",
    "solve_radius",
    "bisect_root",
]

# The m = 0 equation for Thm32 factors as (r^p + 1)(5 r^p - 3); near r = 0
# the relevant factor is negative, so start the bracket just inside 0 and
# assert the sign there instead of trusting the endpoint.
BRACKET_EPS = 1e-6
MAX_BISECT_ITER = 200


def thm31_radius(a0, s):
    """Sharp radius (1 - a0^s)/(2 - a0^2 - a0^s) of the |f(0)|^s bound.

    ``a0`` = |f(0)| may be a float or an array (one radius per function).
    """
    return (1.0 - a0 ** s) / (2.0 - a0 ** 2 - a0 ** s)


class _Equation(NamedTuple):
    """value(r, p, m, extras), and closed(p, m, extras): the root or None."""

    value: Callable[[float, int, int, Mapping[str, float]], float]
    closed: Callable[[int, int, Mapping[str, float]], Optional[float]]


_EQUATIONS = {
    # also written r^p (r^p + r^m) - 1
    "ThmC34": _Equation(lambda r, p, m, x: r ** (2 * p) + r ** (p + m) - 1.0,
                        lambda p, m, x: 2.0 ** (-1.0 / (2 * p)) if m == p else None),
    # affine in r; a0 = |f(0)|
    "Thm31": _Equation(
        lambda r, p, m, x: (r * (2.0 - x["a0"] ** 2 - x["a0"] ** x["s"])
                            - (1.0 - x["a0"] ** x["s"])),
        lambda p, m, x: thm31_radius(x["a0"], x["s"])),
    "Thm32": _Equation(
        lambda r, p, m, x: (5.0 * r ** (2 * p + m) - 2.0 * r ** (p + m) + r ** m
                            + 4.0 * r ** p - 4.0),
        lambda p, m, x: (3.0 / 5.0) ** (1.0 / p) if m == 0 else None),
    "Cor43": _Equation(lambda r, p, m, x: r ** (2 * p + m) + 2.0 * r ** (2 * p) - 1.0,
                       lambda p, m, x: 3.0 ** (-1.0 / (2 * p)) if m == 0 else None),
    "ClassicBohr": _Equation(lambda r, p, m, x: 3.0 * r - 1.0, lambda p, m, x: 1.0 / 3.0),
    "Alternating": _Equation(lambda r, p, m, x: 3.0 * r ** 2 - 1.0,
                             lambda p, m, x: 1.0 / math.sqrt(3.0)),
}
RADIUS_IDS = tuple(_EQUATIONS)


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
        check_shape(self.m, self.p, "radius spec")
        object.__setattr__(self, "extras", dict(self.extras))
        if self.id in _THEOREMS:  # an equation named after its core keeps its shape and s
            _THEOREMS[self.id].check(self.id, self.m, self.p, self.extras.get("s"),
                                     lattice_rules=False)
        a0 = self.extras.get("a0")
        if self.id == "Thm31" and (a0 is None or not 0.0 <= a0 < 1.0):
            raise ParameterOutOfRange("Thm31 needs extras['a0'] in [0, 1)")


def equation_value(spec: RadiusSpec, r: float) -> float:
    """Value of the radius equation at r in [0, 1]."""
    if not 0.0 <= r <= 1.0:
        raise RadiusOutOfRange(f"radius equations are evaluated on [0, 1], got {r}")
    return _EQUATIONS[spec.id].value(r, spec.p, spec.m, spec.extras)


def closed_form_radius(spec: RadiusSpec) -> Optional[float]:
    """Closed form where one exists, else None."""
    return _EQUATIONS[spec.id].closed(spec.p, spec.m, spec.extras)


def _check_tol(tol: float) -> None:
    if not tol > 0.0:
        raise ToleranceTooSmall(f"tolerance must be positive, got {tol}")
    if tol == math.inf:
        raise ParameterOutOfRange(f"tolerance must be finite, got {tol}")


def bisect_root(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
) -> float:
    """Bisection on a bracketing interval: fn(lo) < 0 <= fn(hi).

    Converges unconditionally from a verified sign change; raises
    NoSignChange if the endpoints do not straddle zero,
    ToleranceTooSmall if ``tol`` is nonpositive or below what float
    spacing can deliver on this interval, and ParameterOutOfRange if it
    is infinite (it would accept the first midpoint) or lo or hi is not finite.
    """
    _check_tol(tol)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParameterOutOfRange(f"bisection needs a finite bracket, got [{lo}, {hi}]")
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0.0) == (fhi < 0.0):
        raise NoSignChange(f"no sign change on [{lo}, {hi}]: f={flo:.3e}, {fhi:.3e}")
    if flo > 0.0:
        lo, hi, flo, fhi = hi, lo, fhi, flo
    for _ in range(MAX_BISECT_ITER):
        mid = 0.5 * (lo + hi)
        if abs(hi - lo) * 0.5 < tol:
            return mid
        if mid == lo or mid == hi:  # adjacent floats: cannot tighten further
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
    compare both paths).  ``tol`` is checked as :func:`bisect_root` checks
    it on either path.
    """
    _check_tol(tol)
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
