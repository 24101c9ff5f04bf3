"""Truncated complex power series arithmetic.

A series is a finite coefficient vector c_0..c_N, understood as the
truncation of a function analytic on the unit disk.  Operations never
fabricate coefficients beyond the order they can actually determine, and
a series may carry a bound on sup_{|z|<1} |f(z)|.  That bound is what
turns truncated numerics into certified numerics downstream: a function
bounded by 1 on the disk has |c_k| <= 1 for all k (Cauchy estimate), so
the tail dropped after index N contributes at most r^(N+1)/(1-r) at
radius r.

The default working order is 256, which certifies absolute sums to about
2e-11 at r = 0.9.  Evaluators that need more (larger radii, tighter
tolerances) must be given longer series; see
``functionals.lacunary_length_for``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
from scipy.signal import lfilter

from .errors import ParameterOutOfRange, ZeroConstantTerm

__all__ = [
    "DEFAULT_ORDER",
    "TruncatedSeries",
    "from_coeffs",
    "constant",
    "identity",
    "one",
    "zero",
    "add",
    "scale",
    "shift",
    "truncate",
    "mul",
    "reciprocal",
    "mobius_map",
    "monomial_lift",
]

DEFAULT_ORDER = 256

ComplexLike = Union[complex, float, int]


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    """Coefficients c_0..c_N plus an optional disk sup-norm bound.

    ``sup_bound = 1`` marks a function with modulus at most 1 on the unit
    disk; such series satisfy |c_k| <= 1 and the sharper |c_k| <= 1 - |c_0|^2
    for k >= 1, and their neglected tails can be certified.
    """

    coeffs: np.ndarray
    sup_bound: Optional[float] = None

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=complex, copy=True)
        if arr.ndim != 1 or arr.size == 0:
            raise ParameterOutOfRange(
                "a series needs a one-dimensional, nonempty coefficient vector"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)
        if self.sup_bound is not None:
            b = float(self.sup_bound)
            if not np.isfinite(b) or b < 0.0:
                raise ParameterOutOfRange("sup_bound must be finite and nonnegative")
            object.__setattr__(self, "sup_bound", b)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    def __repr__(self):
        head = np.array2string(self.coeffs[:4], precision=6, separator=", ")
        return (
            f"TruncatedSeries(order={self.order}, sup_bound={self.sup_bound}, "
            f"coeffs={head}{'...' if self.order > 3 else ''})"
        )


def from_coeffs(seq: Sequence[ComplexLike], sup_bound: Optional[float] = None) -> TruncatedSeries:
    return TruncatedSeries(np.asarray(seq, dtype=complex), sup_bound)


def constant(c: ComplexLike, order: int = 0, sup_bound: Optional[float] = None) -> TruncatedSeries:
    coeffs = np.zeros(order + 1, dtype=complex)
    coeffs[0] = c
    if sup_bound is None:
        sup_bound = abs(complex(c))
    return TruncatedSeries(coeffs, sup_bound)


def identity(order: int) -> TruncatedSeries:
    """The coordinate function z, a Schur-class map of the disk."""
    if order < 1:
        raise ParameterOutOfRange("identity needs order >= 1")
    coeffs = np.zeros(order + 1, dtype=complex)
    coeffs[1] = 1.0
    return TruncatedSeries(coeffs, 1.0)


def one(order: int = 0) -> TruncatedSeries:
    return constant(1.0, order, 1.0)


def zero(order: int = 0) -> TruncatedSeries:
    return constant(0.0, order, 0.0)


def add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    n = min(a.order, b.order)
    return TruncatedSeries(a.coeffs[: n + 1] + b.coeffs[: n + 1], None)


def scale(a: TruncatedSeries, c: ComplexLike) -> TruncatedSeries:
    bound = None if a.sup_bound is None else a.sup_bound * abs(complex(c))
    return TruncatedSeries(a.coeffs * complex(c), bound)


def shift(a: TruncatedSeries, k: int) -> TruncatedSeries:
    """Multiply by z^k, keeping the working order (top coefficients drop off)."""
    if k < 0:
        raise ParameterOutOfRange("shift exponent must be nonnegative")
    coeffs = np.zeros(a.order + 1, dtype=complex)
    if k <= a.order:
        coeffs[k:] = a.coeffs[: a.order + 1 - k]
    return TruncatedSeries(coeffs, a.sup_bound)


def truncate(a: TruncatedSeries, order: int) -> TruncatedSeries:
    if order > a.order:
        raise ParameterOutOfRange(
            f"cannot extend a series of order {a.order} to order {order}"
        )
    return TruncatedSeries(a.coeffs[: order + 1], a.sup_bound)


def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated to the shared reliable order.

    c_k = sum_{i+j=k} a_i b_j for k <= min(order(a), order(b)); the sup
    bound multiplies when both factors carry one.
    """
    n = min(a.order, b.order)
    coeffs = np.convolve(a.coeffs, b.coeffs)[: n + 1]
    bound = None
    if a.sup_bound is not None and b.sup_bound is not None:
        bound = a.sup_bound * b.sup_bound
    return TruncatedSeries(coeffs, bound)


def _divide(num: np.ndarray, den: np.ndarray, order: int) -> np.ndarray:
    # Long division num/den to `order` terms via the linear recurrence
    #   d_0 q_k = n_k - sum_{j=1..k} d_j q_{k-j},
    # which is exactly an IIR filter applied to the numerator.
    impulse = np.zeros(order + 1, dtype=complex)
    m = min(num.size, order + 1)
    impulse[:m] = num[:m]
    return lfilter([1.0 + 0.0j], den, impulse)


def reciprocal(a: TruncatedSeries, zero_tol: float = 1e-12) -> TruncatedSeries:
    """Series g with mul(a, g) = 1 up to order(a).

    Uses the standard recurrence g_0 = 1/c_0,
    g_k = -(1/c_0) sum_{j=1..k} c_j g_{k-j}.
    """
    if abs(a.coeffs[0]) <= zero_tol:
        raise ZeroConstantTerm(
            f"constant term has modulus {abs(a.coeffs[0]):.3e} <= {zero_tol:.0e}"
        )
    coeffs = _divide(np.ones(1, dtype=complex), a.coeffs, a.order)
    return TruncatedSeries(coeffs, None)


def mobius_map(a: float, s: TruncatedSeries) -> TruncatedSeries:
    """Post-compose with the disk automorphism w -> (a - w)/(1 - a w).

    Requires a in [0, 1) and a disk-bounded input (sup_bound <= 1), which
    keeps the denominator's constant term away from zero and makes the
    result a Schur-class series (sup_bound 1).  The map is an involution:
    applying it twice returns the input up to truncation.
    """
    a = float(a)
    if not 0.0 <= a < 1.0:
        raise ParameterOutOfRange(f"mobius parameter a={a} outside [0, 1)")
    if s.sup_bound is None or s.sup_bound > 1.0 + 1e-12:
        raise ParameterOutOfRange("mobius_map needs an input with sup_bound <= 1")
    num = -s.coeffs.copy()
    num[0] += a
    den = -a * s.coeffs
    den[0] += 1.0
    coeffs = _divide(num, den, s.order)
    return TruncatedSeries(coeffs, 1.0)


def monomial_lift(s: TruncatedSeries, m: int, p: int) -> TruncatedSeries:
    """Build z^m * s(z^p): coefficient s_k lands at index k*p + m, rest zero."""
    if m < 0 or p < 1:
        raise ParameterOutOfRange(f"monomial_lift needs m >= 0 and p >= 1, got m={m}, p={p}")
    coeffs = np.zeros(s.order * p + m + 1, dtype=complex)
    coeffs[m :: p] = s.coeffs
    # |z^m s(z^p)| <= |s| on the disk, so the bound carries over.
    return TruncatedSeries(coeffs, s.sup_bound)
