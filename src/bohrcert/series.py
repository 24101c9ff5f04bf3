"""Truncated complex power series.

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

What is here: the :class:`TruncatedSeries` type, :func:`truncate` (the
slices cut their components to one order with it), and the Cauchy
product :func:`mul` and long-division :func:`reciprocal`.  No library
code calls those two any more: the sampler divides its rational form in
``schur.taylor_rows`` and the extremal families are written in closed
form in ``schur``.  :func:`reciprocal` imports scipy when it is called,
so importing the package loads numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterOutOfRange, ZeroConstantTerm

__all__ = [
    "DEFAULT_ORDER",
    "TruncatedSeries",
    "truncate",
    "mul",
    "reciprocal",
]

DEFAULT_ORDER = 256


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


def truncate(a: TruncatedSeries, order: int) -> TruncatedSeries:
    if order > a.order:
        raise ParameterOutOfRange(
            f"cannot extend a series of order {a.order} to order {order}"
        )
    return TruncatedSeries(a.coeffs[: order + 1], a.sup_bound)


# No library code calls this; it stays because perfbench's tracer wraps it by name.
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


# No library code calls this; it stays because perfbench's tracer wraps it by name.
def reciprocal(a: TruncatedSeries, zero_tol: float = 1e-12) -> TruncatedSeries:
    """Series g with mul(a, g) = 1 up to order(a).

    Uses the standard recurrence g_0 = 1/c_0,
    g_k = -(1/c_0) sum_{j=1..k} c_j g_{k-j}, which is exactly an IIR
    filter applied to a unit impulse.
    """
    from scipy.signal import lfilter  # slow and large to import, and only this uses it

    if abs(a.coeffs[0]) <= zero_tol:
        raise ZeroConstantTerm(
            f"constant term has modulus {abs(a.coeffs[0]):.3e} <= {zero_tol:.0e}"
        )
    impulse = np.zeros(a.order + 1, dtype=complex)
    impulse[0] = 1.0
    return TruncatedSeries(lfilter([1.0 + 0.0j], a.coeffs, impulse), None)
