"""Construction of disk-to-closed-disk analytic functions.

Two sources of test functions:

* the parameter recursion, which turns any sequence gamma_0..gamma_M with
  |gamma_j| < 1 (last entry may reach modulus 1) into a function f with
  |f| <= 1 on the unit disk, and reaches the whole class as the sequence
  varies;
* the named extremal families (disk automorphisms and their lacunary
  lifts) that realize equality in the coefficient inequalities.

Everything here is deterministic: the sampler is keyed by an integer
seed, and identical seeds reproduce identical series bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from . import series as ps
from .errors import ParameterOutOfRange
from .series import DEFAULT_ORDER, TruncatedSeries

__all__ = [
    "SchurParameters",
    "schur_to_taylor",
    "sample_parameters",
    "sample_schur",
    "extremal_family",
    "EXTREMAL_KINDS",
]

SAMPLING_RADIUS = 0.95

EXTREMAL_KINDS = ("L1", "LacunaryD", "L2", "Monomial")


@dataclass(frozen=True)
class SchurParameters:
    """Recursion parameters gamma_0..gamma_M.

    Interior entries must have modulus strictly below 1; only the final
    entry is allowed on the boundary circle.
    """

    gammas: Tuple[complex, ...]

    def __post_init__(self):
        gammas = tuple(complex(g) for g in self.gammas)
        if not gammas:
            raise ParameterOutOfRange("at least one parameter is required")
        for j, g in enumerate(gammas):
            if not np.isfinite(g):
                raise ParameterOutOfRange(f"parameter {j} is not finite: {g}")
        for j, g in enumerate(gammas[:-1]):
            if abs(g) >= 1.0:
                raise ParameterOutOfRange(
                    f"interior parameter {j} has modulus {abs(g):.6f} >= 1"
                )
        if abs(gammas[-1]) > 1.0 + 1e-12:
            raise ParameterOutOfRange(
                f"final parameter has modulus {abs(gammas[-1]):.6f} > 1"
            )
        object.__setattr__(self, "gammas", gammas)

    def __len__(self):
        return len(self.gammas)


ParamsLike = Union[SchurParameters, Sequence[complex]]


def _as_params(params: ParamsLike) -> SchurParameters:
    if isinstance(params, SchurParameters):
        return params
    return SchurParameters(tuple(params))


def schur_to_taylor(params: ParamsLike, order: int) -> TruncatedSeries:
    """Taylor series of the function defined by the backward recursion.

    f_M = gamma_M and, going down,
        f_j(z) = (gamma_j + z f_{j+1}(z)) / (1 + conj(gamma_j) z f_{j+1}(z)),
    with f = f_0 truncated at ``order``.  Each step is a disk automorphism
    applied to z*f_{j+1}, so |f| <= 1 on the disk and the result carries
    sup_bound 1.

    Those automorphisms are Moebius maps, so f = P/Q is rational of degree
    at most M, and the recursion carries the two polynomials:
        P <- gamma_j Q + z P,    Q <- Q + conj(gamma_j) z P,
    from P = gamma_M, Q = 1.  Q(0) = 1 at every step, and since
    |Q'|^2 - |P'|^2 = (1 - |gamma_j|^2)(|Q|^2 - |z P|^2), Q has no zero in
    the open disk.  One long division P/Q then gives every coefficient at
    O(order * M) cost.
    """
    params = _as_params(params)
    if order < 0:
        raise ParameterOutOfRange("order must be nonnegative")
    gammas = params.gammas
    num = np.array([gammas[-1]], dtype=complex)
    den = np.ones(1, dtype=complex)
    for g in reversed(gammas[:-1]):
        znum = np.concatenate(([0.0], num))
        den = np.append(den, 0.0)
        num, den = g * den + znum, den + np.conj(g) * znum
    return TruncatedSeries(ps._divide(num, den, order), 1.0)


def sample_parameters(seed: int, depth: int, radius: float = SAMPLING_RADIUS) -> SchurParameters:
    """Draw gamma_0..gamma_{depth-1} area-uniformly on the disk of ``radius``."""
    if depth < 1:
        raise ParameterOutOfRange("depth must be >= 1")
    rng = np.random.default_rng(seed)
    rho = radius * np.sqrt(rng.uniform(size=depth))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=depth)
    return SchurParameters(tuple(rho * np.exp(1j * theta)))


def sample_schur(seed: int, depth: int, order: int = DEFAULT_ORDER,
                 radius: float = SAMPLING_RADIUS) -> TruncatedSeries:
    """Deterministic random member of the class; same seed, same output."""
    return schur_to_taylor(sample_parameters(seed, depth, radius), order)


def extremal_family(kind: str, a: float, m: int, p: int,
                    order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Named families realizing equality in the coefficient bounds.

    L1:        (a - z) / (1 - a z), the plain disk automorphism.
    LacunaryD: z^m (a - z^p) / (1 - a z^p); index m carries a, index
               k*p + m carries modulus (1 - a^2) a^(k-1) for k >= 1.
    L2:        z^(p+m) (a - z^p) / (1 - a z^p), the vanishing-start variant.
    Monomial:  z^(m+p) (the parameter a is ignored).
    """
    if kind not in EXTREMAL_KINDS:
        raise ParameterOutOfRange(f"unknown extremal family {kind!r}")
    a = float(a)
    if kind != "Monomial" and not 0.0 <= a < 1.0:
        raise ParameterOutOfRange(f"family parameter a={a} outside [0, 1)")
    if kind in ("LacunaryD", "L2"):
        if not (p >= 1 and 0 <= m <= p):
            raise ParameterOutOfRange(
                f"lacunary families need 1 <= p and 0 <= m <= p, got m={m}, p={p}"
            )
    if order < 1:
        raise ParameterOutOfRange("order must be >= 1")

    if kind == "Monomial":
        k = m + p
        coeffs = np.zeros(order + 1, dtype=complex)
        if k <= order:
            coeffs[k] = 1.0
        return TruncatedSeries(coeffs, 1.0)

    if kind == "L1":
        return ps.mobius_map(a, ps.identity(order))

    lift_m = m if kind == "LacunaryD" else p + m
    base_order = max(1, -((lift_m - order) // p))  # ceil((order - lift_m) / p)
    base = ps.mobius_map(a, ps.identity(base_order))
    lifted = ps.monomial_lift(base, lift_m, p)
    return ps.truncate(lifted, order) if lifted.order > order else lifted
