"""Construction of disk-to-closed-disk analytic functions.

Two sources of test functions:

* the parameter recursion, which turns any sequence gamma_0..gamma_M with
  |gamma_j| < 1 (last entry may reach modulus 1) into a function f with
  |f| <= 1 on the unit disk, and reaches the whole class as the sequence
  varies;
* the named extremal families (disk automorphisms and their lacunary
  lifts) that realize equality in the coefficient inequalities.

Everything here is deterministic: the sampler is keyed by an integer
seed, and identical seeds reproduce identical series bit for bit.  A
bank of samples is drawn in one batch (:func:`sample_bank`): each sample
still draws from its own generator, seeded with its own seed, and the
recursion and the long division run over all rows at once; a single
sample is the one-row case.
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
    "taylor_rows",
    "schur_to_taylor",
    "sample_gammas",
    "sample_parameters",
    "sample_bank",
    "sample_schur",
    "extremal_family",
    "EXTREMAL_KINDS",
]

SAMPLING_RADIUS = 0.95

EXTREMAL_KINDS = ("L1", "LacunaryD", "L2", "Monomial")


def _check_gammas(gammas: np.ndarray) -> None:
    """The recursion's parameter rules over an (S, depth) array, one row each.

    Every entry must be finite, interior entries must have modulus
    strictly below 1, and only the final entry may reach the boundary
    circle.  Errors name the first offending entry (and its row, for a
    batch).
    """
    if gammas.ndim != 2:
        raise ParameterOutOfRange("parameters must be an (S, depth) array")
    if gammas.shape[1] == 0:
        raise ParameterOutOfRange("at least one parameter is required")

    def fail(i, what):
        row = "" if gammas.shape[0] == 1 else f"row {i}: "
        raise ParameterOutOfRange(row + what)

    for i, j in np.argwhere(~np.isfinite(gammas))[:1]:
        fail(i, f"parameter {j} is not finite: {gammas[i, j]}")
    mods = np.abs(gammas)
    for i, j in np.argwhere(mods[:, :-1] >= 1.0)[:1]:
        fail(i, f"interior parameter {j} has modulus {mods[i, j]:.6f} >= 1")
    for i in np.flatnonzero(mods[:, -1] > 1.0 + 1e-12)[:1]:
        fail(i, f"final parameter has modulus {mods[i, -1]:.6f} > 1")


@dataclass(frozen=True)
class SchurParameters:
    """Recursion parameters gamma_0..gamma_M.

    Interior entries must have modulus strictly below 1; only the final
    entry is allowed on the boundary circle.
    """

    gammas: Tuple[complex, ...]

    def __post_init__(self):
        gammas = tuple(complex(g) for g in self.gammas)
        _check_gammas(np.array([gammas], dtype=complex))
        object.__setattr__(self, "gammas", gammas)

    def __len__(self):
        return len(self.gammas)


ParamsLike = Union[SchurParameters, Sequence[complex]]


def _as_params(params: ParamsLike) -> SchurParameters:
    if isinstance(params, SchurParameters):
        return params
    return SchurParameters(tuple(params))


def taylor_rows(gammas, order: int) -> np.ndarray:
    """Taylor coefficients 0..order of one recursion per row of ``gammas``.

    ``gammas`` is an (S, depth) array; row i holds gamma_0..gamma_M of
    function i and obeys the :class:`SchurParameters` rules.  Returns an
    (S, order + 1) complex array.  See :func:`schur_to_taylor` for the
    recursion; here P and Q are carried for all rows at once, and the long
    division P/Q runs as one recurrence over k across the rows.  Q(0) = 1
    and Q has degree at most depth - 1, so
        q_k = p_k - sum_{j=1..depth-1} Q_j q_{k-j}.
    The lags are summed in ``scipy.signal.lfilter``'s order, the highest
    lag first, and each complex product is formed from its real parts as
    lfilter forms it, so a row equals the series of that one function
    divided on its own.
    """
    gammas = np.asarray(gammas, dtype=complex)
    _check_gammas(gammas)
    if order < 0:
        raise ParameterOutOfRange("order must be nonnegative")
    rows, depth = gammas.shape
    num = gammas[:, -1:]
    den = np.ones((rows, 1), dtype=complex)
    zero = np.zeros((rows, 1), dtype=complex)
    for j in range(depth - 2, -1, -1):
        g = gammas[:, j : j + 1]
        znum = np.hstack((zero, num))
        den = np.hstack((den, zero))
        num, den = g * den + znum, den + np.conj(g) * znum

    # Real and imaginary parts on axis 1 and rows last, so that every step
    # reads and writes contiguous (2, S) blocks.
    out = np.zeros((order + 1, 2, rows))
    head = min(depth, order + 1)
    out[:head, 0] = num.real.T[:head]
    out[:head, 1] = num.imag.T[:head]
    lags = den[:, 1:].T  # Q_1..Q_{depth-1}
    # Q_j q = (Re Q_j Re q - Im Q_j Im q, Im Q_j Re q + Re Q_j Im q)
    by_re = np.stack((lags.real, lags.imag), axis=1)
    by_im = np.stack((-lags.imag, lags.real), axis=1)
    # ahead[t] collects -Q_j q_{t-j} as each q_{t-j} is found, so the
    # highest lag arrives first, as in lfilter's delay line.
    ahead = np.zeros((order + depth, 2, rows))
    prod = np.empty_like(by_re)
    term = np.empty_like(by_re)
    for k in range(order + 1 if depth > 1 else 0):
        q = out[k]
        q += ahead[k]  # q_k = (lagged sum) + p_k
        np.multiply(by_re, q[0], out=prod)
        np.multiply(by_im, q[1], out=term)
        prod += term
        ahead[k + 1 : k + depth] -= prod
    return np.ascontiguousarray(out.transpose(2, 0, 1)).view(complex)[..., 0]


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
    O(order * M) cost.  This is the one-row case of :func:`taylor_rows`.
    """
    params = _as_params(params)
    return TruncatedSeries(taylor_rows([params.gammas], order)[0], 1.0)


def sample_gammas(seeds: Sequence[int], depth: int,
                  radius: float = SAMPLING_RADIUS) -> np.ndarray:
    """Parameters of one seeded draw per seed, as an (S, depth) array.

    Row i draws gamma_0..gamma_{depth-1} area-uniformly on the disk of
    ``radius`` from ``np.random.default_rng(seeds[i])``: first the depth
    uniforms of the moduli, then the depth uniform angles.
    """
    if depth < 1:
        raise ParameterOutOfRange("depth must be >= 1")
    seeds = list(seeds)
    area = np.empty((len(seeds), depth))
    theta = np.empty((len(seeds), depth))
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        area[i] = rng.uniform(size=depth)
        theta[i] = rng.uniform(0.0, 2.0 * np.pi, size=depth)
    return radius * np.sqrt(area) * np.exp(1j * theta)


def sample_parameters(seed: int, depth: int, radius: float = SAMPLING_RADIUS) -> SchurParameters:
    """Draw gamma_0..gamma_{depth-1} area-uniformly on the disk of ``radius``."""
    return SchurParameters(tuple(sample_gammas([seed], depth, radius)[0]))


def sample_bank(seeds: Sequence[int], depth: int, order: int = DEFAULT_ORDER,
                radius: float = SAMPLING_RADIUS) -> np.ndarray:
    """Taylor coefficients of one seeded member of the class per seed, as rows.

    Row i is the series of ``sample_schur(seeds[i], depth, order, radius)``;
    the whole bank is drawn and expanded in one batch.
    """
    return taylor_rows(sample_gammas(seeds, depth, radius), order)


def sample_schur(seed: int, depth: int, order: int = DEFAULT_ORDER,
                 radius: float = SAMPLING_RADIUS) -> TruncatedSeries:
    """Deterministic random member of the class; same seed, same output."""
    return TruncatedSeries(sample_bank([seed], depth, order, radius)[0], 1.0)


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
