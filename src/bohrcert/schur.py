"""Construction of disk-to-closed-disk analytic functions.

Two sources of test functions:

* the parameter recursion, which turns any sequence gamma_0..gamma_M with
  |gamma_j| < 1 (last entry may reach modulus 1) into a function f with
  |f| <= 1 on the unit disk, and reaches the whole class as the sequence
  varies;
* the named extremal families (disk automorphisms and their lacunary
  lifts) that realize equality in the coefficient inequalities.  They
  are written in closed form: z^m (a - z^p)/(1 - a z^p) has lattice
  moduli mu_0 = a and mu_k = (1 - a^2) a^(k-1), which
  :func:`family_moduli` writes for a whole grid of parameters at once.
  The sharpness scans read that table, and :func:`extremal_family`
  places one row of it on the lattice.

Everything here is deterministic: the sampler is keyed by an integer
seed, and identical seeds reproduce identical series bit for bit.  A
bank of samples is drawn in one batch (:func:`sample_bank`): each sample
draws the stream of ``np.random.default_rng(seed)`` for its own seed,
with the seeding hash and the PCG64 steps computed for the whole bank at
once in uint64 arithmetic, and the recursion and the long division run
over all rows at once; a single sample is the one-row case.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from .errors import ParameterOutOfRange, check_shape
from .series import DEFAULT_ORDER, TruncatedSeries

__all__ = [
    "SchurParameters",
    "taylor_rows",
    "schur_to_taylor",
    "sample_gammas",
    "sample_bank",
    "sample_schur",
    "family_moduli",
    "extremal_family",
    "EXTREMAL_KINDS",
]

SAMPLING_RADIUS = 0.95  # the sampler's parameters lie in the disk of this radius

EXTREMAL_KINDS = ("L1", "LacunaryD", "L2", "Monomial")


def _hash_steps(init: int, mult: int, n: int):
    """(xor, multiplier) of n SeedSequence hash steps: h, then h * mult, mod 2^32."""
    h = [init * mult ** k & 0xFFFFFFFF for k in range(n + 1)]
    return [(np.uint32(x), np.uint32(m)) for x, m in zip(h, h[1:])]


# numpy's SeedSequence (NEP 19) with its pool of 4 words: 4 + 12 hashes
# mix the entropy in, 8 more give generate_state(4, uint64); then PCG64's
# setseq seeding step with the 128-bit LCG multiplier.
_MIX_STEPS = _hash_steps(0x43B0D7E5, 0x931E8875, 16)
_OUT_STEPS = _hash_steps(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_M64, _M128 = (1 << 64) - 1, (1 << 128) - 1


def _fold(x: np.ndarray) -> np.ndarray:
    return x ^ (x >> np.uint32(16))


def _hash(x: np.ndarray, step) -> np.ndarray:
    xor, mult = step
    return _fold((x ^ xor) * mult)


def _seed_ints(seeds: Sequence[int]) -> List[int]:
    """The seeds as ints, each checked to be an integer in [0, 2^128)."""
    ints = []
    for seed in seeds:
        try:
            ints.append(operator.index(seed))
        except TypeError:
            raise ParameterOutOfRange(
                f"seed must be an integer in [0, 2**128), got {seed!r}") from None
    for seed in (min(ints, default=0), max(ints, default=0)):
        if not 0 <= seed <= _M128:
            raise ParameterOutOfRange(f"seed must be an integer in [0, 2**128), got {seed}")
    return ints


def _seed_words(seeds: Sequence[int]) -> np.ndarray:
    """(S, 4) uint32 words of each seed, least significant first."""
    hi, lo = _halves(_seed_ints(seeds))
    return np.stack((lo, hi), axis=1).astype("<u8").view("<u4").astype(np.uint32)


def _halves(values) -> Tuple[np.ndarray, np.ndarray]:
    """(hi, lo) uint64 halves of integers in [0, 2^128)."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & _M64 for v in values], dtype=np.uint64))


def _mul(x, y):
    """(hi, lo) uint64 halves of x * y mod 2^128, for x and y given as halves.

    The halves are arrays that broadcast together.  The high word of the
    64 x 64 bit product of the low words is built from 32-bit limbs, so
    that no partial product overflows uint64.
    """
    (x_hi, x_lo), (y_hi, y_lo) = x, y
    a1, a0 = x_lo >> 32, x_lo & 0xFFFFFFFF
    b1, b0 = y_lo >> 32, y_lo & 0xFFFFFFFF
    cross_a, cross_b = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (cross_a & 0xFFFFFFFF) + (cross_b & 0xFFFFFFFF)
    top = a1 * b1 + (cross_a >> 32) + (cross_b >> 32) + (mid >> 32)
    return top + x_lo * y_hi + x_hi * y_lo, x_lo * y_lo


def _add(x, y):
    """(hi, lo) uint64 halves of x + y mod 2^128."""
    lo = x[1] + y[1]
    return x[0] + y[0] + (lo < y[1]), lo


def _pcg_states(seeds: Sequence[int]):
    """PCG64 (state, inc) of ``np.random.default_rng(seed)`` per seed, as (hi, lo) halves.

    The states come from numpy's own seeding, run for all seeds at once:
    SeedSequence hashes the seed's uint32 words into a 4-word pool and
    expands it to two 128-bit words (s, i), and PCG64's setseq step makes
    inc = 2 i + 1 and state = (inc + s) * M + inc, all mod 2^128.  Seeds
    are zero-padded to 4 words, which is exact below 2^128, because
    SeedSequence hashes a 0 for each pool word past the entropy.  Seeds
    outside [0, 2^128) raise ParameterOutOfRange.
    """
    words = _seed_words(seeds)
    steps = iter(_MIX_STEPS)
    pool = [_hash(words[:, i], next(steps)) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _fold(_MIX_L * pool[dst] - _MIX_R * _hash(pool[src], next(steps)))
    out = np.stack([_hash(pool[i % 4], step) for i, step in enumerate(_OUT_STEPS)], axis=1)
    s_hi, s_lo, i_hi, i_lo = out.astype("<u4").view("<u8").T
    inc = (i_hi << 1 | i_lo >> 63, i_lo << 1 | 1)
    return _add(_mul(_add(inc, (s_hi, s_lo)), _halves([_PCG_MULT])), inc), inc


def _uniforms(seeds: Sequence[int], count: int) -> np.ndarray:
    """(S, count) array: the first ``count`` of ``default_rng(seed).random()`` per seed.

    Draw k (k = 1..count) steps PCG64's state k times, state <- M state +
    inc mod 2^128, which takes it to M^k state + (1 + M + ... + M^(k-1))
    inc; so all draws of all seeds are two products with per-draw
    constants, one numpy pass for the whole bank.  Each state becomes a
    double as numpy makes it: the XSL-RR output rotr64(hi ^ lo, hi >> 58),
    then its top 53 bits times 2^-53.
    """
    (s_hi, s_lo), (i_hi, i_lo) = _pcg_states(seeds)
    mults, sums = [1], [0]
    for _ in range(count):
        mults.append(mults[-1] * _PCG_MULT & _M128)
        sums.append((sums[-1] * _PCG_MULT + 1) & _M128)
    hi, lo = _add(_mul((s_hi[:, None], s_lo[:, None]), _halves(mults[1:])),
                  _mul((i_hi[:, None], i_lo[:, None]), _halves(sums[1:])))
    x, rot = hi ^ lo, hi >> 58
    x = x >> rot | x << (64 - rot & 63)
    return (x >> 11) * 2.0 ** -53


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
    # reads and writes contiguous (2, S) blocks.  Row k of ``buf`` collects
    # -Q_j q_{k-j} as each q_{k-j} is found, so the highest lag arrives
    # first, as in lfilter's delay line; step k adds p_k to it and the row
    # is q_k from then on.  p_k = 0 from k = depth on, and the lagged sums
    # start at +0.0 and never reach -0.0, so leaving that addition out
    # changes no bit of q_k = (lagged sum) + p_k.
    buf = np.zeros((order + depth, 2, rows))
    p = np.stack((num.real.T, num.imag.T), axis=1)
    lags = den[:, 1:].T  # Q_1..Q_{depth-1}
    # Q_j q = (Re Q_j Re q - Im Q_j Im q, Im Q_j Re q + Re Q_j Im q), as
    # table[0] * Re q + table[1] * Im q
    table = np.stack((np.stack((lags.real, lags.imag), axis=1),
                      np.stack((-lags.imag, lags.real), axis=1)))
    prod = np.empty_like(table)
    total, term = prod
    if depth == 1:  # a constant: nothing to divide, and p_0 keeps its sign of zero
        buf[0] = p[0]
    for k in range(order + 1 if depth > 1 else 0):
        q = buf[k]
        if k < depth:
            q += p[k]
        np.multiply(table, q[:, None, None], out=prod)
        np.add(total, term, out=total)
        buf[k + 1 : k + depth] -= total
    return np.ascontiguousarray(buf[:order + 1].transpose(2, 0, 1)).view(complex)[..., 0]


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


def sample_gammas(seeds: Sequence[int], depth: int) -> np.ndarray:
    """Parameters of one seeded draw per seed, as an (S, depth) array.

    Row i draws gamma_0..gamma_{depth-1} area-uniformly on the disk of
    radius ``SAMPLING_RADIUS`` from the stream of
    ``np.random.default_rng(seeds[i])``: first the depth uniforms of the
    moduli, then the depth uniform angles.  No generator is built: the
    seeding and every PCG64 step run for the whole bank at once (see
    :func:`_uniforms`), so the draws cost no Python loop over the seeds.
    Seeds are integers in [0, 2^128).
    """
    if depth < 1:
        raise ParameterOutOfRange("depth must be >= 1")
    u = _uniforms(list(seeds), 2 * depth)
    # uniform(0, 2 pi) is 0 + 2 pi * random(), so this is the same angle
    theta = 2.0 * np.pi * u[:, depth:]
    return SAMPLING_RADIUS * np.sqrt(u[:, :depth]) * np.exp(1j * theta)


def sample_bank(seeds: Sequence[int], depth: int, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Taylor coefficients of one seeded member of the class per seed, as rows.

    Row i is the series of ``sample_schur(seeds[i], depth, order)``; the
    whole bank is drawn and expanded in one batch.
    """
    return taylor_rows(sample_gammas(seeds, depth), order)


def sample_schur(seed: int, depth: int, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Deterministic random member of the class; same seed, same output."""
    return TruncatedSeries(sample_bank([seed], depth, order)[0], 1.0)


def family_moduli(a_grid, length: int) -> np.ndarray:
    """Moduli of z^m (a - z^p)/(1 - a z^p) per family parameter, as rows.

    Row layout: mu_0 = a, mu_k = (1 - a^2) a^(k-1) for k >= 1.
    """
    a = np.asarray(a_grid, dtype=float)[:, None]
    mods = a ** np.maximum(np.arange(length) - 1, 0)  # one (rows, length) array
    mods *= 1.0 - a ** 2
    mods[:, 0] = a[:, 0]
    return mods


def extremal_family(kind: str, a: float, m: int, p: int,
                    order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Named families realizing equality in the coefficient bounds.

    L1:        (a - z) / (1 - a z), the plain disk automorphism.
    LacunaryD: z^m (a - z^p) / (1 - a z^p); index m carries a, index
               k*p + m carries -(1 - a^2) a^(k-1) for k >= 1.
    L2:        z^(p+m) (a - z^p) / (1 - a z^p), the vanishing-start variant.
    Monomial:  z^(m+p) (the parameter a is ignored).

    Every kind takes a shape 1 <= p, 0 <= m <= p (L1 ignores it).  The
    automorphism kinds are built in closed form: one row of
    :func:`family_moduli` placed on the lattice with signs a, -mu_k.
    """
    if kind not in EXTREMAL_KINDS:
        raise ParameterOutOfRange(f"unknown extremal family {kind!r}")
    check_shape(m, p, "extremal families")
    a = float(a)
    if kind != "Monomial" and not 0.0 <= a < 1.0:
        raise ParameterOutOfRange(f"family parameter a={a} outside [0, 1)")
    if order < 1:
        raise ParameterOutOfRange("order must be >= 1")

    coeffs = np.zeros(order + 1, dtype=complex)
    if kind == "Monomial":
        if m + p <= order:
            coeffs[m + p] = 1.0
        return TruncatedSeries(coeffs, 1.0)

    start, step = {"L1": (0, 1), "LacunaryD": (m, p), "L2": (p + m, p)}[kind]
    lattice = coeffs[start::step]
    if lattice.size:
        row = family_moduli([a], lattice.size)[0]
        row[1:] *= -1.0
        lattice[:] = row
    return TruncatedSeries(coeffs, 1.0)
