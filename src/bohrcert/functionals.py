"""Left and right sides of the coefficient inequalities.

Everything is evaluated from a :class:`LacunaryProfile`, the moduli
mu_k = |a_{k p + m}| of a function supported on the index lattice
m, p + m, 2p + m, ... (a gap-free function is the shape (0, 1) case).
Profiles keep moduli only; every functional in the catalog depends on
|a_k| alone, so phases are dropped at construction.

The catalog identifiers (``THEOREM_IDS``):

=============  ==============================================================
ThmB           refined majorant bound, shape (0, 1)
LemDOdd        odd-part lacunary split bound, any shape
LemDEven       even-part lacunary split bound, any shape
ThmC           alternating lacunary sum plus weighted square sum, bound 1
Thm31          refined majorant with |f(0)|^s origin term, shape (0, 1), bound 1
Thm32          vanishing-start lacunary refinement with adaptive weight, bound 1
Thm34          odd-part sum plus weighted square sum, bound 1
Thm41          alternating variant of Thm34; the same bound as ThmC, term by term
Cor43          alternating sum with origin-weighted square term, bound 1
BombieriUpper  majorant envelope (3 - sqrt(8(1-r^2)))/r on [1/3, 1/sqrt(2)]
BBUpper        majorant envelope 1/sqrt(1-r^2) on (1/sqrt(2), 1)
=============  ==============================================================

ThmB and the LemD pair also have dedicated entry points,
:func:`refined_thmB` and :func:`lemmaD_bounds`.

Where a theorem's facts live: its left side (weighted lattice power sums
of mu, mu^2 or signed mu), its right side and the conditions it is stated
under (shape, odd gap, vanishing start, radius window) are one entry of
``_THEOREMS``, evaluated by one engine.  Its radius equation is in
:mod:`bohrcert.radius`; how a campaign runs it is in ``harness._ROWS``.

All evaluators certify their truncation: with coefficient moduli bounded
by ``coeff_bound`` (1 for anything drawn from the unit-ball classes), the
neglected tail of the linear sums at radius r is at most
coeff_bound * r^(L*p + m) / (1 - r^p) where L = len(mods).  When that
exceeds the truncation tolerance the evaluation raises
``TruncationInsufficient`` instead of returning a silently wrong number.
Within the stored moduli, each lattice sum also skips, per radius, the
columns whose whole tail is at most 2^-64 * coeff_bound^power (power 1
for the linear and signed sums, 2 for the square sums, s for the origin
term), far below the truncation tolerance and the rounding of the sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from .errors import (
    OddGapRequired,
    ParameterOutOfRange,
    RadiusOutOfRange,
    RadiusOutOfWindow,
    ShapeMismatch,
    TruncationInsufficient,
    UnknownTheorem,
)
from .series import TruncatedSeries

__all__ = [
    "DEFAULT_MARGIN_TOL",
    "DEFAULT_TRUNC_TOL",
    "THEOREM_IDS",
    "LacunaryProfile",
    "InequalityCheck",
    "profile_from_series",
    "bohr_sums",
    "bohr_sums_grid",
    "refined_thmB",
    "lemmaD_bounds",
    "evaluate_theorem",
    "evaluate_theorem_grid",
    "theorem_margins",
    "lacunary_length_for",
]

DEFAULT_MARGIN_TOL = 1e-9
DEFAULT_TRUNC_TOL = 1e-10

BOMBIERI_LO = 1.0 / 3.0
BOMBIERI_HI = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class LacunaryProfile:
    """Moduli mu_0..mu_K of the coefficients on the lattice k*p + m.

    ``coeff_bound`` is the certified bound on every coefficient modulus of
    the underlying function, including the ones beyond the truncation; it
    feeds the tail certificates.  Anything derived from a unit-ball class
    gets 1.  ``exact=True`` marks a profile whose stored moduli describe
    the whole function (polynomials: monomials, zero), so there is no
    tail to certify.
    """

    m: int
    p: int
    mods: np.ndarray
    coeff_bound: float = 1.0
    exact: bool = False

    def __post_init__(self):
        if not (self.p >= 1 and 0 <= self.m <= self.p):
            raise ParameterOutOfRange(
                f"profile shape needs 1 <= p and 0 <= m <= p, got m={self.m}, p={self.p}"
            )
        arr = np.array(self.mods, dtype=float, copy=True)
        if arr.ndim != 1 or arr.size == 0:
            raise ParameterOutOfRange("mods must be a nonempty 1-d sequence")
        if not np.all(arr >= 0.0):  # NaN fails too
            raise ParameterOutOfRange("coefficient moduli must be nonnegative numbers")
        arr.setflags(write=False)
        object.__setattr__(self, "mods", arr)
        bound = float(self.coeff_bound)
        if not math.isfinite(bound):
            raise ParameterOutOfRange(f"coeff_bound must be finite, got {bound}")
        if bound < float(arr.max(initial=0.0)) - 1e-12:
            raise ParameterOutOfRange("coeff_bound below a stored modulus")
        object.__setattr__(self, "coeff_bound", bound)


@dataclass(frozen=True)
class InequalityCheck:
    """One evaluation record: lhs vs rhs at radius r with margin = rhs - lhs."""

    theorem_id: str
    r: float
    lhs: float
    rhs: float
    satisfied: bool
    margin: float
    tol: float = DEFAULT_MARGIN_TOL


def profile_from_series(
    s: TruncatedSeries, m: int, p: int, shape_tol: float = 1e-11
) -> LacunaryProfile:
    """Extract the lattice moduli of a series, checking it is truly lacunary.

    Off-lattice coefficients above ``shape_tol`` raise ShapeMismatch: a
    profile must describe the whole function, or the certificates lie.
    """
    if not (p >= 1 and 0 <= m <= p):
        raise ParameterOutOfRange(f"invalid shape m={m}, p={p}")
    moduli = np.abs(s.coeffs)
    mask = np.zeros(s.order + 1, dtype=bool)
    mask[m :: p] = True
    worst = float(moduli[~mask].max(initial=0.0))
    if worst > shape_tol:
        raise ShapeMismatch(
            f"series is not ({m},{p})-lacunary: off-lattice modulus {worst:.3e}"
        )
    if s.sup_bound is not None:
        # Cauchy estimate: every coefficient, stored or not, is bounded by
        # the sup norm, so the tail certificate may use it directly.
        bound = float(max(s.sup_bound, moduli.max(initial=0.0)))
    else:
        bound = float(max(1.0, moduli.max(initial=0.0)))
    return LacunaryProfile(m, p, moduli[m :: p], bound)


MAX_PROFILE_LENGTH = 1 << 16
_CUT_TOL = 2.0 ** -64  # tail a lattice sum may skip, per unit of its coefficient bound


def _cut_length(e0, d, r, bound, tol=_CUT_TOL):
    """Columns a lattice sum needs at each radius in ``r``.

    For exponents e0, e0 + d, e0 + 2d, ... and coefficients of modulus at
    most ``bound``, this is the least n with bound * r^(e0 + n d) / (1 - r^d)
    <= tol, which bounds the whole tail from column n on.  Returned as
    floats with no cap; at r = 0 only a zero exponent counts.
    """
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore"):
        need = np.log(tol * (1.0 - r ** d) / bound) / np.log(r)
    return np.where(r > 0.0, np.maximum(np.ceil((need - e0) / d), 0.0), float(e0 == 0))


def lacunary_length_for(m: int, p: int, r: float, trunc_tol: float = DEFAULT_TRUNC_TOL,
                        coeff_bound: float = 1.0) -> int:
    """Smallest mods length L whose tail certificate passes at radius r."""
    if r <= 0.0:
        return 1
    if r >= 1.0:
        raise RadiusOutOfRange(f"no finite truncation certifies r={r}")
    length = max(1, int(_cut_length(m, p, r, coeff_bound, trunc_tol)))
    if length > MAX_PROFILE_LENGTH:
        raise TruncationInsufficient(
            f"certifying r={r} at tolerance {trunc_tol:.1e} would need "
            f"{length} lattice moduli (cap {MAX_PROFILE_LENGTH})",
            r=r,
            tol=trunc_tol,
        )
    return length


# ----------------------------------------------------------------------
# batched core: mods is (S, K), r is (R,), outputs broadcast to (S, R)
# ----------------------------------------------------------------------


def _as_r_grid(r) -> np.ndarray:
    grid = np.atleast_1d(np.asarray(r, dtype=float))
    if grid.ndim != 1:
        raise ParameterOutOfRange("radius grid must be one-dimensional")
    if grid.size and not (grid.min() >= 0.0 and grid.max() < 1.0):  # NaN fails too
        raise RadiusOutOfRange(
            f"radii must lie in [0, 1), got range [{grid.min()}, {grid.max()}]"
        )
    return grid


def _psum(w: np.ndarray, exps: np.ndarray, r: np.ndarray, bound: float) -> np.ndarray:
    """sum_k w_k r^exps_k, vectorized over rows of w and entries of r.

    ``exps`` ascend in a constant step and |w_k| <= ``bound``.  Each radius
    takes only the columns :func:`_cut_length` says it needs; on a grid
    whose counts ascend, radii whose counts share a power-of-two ceiling
    share one product.  Any other grid takes one product at the largest
    count, and a count that is not a number takes every column.
    """
    exps = np.asarray(exps, dtype=float)
    width = w.shape[-1]
    need = np.full(r.size, width)
    if width > 1:
        need = np.fmin(_cut_length(exps[0], exps[1] - exps[0], r, bound), need).astype(int)
    n = need.max(initial=0)
    if need.min(initial=n) == n or np.any(need[1:] < need[:-1]):
        return w[..., :n] @ r ** exps[:n, None]
    out = np.empty(w.shape[:-1] + (r.size,))
    group = np.frexp(np.maximum(need - 1, 0))[1]  # ceil(log2(need)), ascending
    edges = np.concatenate(([0], np.flatnonzero(np.diff(group)) + 1, [r.size]))
    for lo, hi in zip(edges[:-1], edges[1:]):
        n = need[hi - 1]
        np.matmul(w[..., :n], r[lo:hi] ** exps[:n, None], out=out[..., lo:hi])
    return out


def _check_truncation(K, m, p, r, coeff_bound, trunc_tol):
    if r.size == 0:
        return
    rmax = float(r.max())
    if rmax <= 0.0:
        return
    tail = coeff_bound * rmax ** (K * p + m) / (1.0 - rmax ** p)
    if tail > trunc_tol:
        need = lacunary_length_for(m, p, rmax, trunc_tol, coeff_bound)
        raise TruncationInsufficient(
            f"tail bound {tail:.3e} exceeds {trunc_tol:.1e} at r={rmax}; "
            f"need at least {need} lattice moduli, have {K}",
            r=rmax,
            tail=tail,
            tol=trunc_tol,
        )


def _signs(k: np.ndarray, m: int, p: int) -> np.ndarray:
    return np.where((k * p + m) % 2 == 0, 1.0, -1.0)


class _Vars(NamedTuple):
    """What a weight or a right side may depend on."""

    r: np.ndarray  # (R,) radius grid
    mu0: np.ndarray  # (S, 1)
    mu1: np.ndarray  # (S, 1); zeros for one-modulus profiles
    m: int
    p: int


@dataclass(frozen=True)
class _Term:
    """weight * sum over the lattice slice ``cols`` of w_k r^(a k p + b p + c m).

    ``power`` picks w_k: 1 for mu_k, 2 for mu_k^2, "signed" for
    (-1)^(kp+m) mu_k, and "s" for mu_k^s with s taken from the extras.
    ``weight`` maps :class:`_Vars` to an array broadcasting against
    (samples, radii); None means 1.
    """

    cols: slice
    power: object
    exps: Tuple[int, int, int]
    weight: Optional[Callable[[_Vars], np.ndarray]] = None


@dataclass(frozen=True)
class _Theorem:
    """lhs = sum of the terms (its modulus if ``absolute``) <= rhs.

    ``rhs`` None means the bound 1.  The rest are the conditions the bound
    is stated under: the one shape (m, p), an odd gap p, a vanishing
    lattice start mu_0 = 0, and a radius window [lo, hi].
    """

    terms: Tuple[_Term, ...]
    rhs: Optional[Callable[[_Vars], np.ndarray]] = None
    absolute: bool = False
    shape: Optional[Tuple[int, int]] = None
    odd_gap: bool = False
    vanishing_start: bool = False
    window: Optional[Tuple[float, float]] = None


_ALL = slice(None)
_TAIL = slice(1, None)
_ODD = slice(1, None, 2)
_EVEN = slice(2, None, 2)
_FROM2 = slice(2, None)


def _den(v: _Vars) -> np.ndarray:
    return 1.0 - v.r ** (2 * v.p)


# sum_{k>=1} mu_k r^k + (1/(1+mu_0) + r/(1-r)) sum_{k>=1} mu_k^2 r^(2k)
_REFINED = (
    _Term(_TAIL, 1, (1, 0, 0)),
    _Term(_TAIL, 2, (2, 0, 0), lambda v: 1.0 / (1.0 + v.mu0) + v.r / (1.0 - v.r)),
)
_ALTERNATING = _Term(_TAIL, "signed", (1, 0, 1))
_MAJORANT = (_Term(_ALL, 1, (1, 0, 1)),)

_THEOREMS = {
    "ThmB": _Theorem(
        _REFINED, rhs=lambda v: (v.r / (1.0 - v.r)) * (1.0 - v.mu0 ** 2), shape=(0, 1)),
    # The square sum is r^p/(1-r^2p) * sum mu_k^2 r^(2kp), the
    # nonnegative-exponent form of the weighted sum over r^((2k-1)p).
    "LemDOdd": _Theorem(
        (_Term(_ODD, 1, (1, 0, 0)),
         _Term(_ALL, 2, (2, 0, 0), lambda v: v.r ** v.p / _den(v))),
        rhs=lambda v: v.r ** v.p / _den(v)),
    "LemDEven": _Theorem(
        (_Term(_EVEN, 1, (1, 0, 0)),
         _Term(_TAIL, 2, (2, 0, 0),
               lambda v: 1.0 / (1.0 + v.mu0) + v.r ** (2 * v.p) / _den(v))),
        rhs=lambda v: (1.0 - v.mu0 ** 2) * (v.r ** (2 * v.p) / _den(v))),
    # Thm41 is this bound term by term: r^(p-m) r^(2kp+2m) = r^(p+m) r^(2kp).
    "ThmC": _Theorem(
        (_ALTERNATING,
         _Term(_ALL, 2, (2, 0, 0),
               lambda v: (-1.0) ** (v.m + v.p) * (v.r ** (v.p + v.m) / _den(v)))),
        absolute=True, odd_gap=True),
    "Thm31": _Theorem((_Term(slice(0, 1), "s", (0, 0, 0)),) + _REFINED, shape=(0, 1)),
    # 1/(r^(p+m) + Lambda) with Lambda = mu_1 r^(p+m) folds into the
    # exponents: the two square sums carry exponents (2k-1)p + m and
    # 2kp + m, both nonnegative, so r = 0 is safe.
    "Thm32": _Theorem(
        (_Term(_TAIL, 1, (1, 0, 1)),
         _Term(_FROM2, 2, (2, -1, 1), lambda v: 1.0 / (1.0 + v.mu1)),
         _Term(_FROM2, 2, (2, 0, 1), lambda v: 1.0 / (1.0 - v.r ** v.p))),
        vanishing_start=True),
    "Thm34": _Theorem(
        (_Term(_ODD, 1, (1, 0, 1)),
         _Term(_ALL, 2, (2, 0, 2),
               lambda v: v.r ** (v.p - v.m) / _den(v)))),
    # 1/(r^m + Gamma) with Gamma = mu_0 r^m folds into the exponents the
    # same way; both square sums stay finite at r = 0.
    "Cor43": _Theorem(
        (_ALTERNATING,
         _Term(_ALL, 2, (2, 0, 1), lambda v: (-1.0) ** v.m / (1.0 + v.mu0)),
         _Term(_ALL, 2, (2, 2, 1), lambda v: (-1.0) ** v.m / _den(v))),
        absolute=True, odd_gap=True),
    "BombieriUpper": _Theorem(
        _MAJORANT, rhs=lambda v: (3.0 - np.sqrt(8.0 * (1.0 - v.r ** 2))) / v.r,
        window=(BOMBIERI_LO, BOMBIERI_HI)),
    "BBUpper": _Theorem(
        _MAJORANT, rhs=lambda v: 1.0 / np.sqrt(1.0 - v.r ** 2),
        window=(float(np.nextafter(BOMBIERI_HI, 1.0)), 1.0)),
}
_THEOREMS["Thm41"] = _THEOREMS["ThmC"]

THEOREM_IDS = tuple(_THEOREMS)


def _check_applicable(theorem_id: str, th: _Theorem, mods, m, p, r, s) -> None:
    if th.shape is not None and (m, p) != th.shape:
        raise ShapeMismatch(
            f"{theorem_id} is stated for shape (m, p) = {th.shape}, got ({m},{p})"
        )
    if th.odd_gap and p % 2 == 0:
        raise OddGapRequired(f"alternating bound needs odd p, got p={p}")
    if th.vanishing_start and np.any(mods[:, 0] > 1e-12):
        raise ShapeMismatch(
            "this bound needs a vanishing lattice start (mu_0 = 0); "
            f"got mu_0 up to {float(mods[:, 0].max()):.3e}"
        )
    if th.window is not None and r.size:
        lo, hi = th.window
        if r.min() < lo - 1e-12 or r.max() > hi + 1e-12:
            raise RadiusOutOfWindow(
                f"{theorem_id} envelope valid for {lo:.6f} <= r <= {hi:.6f}"
            )
    if any(term.power == "s" for term in th.terms) and (s is None or not s > 0.0):
        raise ParameterOutOfRange(f"{theorem_id} needs a positive exponent s in extras")


def _evaluate(th: _Theorem, mods, m, p, r, s, coeff_bound) -> Tuple[np.ndarray, np.ndarray]:
    samples, length = mods.shape
    k = np.arange(length)
    mu1 = mods[:, 1:2] if length > 1 else np.zeros((samples, 1))
    v = _Vars(r, mods[:, :1], mu1, m, p)
    lhs = None
    for term in th.terms:
        # One (S, K) temporary per term, dropped before the next one: the
        # scan path runs thousands of family rows in one call.
        w = mods[:, term.cols]
        bound = coeff_bound
        if term.power == 2:
            w = w ** 2
            bound = coeff_bound ** 2
        elif term.power == "s":
            w = w ** float(s)
            bound = coeff_bound ** float(s)
        elif term.power == "signed":
            w = _signs(k[term.cols], m, p) * w
        a, b, c = term.exps
        part = _psum(w, a * k[term.cols] * p + b * p + c * m, r, bound)
        del w
        if term.weight is not None:
            part *= term.weight(v)
        if lhs is None:
            lhs = part
        else:
            lhs += part
    if th.absolute:
        np.abs(lhs, out=lhs)
    if th.rhs is None:
        return lhs, np.broadcast_to(1.0, lhs.shape)
    return lhs, np.broadcast_to(th.rhs(v), lhs.shape)


def theorem_margins(
    theorem_id: str,
    mods: np.ndarray,
    m: int,
    p: int,
    r,
    extras: Optional[Mapping[str, float]] = None,
    trunc_tol: float = DEFAULT_TRUNC_TOL,
    coeff_bound: Optional[float] = None,
    exact: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched (lhs, rhs) arrays of shape (samples, radii).

    ``mods`` is a (S, K) matrix of lattice moduli sharing one shape (m, p)
    and one truncation length; ``r`` is a radius grid.  This is the engine
    behind all scalar entry points and the sweep harness.
    """
    th = _THEOREMS.get(theorem_id)
    if th is None:
        raise UnknownTheorem(f"no inequality with id {theorem_id!r}")
    mods = np.atleast_2d(np.asarray(mods, dtype=float))
    if not (p >= 1 and 0 <= m <= p):
        raise ParameterOutOfRange(f"invalid shape m={m}, p={p}")
    grid = _as_r_grid(r)
    if coeff_bound is None:
        coeff_bound = float(max(1.0, mods.max(initial=0.0)))
    if not exact:
        _check_truncation(mods.shape[1], m, p, grid, coeff_bound, trunc_tol)
    s = None if extras is None else extras.get("s")
    _check_applicable(theorem_id, th, mods, m, p, grid, s)
    return _evaluate(th, mods, m, p, grid, s, coeff_bound)


# ----------------------------------------------------------------------
# scalar entry points
# ----------------------------------------------------------------------


def _check_from(theorem_id, r, lhs, rhs, tol) -> InequalityCheck:
    margin = float(rhs) - float(lhs)
    return InequalityCheck(
        theorem_id=theorem_id,
        r=float(r),
        lhs=float(lhs),
        rhs=float(rhs),
        satisfied=bool(margin >= -tol),
        margin=margin,
        tol=tol,
    )


def bohr_sums_grid(
    profile: LacunaryProfile, r, trunc_tol: float = DEFAULT_TRUNC_TOL
) -> Tuple[np.ndarray, np.ndarray]:
    """Majorant sum B(r) and alternating sum A(r) on a radius grid.

    B = sum_k mu_k r^(kp+m), A = sum_k (-1)^(kp+m) mu_k r^(kp+m).
    """
    grid = _as_r_grid(r)
    mods = profile.mods[None, :]
    if not profile.exact:
        _check_truncation(profile.mods.size, profile.m, profile.p, grid,
                          profile.coeff_bound, trunc_tol)
    k = np.arange(profile.mods.size)
    exps = k * profile.p + profile.m
    b = _psum(mods, exps, grid, profile.coeff_bound)[0]
    a = _psum(_signs(k, profile.m, profile.p) * mods, exps, grid, profile.coeff_bound)[0]
    return b, a


def bohr_sums(
    profile: LacunaryProfile, r: float, trunc_tol: float = DEFAULT_TRUNC_TOL
) -> Tuple[float, float]:
    b, a = bohr_sums_grid(profile, [r], trunc_tol)
    return float(b[0]), float(a[0])


def refined_thmB(
    profile: LacunaryProfile,
    r: float,
    tol: float = DEFAULT_MARGIN_TOL,
    trunc_tol: float = DEFAULT_TRUNC_TOL,
) -> InequalityCheck:
    """Refined majorant bound for shape (0, 1):

    sum_{k>=1} mu_k r^k + (1/(1+mu_0) + r/(1-r)) sum_{k>=1} mu_k^2 r^(2k)
        <= (r/(1-r)) (1 - mu_0^2),

    an unconditional bound on [0, 1), with equality on the disk
    automorphism family.
    """
    lhs, rhs = theorem_margins("ThmB", profile.mods, profile.m, profile.p,
                               [r], trunc_tol=trunc_tol,
                               coeff_bound=profile.coeff_bound,
                               exact=profile.exact)
    return _check_from("ThmB", r, lhs[0, 0], rhs[0, 0], tol)


def lemmaD_bounds(
    profile: LacunaryProfile,
    r: float,
    tol: float = DEFAULT_MARGIN_TOL,
    trunc_tol: float = DEFAULT_TRUNC_TOL,
) -> Tuple[InequalityCheck, InequalityCheck]:
    """Odd-part and even-part unconditional bounds for any lacunary shape.

    odd:  sum_{k>=1} mu_{2k-1} r^((2k-1)p)
          + (r^p/(1-r^2p)) sum_{k>=0} mu_k^2 r^(2kp)   <= r^p/(1-r^2p)
    even: sum_{k>=1} mu_{2k} r^(2kp)
          + (1/(1+mu_0) + r^2p/(1-r^2p)) sum_{k>=1} mu_k^2 r^(2kp)
                                                       <= (1-mu_0^2) r^2p/(1-r^2p)

    Both hold on all of [0, 1); the lifted automorphism family attains
    equality in each.
    """
    args = dict(trunc_tol=trunc_tol, coeff_bound=profile.coeff_bound,
                exact=profile.exact)
    lo, ro = theorem_margins("LemDOdd", profile.mods, profile.m, profile.p, [r], **args)
    le, re_ = theorem_margins("LemDEven", profile.mods, profile.m, profile.p, [r], **args)
    return (
        _check_from("LemDOdd", r, lo[0, 0], ro[0, 0], tol),
        _check_from("LemDEven", r, le[0, 0], re_[0, 0], tol),
    )


def evaluate_theorem_grid(
    theorem_id: str,
    profile: LacunaryProfile,
    r,
    extras: Optional[Mapping[str, float]] = None,
    trunc_tol: float = DEFAULT_TRUNC_TOL,
) -> Tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) vectors for one profile on a radius grid."""
    lhs, rhs = theorem_margins(theorem_id, profile.mods, profile.m, profile.p,
                               r, extras=extras, trunc_tol=trunc_tol,
                               coeff_bound=profile.coeff_bound,
                               exact=profile.exact)
    return lhs[0], rhs[0]


def evaluate_theorem(
    theorem_id: str,
    profile: LacunaryProfile,
    r: float,
    extras: Optional[Mapping[str, float]] = None,
    tol: float = DEFAULT_MARGIN_TOL,
    trunc_tol: float = DEFAULT_TRUNC_TOL,
) -> InequalityCheck:
    """Evaluate one catalog inequality at a single radius."""
    lhs, rhs = evaluate_theorem_grid(theorem_id, profile, [r], extras, trunc_tol)
    return _check_from(theorem_id, r, lhs[0], rhs[0], tol)
