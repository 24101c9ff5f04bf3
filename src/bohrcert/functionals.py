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
Lem21          even-tail bound of the slices of f = z*g, shapes with m >= 1
=============  ==============================================================

Where a theorem's facts live: its left side (weighted lattice power sums
of mu, mu^2 or signed mu), its right side and the conditions it is stated
under (shape, odd gap, m >= 1, vanishing start, radius window) are one entry of
``_THEOREMS``, evaluated by one engine; so is, for LemD and Lem21, the
margin's reduced form g(r) * rho(r^2p).  Its radius equation is one
``radius._EQUATIONS`` entry, and its sharpness family a catalog core or
one ``multidim._ENVELOPES`` entry.  How a campaign row runs it (its
cores, radius equation, scan, fixed shape, reindexing and vector flags)
is one :class:`RowSpec` of ``_ROWS``, next to ``_THEOREMS``.

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

How a theorem is evaluated: each term of its ``_THEOREMS`` entry carries
a weight that depends either on the sample (mu_0 or mu_1, shape (S, 1))
or on the radius (shape (R,)); a weight that depends on both is written
as two terms over the same lattice slice.  On a radius grid the terms are
summed together: per-sample weights are folded into the stacked columns
w_k (already powered or signed), per-radius weights into the table of
powers r^e, and radii are grouped into buckets by the power-of-two
ceiling of their largest column count, so the whole left side is one
matrix product per bucket written into one (samples, radii) array, the
caller's ``out`` when it passes one.  One radius sums each term on its
own instead, as one fused sum read in place from its lattice slice of the
moduli (its signs and per-radius weight folded into the vector of powers,
its per-sample weight applied after the sum), added into the left side's
one column; nothing the size of the moduli is allocated.  Either way
each term keeps its own column count per radius, read from its
unweighted bound coeff_bound^power, so the 2^-64 skip and its certificate
are the same on both routes.
"""

from __future__ import annotations

import itertools
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
    check_shape,
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
    "evaluate_theorem",
    "evaluate_theorem_grid",
    "theorem_margins",
    "lacunary_length_for",
]

DEFAULT_MARGIN_TOL = 1e-9
DEFAULT_TRUNC_TOL = 1e-10

_SHAPE_TOL = 1e-11  # off-lattice modulus a profile's series may carry

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
        check_shape(self.m, self.p, "profile shape")
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


def profile_from_series(s: TruncatedSeries, m: int, p: int) -> LacunaryProfile:
    """Extract the lattice moduli of a series, checking it is truly lacunary.

    Off-lattice coefficients above ``_SHAPE_TOL`` raise ShapeMismatch: a
    profile must describe the whole function, or the certificates lie.
    """
    check_shape(m, p, "series profile")
    moduli = np.abs(s.coeffs)
    mask = np.zeros(s.order + 1, dtype=bool)
    mask[m :: p] = True
    worst = float(moduli[~mask].max(initial=0.0))
    if worst > _SHAPE_TOL:
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


def _need(exps: np.ndarray, bound: float, r: np.ndarray) -> np.ndarray:
    """Columns of a lattice sum taken at each radius: the :func:`_cut_length`
    count, capped at the columns stored; a count that is not a number takes
    every column."""
    need = np.full(r.size, exps.size)
    if exps.size > 1:
        need = np.fmin(_cut_length(exps[0], exps[1] - exps[0], r, bound), need).astype(int)
    return need


def _bucket_edges(needs, r: np.ndarray) -> np.ndarray:
    """Where :func:`_products` splits the radius grid r into buckets, given
    each part's column counts there: radii whose largest counts share a
    power-of-two ceiling, where that largest count ascends; else one bucket."""
    most = needs[0] if len(needs) == 1 else np.max(needs, axis=0)
    if r.size > 1 and np.all(most[1:] >= most[:-1]):
        group = np.frexp(np.maximum(most - 1, 0))[1]  # ceil(log2(count)), ascending
        return np.concatenate(([0], np.flatnonzero(np.diff(group)) + 1, [r.size]))
    return np.array([0, r.size])


def _products(heads, columns, r: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """sum over parts of weight * sum_k w_k r^exps_k, on the radius grid r.

    ``heads`` holds one (exps, bound, weight) per part: exponents that
    ascend in a constant step, a bound on |w_k|, and a per-radius weight
    of shape (R,) or None.  ``columns`` is called once, after the heads,
    with each part's width, the columns of it that any bucket reads; it
    returns an iterable of each part's w, in the same order, of shape
    (..., n) with n at least that width.  So a caller builds only the
    columns that are read, and each part only when it is stacked.

    Each part takes, at each radius, the columns :func:`_cut_length` says
    it needs, read from its own bound; a count that is not a number takes
    every column.  On a grid whose largest count over the parts ascends,
    radii whose largest counts share a power-of-two ceiling form one
    bucket; any other grid is one bucket.  In a bucket each part takes the
    largest of its counts there, and the bucket is one product of those
    columns with a table of their weighted powers.  The parts' columns are
    stacked once, part after part, as far as any bucket reads them; a
    bucket that reads a prefix of the stack (one part always does) reads
    it as a view, and any other bucket gathers its columns.  The sums are
    written into ``out`` when one is given.
    """
    needs = [_need(exps, bound, r) for exps, bound, _ in heads]
    edges = _bucket_edges(needs, r)
    counts = [[int(need[lo:hi].max(initial=0)) for need in needs]
              for lo, hi in zip(edges[:-1], edges[1:])]
    width = [max(col) for col in zip(*counts)]  # columns of each part any bucket reads
    starts = [0, *itertools.accumulate(width)]
    if len(heads) == 1:
        stack, exps = next(iter(columns(width))), heads[0][0]
    else:
        for j, w in enumerate(columns(width)):
            if j == 0:
                stack = np.empty(w.shape[:-1] + (starts[-1],))
            stack[..., starts[j]:starts[j + 1]] = w[..., :width[j]]
        del w  # the stack is the only copy of the columns held from here on
        exps = np.concatenate([h[0][:n] for h, n in zip(heads, width)])
    if out is None:
        out = np.empty(stack.shape[:-1] + (r.size,))
    for lo, hi, take in zip(edges[:-1], edges[1:], counts):
        if take[:-1] == width[:-1]:  # a prefix of the stack
            cols = slice(0, sum(take))
        else:
            cols = np.concatenate([np.arange(s, s + n) for s, n in zip(starts, take)])
        table = r[lo:hi] ** exps[cols, None]
        row = 0
        for (_, _, weight), n in zip(heads, take):
            if weight is not None:
                table[row:row + n] *= weight[lo:hi]
            row += n
        np.matmul(stack[..., cols], table, out=out[..., lo:hi])
    return out


def _first_bucket(theorem_id: str, length: int, m: int, p: int, r: np.ndarray,
                  coeff_bound: float) -> int:
    """Radii in the first bucket :func:`_products` forms when a grid call of a
    core with no exponent s covers r, for profiles of ``length`` moduli."""
    k = np.arange(length)
    needs = [_need(*_lattice(term, k, m, p, None, coeff_bound), r)
             for term in _THEOREMS[theorem_id].terms]
    return int(_bucket_edges(needs, r)[1])


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


def _vars(mods: np.ndarray, r: np.ndarray, m: int, p: int) -> _Vars:
    """The :class:`_Vars` of an (S, K) moduli matrix on the radii r."""
    mu1 = mods[:, 1:2] if mods.shape[1] > 1 else np.zeros((mods.shape[0], 1))
    return _Vars(r, mods[:, :1], mu1, m, p)


@dataclass(frozen=True)
class _Term:
    """weight * sum over the lattice slice ``cols`` of w_k r^(a k p + b p + c m).

    ``power`` picks w_k: 1 for mu_k, 2 for mu_k^2, "signed" for
    (-1)^(kp+m) mu_k, and "s" for mu_k^s with s taken from the extras.
    ``weight`` maps :class:`_Vars` to a per-radius weight of shape (R,)
    and ``sample_weight`` to a per-sample one of shape (S, 1); None means
    1.  A weight that depends on both is written as two terms.
    """

    cols: slice
    power: object
    exps: Tuple[int, int, int]
    weight: Optional[Callable[[_Vars], np.ndarray]] = None
    sample_weight: Optional[Callable[[_Vars], np.ndarray]] = None


@dataclass(frozen=True)
class _Part:
    """(1 - y if ``damped``) * sample_weight * sum_i w_i y^(first + i), with
    w_i the i-th column of the lattice slice ``cols`` of mu (``power`` 1)
    or mu^2 (``power`` 2), and ``sample_weight`` as in :class:`_Term`."""

    cols: slice
    power: int
    first: int = 0
    damped: bool = False
    sample_weight: Optional[Callable[[_Vars], np.ndarray]] = None


@dataclass(frozen=True)
class _Reduced:
    """A margin rhs - lhs written as g(r) * rho(y), with y = r^(2p).

    g = r^(a p + b m) / (1 - y), for (a, b) = ``scale`` with a p + b m > 0,
    is positive and ascending on (0, 1); rho = 1 - (the sum of ``parts``)
    is a polynomial in y with per-sample coefficients.  Every weight of
    the entry's terms is at most max(1, g) on [0, 1), so the columns the
    engine skips change its margin by at most 2^-64 max(1, g) per term
    and unit of coeff_bound^2.
    """

    scale: Tuple[int, int]
    parts: Tuple[_Part, ...]


@dataclass(frozen=True)
class _Theorem:
    """lhs = sum of the terms (its modulus if ``absolute``) <= rhs.

    ``rhs`` None means the bound 1.  The rest are the conditions the bound
    is stated under: the one shape (m, p), an odd gap p, a lattice that
    starts at m >= 1 (the slices of f = z*g), a vanishing lattice start
    mu_0 = 0, and a radius window [lo, hi].

    In an entry with the bound 1, every term's exponents are nonnegative
    and its per-radius weight has one sign and a nondecreasing modulus on
    [0, 1) for every shape.  Each term's positive and negative parts
    (:func:`_parity_parts`) are then nondecreasing in r, so a campaign may
    bound a sample's left side on [0, r] by its parts at r alone
    (``harness._unsettled``); a test holds every such entry to this.

    ``reduced``, where given, is the same margin as g(r) * rho(y)
    (:class:`_Reduced`), from which a campaign bounds a sample's margin
    over a whole radius interval (``harness._reduced_least``); a test
    holds it to the engine's rhs - lhs.
    """

    terms: Tuple[_Term, ...]
    rhs: Optional[Callable[[_Vars], np.ndarray]] = None
    absolute: bool = False
    shape: Optional[Tuple[int, int]] = None
    odd_gap: bool = False
    positive_m: bool = False
    vanishing_start: bool = False
    window: Optional[Tuple[float, float]] = None
    reduced: Optional[_Reduced] = None


_ALL = slice(None)
_FIRST = slice(0, 1)
_TAIL = slice(1, None)
_ODD = slice(1, None, 2)
_EVEN = slice(2, None, 2)
_FROM2 = slice(2, None)


def _den(v: _Vars) -> np.ndarray:
    return 1.0 - v.r ** (2 * v.p)


def _over_one_plus_mu0(v: _Vars) -> np.ndarray:
    return 1.0 / (1.0 + v.mu0)


# sum_{k>=1} mu_k r^k + (1/(1+mu_0) + r/(1-r)) sum_{k>=1} mu_k^2 r^(2k)
_REFINED = (
    _Term(_TAIL, 1, (1, 0, 0)),
    _Term(_TAIL, 2, (2, 0, 0), sample_weight=_over_one_plus_mu0),
    _Term(_TAIL, 2, (2, 0, 0), lambda v: v.r / (1.0 - v.r)),
)
_ALTERNATING = _Term(_TAIL, "signed", (1, 0, 1))
# B = sum_k mu_k r^(kp+m) and A = sum_k (-1)^(kp+m) mu_k r^(kp+m), k >= 0
_MAJORANT = (_Term(_ALL, 1, (1, 0, 1)),)
_SIGNED_MAJORANT = (_Term(_ALL, "signed", (1, 0, 1)),)

_THEOREMS = {
    # sum_{k>=1} mu_k r^k + (1/(1+mu_0) + r/(1-r)) sum_{k>=1} mu_k^2 r^(2k)
    #     <= (r/(1-r)) (1 - mu_0^2),
    # unconditional on [0, 1), with equality on the disk automorphism family.
    "ThmB": _Theorem(
        _REFINED, rhs=lambda v: (v.r / (1.0 - v.r)) * (1.0 - v.mu0 ** 2), shape=(0, 1)),
    # The LemD pair holds for any shape on all of [0, 1), and the lifted
    # automorphism family attains equality in each:
    #   odd:  sum_{k>=1} mu_{2k-1} r^((2k-1)p)
    #         + (r^p/(1-r^2p)) sum_{k>=0} mu_k^2 r^(2kp)   <= r^p/(1-r^2p)
    #   even: sum_{k>=1} mu_{2k} r^(2kp)
    #         + (1/(1+mu_0) + r^2p/(1-r^2p)) sum_{k>=1} mu_k^2 r^(2kp)
    #                                             <= (1-mu_0^2) r^2p/(1-r^2p)
    # The odd square sum is r^p/(1-r^2p) * sum mu_k^2 r^(2kp), the
    # nonnegative-exponent form of the weighted sum over r^((2k-1)p).
    # With y = r^2p, the margins are g * rho:
    #   odd:  r^p/(1-y) * (1 - sum_k mu_k^2 y^k - (1-y) sum_j mu_{2j+1} y^j)
    #   even: y/(1-y) * (1 - mu_0^2 - (1-y) sum_{j>=1} mu_{2j} y^(j-1)
    #                    - ((1-y)/(1+mu_0)) sum_{k>=1} mu_k^2 y^(k-1)
    #                    - sum_{k>=1} mu_k^2 y^k)
    "LemDOdd": _Theorem(
        (_Term(_ODD, 1, (1, 0, 0)),
         _Term(_ALL, 2, (2, 0, 0), lambda v: v.r ** v.p / _den(v))),
        rhs=lambda v: v.r ** v.p / _den(v),
        reduced=_Reduced((1, 0), (_Part(_ALL, 2), _Part(_ODD, 1, damped=True)))),
    "LemDEven": _Theorem(
        (_Term(_EVEN, 1, (1, 0, 0)),
         _Term(_TAIL, 2, (2, 0, 0), sample_weight=_over_one_plus_mu0),
         _Term(_TAIL, 2, (2, 0, 0), lambda v: v.r ** (2 * v.p) / _den(v))),
        rhs=lambda v: (1.0 - v.mu0 ** 2) * (v.r ** (2 * v.p) / _den(v)),
        reduced=_Reduced((2, 0), (
            _Part(_FIRST, 2), _Part(_EVEN, 1, damped=True),
            _Part(_TAIL, 2, damped=True, sample_weight=_over_one_plus_mu0),
            _Part(_TAIL, 2, first=1)))),
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
    # Under Cor42, on c*mu (c = max_j |z0_j| <= 1), c mu_k, c^2 mu_k^2/(1 + c mu_1) and
    # c^2 mu_k^2/(1 - r^p) are each nondecreasing in c >= 0, against the bound 1.
    "Thm32": _Theorem(
        (_Term(_TAIL, 1, (1, 0, 1)),
         _Term(_FROM2, 2, (2, -1, 1), sample_weight=lambda v: 1.0 / (1.0 + v.mu1)),
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
         _Term(_ALL, 2, (2, 0, 1), sample_weight=lambda v: (-1.0) ** v.m / (1.0 + v.mu0)),
         _Term(_ALL, 2, (2, 2, 1), lambda v: (-1.0) ** v.m / _den(v))),
        absolute=True, odd_gap=True),
    "BombieriUpper": _Theorem(
        _MAJORANT, rhs=lambda v: (3.0 - np.sqrt(8.0 * (1.0 - v.r ** 2))) / v.r,
        window=(BOMBIERI_LO, BOMBIERI_HI)),
    "BBUpper": _Theorem(
        _MAJORANT, rhs=lambda v: 1.0 / np.sqrt(1.0 - v.r ** 2),
        window=(float(np.nextafter(BOMBIERI_HI, 1.0)), 1.0)),
    # sum_{k>=1} nu_{2k} r^(2kp+m) <= (r^(2p-m)/(1-r^2p)) (r^2m - (nu_0 r^m)^2)
    # on the raw directional norms nu of f = z*g, whose lattice starts at
    # m >= 1; the right side is built as (1 - nu_0^2) r^(2p+m)/(1-r^2p).
    # On c*nu, c = max_j |z0_j| <= 1, the margin (1 - c^2 nu_0^2) R - c L, with L the
    # left sum and R = r^(2p+m)/(1-r^2p), both >= 0, is nonincreasing in c >= 0.
    # With y = r^2p the margin is
    #   r^(2p+m)/(1-y) * (1 - nu_0^2 - (1-y) sum_{j>=1} nu_{2j} y^(j-1)).
    "Lem21": _Theorem(
        (_Term(_EVEN, 1, (1, 0, 1)),),
        rhs=lambda v: (1.0 - v.mu0 ** 2) * (v.r ** (2 * v.p + v.m) / _den(v)),
        positive_m=True,
        reduced=_Reduced((2, 1), (_Part(_FIRST, 2), _Part(_EVEN, 1, damped=True)))),
}
_THEOREMS["Thm41"] = _THEOREMS["ThmC"]

THEOREM_IDS = tuple(_THEOREMS)


@dataclass(frozen=True)
class RowSpec:
    """How a campaign (and, for a vector id, ``multidim.vector_check``) runs one id.

    A core's formula, its shape, odd-gap and m >= 1 rules, its radius
    window and its vanishing start (the moduli get a zero lattice start
    prepended) are read from its ``_THEOREMS`` entry; this holds only what
    the row adds.
    """

    cores: Tuple[str, ...]  # margin cores; the row's margin is the least
    equation: Optional[str] = None  # radius equation id
    at: Optional[Tuple[int, int]] = None  # fixed (m, p) of the core and the equation
    shape: Optional[Tuple[int, int]] = None  # the row's own (m, p) where it differs from ``at``
    scan: Optional[str] = None  # sharpness family run just above the radius
    scan_m0_only: bool = False  # the family witnesses the radius only at m = 0
    vector: bool = False  # one row per t, each run at the worst direction e_1
    slice_check: bool = False  # ``multidim.vector_check`` runs it on slices of f = z*g

    @property
    def per_function(self) -> bool:
        """The radius depends on |f(0)| and the exponent s."""
        return self.equation == "Thm31"

    @property
    def rules(self) -> _Theorem:
        """The first core's ``_THEOREMS`` entry, whose rules the row follows."""
        return _THEOREMS[self.cores[0]]


# Rows with no radius equation hold on all of [0, 1) (ThmB, LemD, Lem21)
# or on their core's window (the envelopes).
_ROWS = {
    "ThmB": RowSpec(("ThmB",)),
    "LemD": RowSpec(("LemDOdd", "LemDEven")),
    "ThmC": RowSpec(("ThmC",), "ThmC34"),
    "Thm31": RowSpec(("Thm31",), "Thm31", scan="Thm31"),
    "Thm32": RowSpec(("Thm32",), "Thm32", scan="Thm32"),
    "Thm34": RowSpec(("Thm34",), "ThmC34", scan="Thm34", slice_check=True),
    "Thm41": RowSpec(("Thm41",), "ThmC34", scan="Thm41", slice_check=True),
    "Cor33": RowSpec(("Thm32",), "Thm32", at=(0, 1), scan="Thm32"),
    # the (1, 1) norms of f = z*g, reindexed to start at 0, are a
    # vanishing-start (0, 1) profile
    "Cor42": RowSpec(("Thm32",), "Thm32", at=(0, 1), shape=(1, 1), vector=True,
                     slice_check=True),
    # No constructive witness of the Cor43 radius is known for m >= 1.
    "Cor43": RowSpec(("Cor43",), "Cor43", scan="Cor43", scan_m0_only=True,
                     slice_check=True),
    "Lem21": RowSpec(("Lem21",), vector=True, slice_check=True),
    "BombieriUpper": RowSpec(("BombieriUpper",), at=(0, 1)),
    "BBUpper": RowSpec(("BBUpper",), at=(0, 1)),
}


def _check_applicable(theorem_id: str, th: _Theorem, mods, m, p, r, s) -> None:
    if th.shape is not None and (m, p) != th.shape:
        raise ShapeMismatch(
            f"{theorem_id} is stated for shape (m, p) = {th.shape}, got ({m},{p})"
        )
    if th.odd_gap and p % 2 == 0:
        raise OddGapRequired(f"alternating bound needs odd p, got p={p}")
    if th.positive_m and m < 1:
        raise ShapeMismatch(f"{theorem_id} is stated for shapes with m >= 1, got m={m}")
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


def _lattice(term: _Term, k, m, p, s, coeff_bound):
    """A term's exponents over its lattice slice and the bound on its w_k."""
    a, b, c = term.exps
    bound = coeff_bound
    if term.power == 2:
        bound = coeff_bound ** 2
    elif term.power == "s":
        bound = coeff_bound ** float(s)
    return (a * k[term.cols] * p + b * p + c * m).astype(float), bound


def _columns(term: _Term, mods, k, m, p, s, n: Optional[int] = None) -> np.ndarray:
    """A term's w_k over its lattice slice: mu_k, mu_k^2, mu_k^s or signed mu_k.

    Only the slice's first ``n`` columns are built when ``n`` is given.
    """
    w = mods[:, term.cols][:, :n]
    if term.power == 2:
        return w ** 2
    if term.power == "s":
        return w ** float(s)
    if term.power == "signed":
        return _signs(k[term.cols][:n], m, p) * w
    return w


def _evaluate(th: _Theorem, mods, m, p, r, s, coeff_bound, out) -> Tuple[np.ndarray, np.ndarray]:
    samples, length = mods.shape
    k = np.arange(length)
    v = _vars(mods, r, m, p)
    lattice = [_lattice(term, k, m, p, s, coeff_bound) for term in th.terms]
    # The route follows the radius count.  A grid folds every weight into
    # the operands and sums all terms in one product per bucket, written
    # straight into ``out`` (else into one new (S, R) array).  One radius
    # (every sharpness scan and scalar entry point) reads each term's
    # lattice slice of ``mods`` in place, in one fused sum whose power
    # vector carries the term's signs and per-radius weight, and adds it
    # into the left side's one column; a scan's ~2000 family rows are
    # neither powered nor copied.  perfbench has a workload on each side:
    # fine_grid's grids hold ~1100-1900 radii, scan_table's calls one.
    if r.size > 1:
        def columns(width):
            for term, n in zip(th.terms, width):
                w = _columns(term, mods, k, m, p, s, n)
                yield w if term.sample_weight is None else w * term.sample_weight(v)

        heads = [(exps, bound, None if term.weight is None else term.weight(v))
                 for term, (exps, bound) in zip(th.terms, lattice)]
        lhs = _products(heads, columns, r, out)
    else:
        lhs = np.empty((samples, 1)) if out is None else out
        total = lhs[:, 0]
        for j, (term, (exps, bound)) in enumerate(zip(th.terms, lattice)):
            n = int(_need(exps, bound, r)[0])
            w = mods[:, term.cols][:, :n]
            powers = r[0] ** exps[:n]
            if term.power == "signed":
                powers *= _signs(k[term.cols][:n], m, p)
            if term.weight is not None:
                powers *= term.weight(v)
            if term.power == 2:
                part = np.einsum("ik,ik,k->i", w, w, powers, out=total if j == 0 else None)
            else:
                if term.power == "s":
                    w = w ** float(s)
                part = np.einsum("ik,k->i", w, powers, out=total if j == 0 else None)
            if term.sample_weight is not None:
                part *= term.sample_weight(v)[:, 0]
            if j:
                total += part
    if th.absolute:
        np.abs(lhs, out=lhs)
    if th.rhs is None:
        return lhs, np.broadcast_to(1.0, lhs.shape)
    return lhs, np.broadcast_to(th.rhs(v), lhs.shape)


def _parity_parts(th: _Theorem, mods, m, p, r: np.ndarray, s=None) -> Tuple[np.ndarray, np.ndarray]:
    """Nonnegative parts (P, N), of shape (samples, radii), of a left side.

    The sum of the terms is P - N.  A term is weight * sum_k w_k r^e_k
    with w_k >= 0 (mu_k, mu_k^2, mu_k^s, or the modulus of a signed
    mu_k); its weight times the sum over the columns whose sign is +1 goes
    to P where the weight is positive and to N where it is negative, and
    the columns whose sign is -1 the other way.  Each term is one product
    of its (samples, K) columns with a (K, 2 radii) table of its powers
    split by sign, every stored column taken.
    """
    samples, length = mods.shape
    k = np.arange(length)
    v = _vars(mods, r, m, p)
    pos, neg = np.zeros((samples, r.size)), np.zeros((samples, r.size))
    for term in th.terms:
        up = r ** _lattice(term, k, m, p, s, 1.0)[0][:, None]
        down = np.zeros_like(up)
        if term.power == "signed":
            w = mods[:, term.cols]
            even = (_signs(k[term.cols], m, p) > 0.0)[:, None]
            up, down = np.where(even, up, 0.0), np.where(even, 0.0, up)
        else:
            w = _columns(term, mods, k, m, p, s)
        plus, minus = np.hsplit(w @ np.hstack((up, down)), 2)
        weight = 1.0 if term.weight is None else term.weight(v)
        if term.sample_weight is not None:
            weight = weight * term.sample_weight(v)
        # a NaN weight keeps its NaN in both parts
        above, below = np.maximum(weight, 0.0), np.maximum(-weight, 0.0)
        pos += above * plus + below * minus
        neg += above * minus + below * plus
    return pos, neg


def _reduced_polynomial(form: _Reduced, mods, m, p, y: float) -> Tuple[np.ndarray, np.ndarray]:
    """Power-basis coefficients in y of rho, (samples, degree + 1), and its size at y.

    rho = 1 - (the sum of the parts); its size is 1 + (the sum of the parts
    with 1 - y taken as 1), at least |rho| and each piece of it on [0, y].
    """
    samples, length = mods.shape
    v = _vars(mods, np.empty(0), m, p)
    k = np.arange(length)
    count = max(part.first + k[part.cols].size + part.damped for part in form.parts)
    powers = y ** np.arange(count)
    rho, size = np.zeros((samples, count)), np.ones(samples)
    rho[:, 0] = 1.0
    for part in form.parts:
        w = _columns(part, mods, k, m, p, None)
        if part.sample_weight is not None:
            w = w * part.sample_weight(v)
        at = slice(part.first, part.first + w.shape[1])
        rho[:, at] -= w
        size += w @ powers[at]
        if part.damped:
            rho[:, at.start + 1:at.stop + 1] += w
    return rho, size


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
    out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched (lhs, rhs) arrays of shape (samples, radii).

    ``mods`` is a (S, K) matrix of lattice moduli sharing one shape (m, p)
    and one truncation length; ``r`` is a radius grid.  This is the engine
    behind all scalar entry points and the sweep harness.

    ``out``, a writable float64 array of shape (S, R) (a view into a
    larger buffer will do), receives the left side and is returned as it,
    so repeated calls can reuse one workspace; anything else raises
    ParameterOutOfRange.  The right side is a read-only broadcast: a bound
    of r alone, or the bound 1, has stride 0 along the samples, and one
    that depends on the sample too is a full (S, R) array.
    """
    th = _THEOREMS.get(theorem_id)
    if th is None:
        raise UnknownTheorem(f"no inequality with id {theorem_id!r}")
    mods = np.atleast_2d(np.asarray(mods, dtype=float))
    check_shape(m, p, "theorem margins")
    grid = _as_r_grid(r)
    if coeff_bound is None:
        coeff_bound = float(max(1.0, mods.max(initial=0.0)))
    if not exact:
        _check_truncation(mods.shape[1], m, p, grid, coeff_bound, trunc_tol)
    shape = (mods.shape[0], grid.size)
    if out is not None and not (isinstance(out, np.ndarray) and out.dtype == np.float64
                                and out.shape == shape and out.flags.writeable):
        raise ParameterOutOfRange(f"out must be a writable float64 array of shape {shape}")
    s = None if extras is None else extras.get("s")
    _check_applicable(theorem_id, th, mods, m, p, grid, s)
    return _evaluate(th, mods, m, p, grid, s, coeff_bound, out)


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

    B = sum_k mu_k r^(kp+m), A = sum_k (-1)^(kp+m) mu_k r^(kp+m): the
    paper's two lattice sums, each one term of the margin engine.
    """
    grid = _as_r_grid(r)
    if not profile.exact:
        _check_truncation(profile.mods.size, profile.m, profile.p, grid,
                          profile.coeff_bound, trunc_tol)
    mods = profile.mods[None, :]  # one sample
    b, a = (_evaluate(_Theorem(terms), mods, profile.m, profile.p, grid, None,
                      profile.coeff_bound, None)[0][0]  # its left side's one row
            for terms in (_MAJORANT, _SIGNED_MAJORANT))
    return b, a


def bohr_sums(
    profile: LacunaryProfile, r: float, trunc_tol: float = DEFAULT_TRUNC_TOL
) -> Tuple[float, float]:
    b, a = bohr_sums_grid(profile, [r], trunc_tol)
    return float(b[0]), float(a[0])


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
