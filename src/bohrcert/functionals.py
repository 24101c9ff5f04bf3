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
of mu, mu^2 or signed mu), its right side, the conditions it is stated
under (shape, odd gap, m >= 1 and exponent s, which its ``check`` applies,
vanishing start, radius window) and its scan's closed-form family left
side (Thm31, Thm32) are one entry of ``_THEOREMS``, evaluated by one
engine; so is, for LemD and Lem21, the margin's reduced form
g(r) * rho(r^2p).  Its radius equation is one ``radius._EQUATIONS``
entry.  How a campaign row runs it (its cores, equation, scan, shapes,
the shape its cores run at, and vector flags) is one :class:`RowSpec` of
``_ROWS``, and which of a row's cells can hold its least margin
:func:`least_margin` decides.

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
as two terms over the same lattice slice.  At a shape, a term's lattice
is (e0, d, n, bound): n columns with the exponents e0 + j d and w_k at
most bound = coeff_bound^power; ``_plan`` caches a core's lattices,
exponent vectors and signs per shape, bank length, s and bound.  A call
computes every term's column counts in one stacked (terms, radii) pass.
On any grid but a single radius the terms are summed together:
per-sample weights are folded into the stacked columns w_k (powered or
signed once per slice), per-radius weights into the table of powers r^e,
and radii are grouped into buckets by the power-of-two ceiling of their
largest column count (where it ascends, one searchsorted for the counts
2^j + 1; one bucket, one max per term, where they share a group), so
the whole left side is one matrix product per bucket
written into one (samples, radii) array, the caller's ``out`` when it
passes one.  A single radius sums each term on its own instead, as one
fused sum read in place from its lattice slice of the moduli (its signs
and per-radius weight folded into the vector of powers, its per-sample
weight applied after the sum), added into the left side's one column;
nothing the size of the moduli is allocated.  Both routes take each
term's own count, so the 2^-64 skip and its certificate are the same on
both.
"""

from __future__ import annotations

import functools
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
    "least_margin",
    "lacunary_length_for",
]

DEFAULT_MARGIN_TOL = 1e-9
DEFAULT_TRUNC_TOL = 1e-10

_SHAPE_TOL = 1e-11  # off-lattice modulus a profile's series may carry
_ONE = np.ones(1)
_ONE.setflags(write=False)  # what every bound-1 right side reads, with stride 0

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


def _cut_counts(lattices, r: np.ndarray, tol=_CUT_TOL) -> np.ndarray:
    """Columns each lattice (e0, d, n, bound) takes at each radius in r, a row each.

    That is the least c with bound * r^(e0 + c d) / (1 - r^d) <= tol, which
    bounds the whole tail from column c on, capped at n; at r = 0 only a
    zero exponent counts.  A count that is not a number, or a lattice of at
    most one column, takes all n.  Every lattice's counts come from one
    stacked (lattices, radii) pass with e0, d, n and bound as columns; with
    d a column, each row's r^d has the bits of r ** d for its scalar d.
    """
    if r.ndim == 0:
        return _cut_counts(lattices, r[None], tol)[:, 0]
    e0, d, n, bound = np.asarray(lattices, dtype=float).T[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        need = np.ceil((np.log(tol * (1.0 - r ** d) / bound) / np.log(r) - e0) / d)
    if not np.minimum.reduce(r, initial=1.0) > 0.0:  # NaN too
        need = np.where(r > 0.0, need, e0 == 0.0)
    # at least 0, or all n where n <= 1, and at most n; a NaN takes n
    return np.fmin(np.maximum(need, np.where(n > 1.0, 0.0, n)), n)


def _cut_length(e0, d, r, bound, tol=_CUT_TOL):
    """One lattice's :func:`_cut_counts` count at each radius in ``r``, with no cap."""
    return _cut_counts([(e0, d, math.inf, bound)], np.asarray(r, dtype=float), tol)[0]


def _check_positive(name: str, value) -> None:
    """Refuse a tolerance or bound that is not a positive finite number."""
    if not 0.0 < value < math.inf:  # NaN fails too
        raise ParameterOutOfRange(f"{name} must be a positive finite number, got {value!r}")


def lacunary_length_for(m: int, p: int, r: float, trunc_tol: float = DEFAULT_TRUNC_TOL,
                        coeff_bound: float = 1.0) -> int:
    """Smallest mods length L whose tail certificate passes at radius r."""
    _check_positive("trunc_tol", trunc_tol)
    _check_positive("coeff_bound", coeff_bound)
    if r <= 0.0:
        return 1
    if not r < 1.0:  # NaN fails too
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


def _as_r_grid(r) -> Tuple[np.ndarray, float, float]:  # its least and largest radius, or 1 and 0
    grid = np.atleast_1d(np.asarray(r, dtype=float))
    if grid.ndim != 1:
        raise ParameterOutOfRange("radius grid must be one-dimensional")
    lo, hi = float(grid.min(initial=1.0)), float(grid.max(initial=0.0))
    if not (lo >= 0.0 and hi < 1.0):  # NaN fails too
        raise RadiusOutOfRange(f"radii must lie in [0, 1), got range [{lo}, {hi}]")
    return grid, lo, hi


def _buckets(counts: np.ndarray) -> Tuple[list, list]:
    """Edges of the buckets :func:`_products` splits a grid into, and each
    term's largest count in each, from the (terms, radii) counts: where the
    largest count over the terms ascends, a bucket starts where it first
    reaches 2^j + 1 (a power-of-two group); any other grid is one bucket,
    as is one whose first and last largest counts share a group (every grid
    call of a fine_grid pass), and takes one max per term, which need not
    be the term's count where the largest count is."""
    most = counts.max(axis=0)
    if most.size > 1:
        first, last = (max(int(c) - 1, 0).bit_length() for c in (most[0], most[-1]))  # ceil(log2 c)
        if first < last and (most[1:] >= most[:-1]).all():
            cuts = np.searchsorted(most, [(1 << j) + 1 for j in range(first, last)])
            edges = [0, *dict.fromkeys(cuts.tolist()), most.size]
            return edges, np.maximum.reduceat(counts, edges[:-1], axis=1).astype(int).T.tolist()
    return [0, most.size], [np.maximum.reduce(counts, axis=1, initial=0).astype(int).tolist()]


def _stack(terms, plan: _Plan, width, mods, v: _Vars, s) -> np.ndarray:
    """Term j's first width[j] columns w_k times its per-sample weight, side by side."""
    built = {}  # first term of a slice and power -> its columns, as far as its sharers read
    for first, n in zip(plan.firsts, width):
        built[first] = max(built.get(first, 0), n)
    for j, n in built.items():
        built[j] = _columns(terms[j], mods, s, plan.signs[j], n)
    parts = [built[first][:, :n] if term.sample_weight is None
             else built[first][:, :n] * term.sample_weight(v)
             for term, first, n in zip(terms, plan.firsts, width)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


def _products(terms, plan: _Plan, counts, mods, v: _Vars, s, out=None) -> np.ndarray:
    """The sum of the terms' weighted lattice sums on the radius grid v.r.

    Term j is weight * sum_i w_i r^(e0 + i d) over its lattice
    plan.lattices[j] = (e0, d, n, bound), w_i its :func:`_columns` times
    its per-sample weight, and takes counts[j] (:func:`_cut_counts`)
    columns at each radius.  The grid is split into the buckets of
    :func:`_buckets`, and each bucket is one product of the columns its
    terms take with a table of their weighted powers; on one bucket, which
    takes every column the terms read, that is one product.  The terms'
    columns are built only as far as any bucket reads them, once per slice
    and power (terms that share them, as LemDEven's two square sums do,
    read one build), and stacked by one concatenate, term after term; a
    lone term's are the stack, so columns read from the moduli stay views.
    A bucket that reads a prefix of the stack (one term always does) reads
    it as a view, and any other bucket gathers its columns.  The sums are
    written into ``out`` when one is given.
    """
    r = v.r
    edges, takes = _buckets(counts)
    width = takes[0] if len(takes) == 1 else [max(col) for col in zip(*takes)]
    starts = [0, *itertools.accumulate(width)]
    stack = _stack(terms, plan, width, mods, v, s)
    exps = np.concatenate([e[:n] for e, n in zip(plan.exps, width)])
    weights = [None if term.weight is None else term.weight(v) for term in terms]
    if out is None:
        out = np.empty((mods.shape[0], r.size))
    for lo, hi, take in zip(edges[:-1], edges[1:], takes):
        if take[:-1] == width[:-1]:  # a prefix of the stack
            cols = slice(0, sum(take))
        else:
            cols = np.concatenate([np.arange(start, start + n) for start, n in zip(starts, take)])
        table = r[lo:hi] ** exps[cols, None]
        row = 0
        for weight, n in zip(weights, take):
            if weight is not None:
                table[row:row + n] *= weight[lo:hi]
            row += n
        np.matmul(stack[..., cols], table, out=out[..., lo:hi])
    return out


def _check_truncation(K, m, p, rmax: float, coeff_bound, trunc_tol):
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


class _Vars(NamedTuple):
    """What a weight or a right side may depend on."""

    r: np.ndarray  # (R,) radius grid
    mu0: np.ndarray  # (S, 1)
    mu1: np.ndarray  # (S, 1); zeros for one-modulus profiles
    m: int
    p: int
    den: np.ndarray  # (R,) 1 - r^(2p), which most weights and right sides divide by


def _vars(mods: np.ndarray, r: np.ndarray, m: int, p: int) -> _Vars:
    """The :class:`_Vars` of an (S, K) moduli matrix on the radii r."""
    mu1 = mods[:, 1:2] if mods.shape[1] > 1 else np.zeros((mods.shape[0], 1))
    return _Vars(r, mods[:, :1], mu1, m, p, 1.0 - r ** (2 * p))


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
    and unit of coeff_bound^2, as :func:`_reduced_least` allows.
    """

    scale: Tuple[int, int]
    parts: Tuple[_Part, ...]


@dataclass(frozen=True, eq=False)  # hashed by identity, as a plan's key
class _Theorem:
    """lhs = sum of the terms (its modulus if ``absolute``) <= rhs.

    ``rhs`` None means the bound 1.  The rest are the conditions the bound
    is stated under: the one shape (m, p), an odd gap p, a lattice that
    starts at m >= 1 (the slices of f = z*g), a vanishing lattice start
    mu_0 = 0, and a radius window [lo, hi].

    In an entry with the bound 1, every term's exponents are nonnegative,
    its per-radius weight has one sign and a nondecreasing modulus on
    [0, 1) for every shape, and its per-sample weight one sign.  Each
    term's positive and negative parts (:func:`_parity_parts`) are then
    nondecreasing in r, which :func:`least_margin` rests on; a test holds
    every such entry to this.  ``reduced``, where given, is the same
    margin as g(r) * rho(y) (:class:`_Reduced`), which it rests on too; a
    test holds it to the engine's rhs - lhs.  ``envelope``, where given, is
    the left side of the entry's extremal family in closed form,
    envelope(a, m, p, r, s) for family parameters a, which its sharpness
    scan maximizes.
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
    envelope: Optional[Callable[..., np.ndarray]] = None

    def check(self, theorem_id: str, m: int, p: int, s=None, lattice_rules: bool = True) -> None:
        """Refuse a shape other than the entry's one stated shape, a missing or
        nonpositive exponent s where a term takes mu^s, and, with
        ``lattice_rules``, an even gap p or m < 1 where its odd-gap or m >= 1
        rule asks; a radius equation holds at every shape, so skips those."""
        if self.shape is not None and (m, p) != self.shape:
            raise ShapeMismatch(f"{theorem_id} is stated for shape (m, p) = {self.shape}, "
                                f"got ({m},{p})")
        if any(term.power == "s" for term in self.terms) and (s is None or not s > 0.0):
            raise ParameterOutOfRange(f"{theorem_id} needs a positive exponent s")
        if lattice_rules and self.odd_gap and p % 2 == 0:
            raise OddGapRequired(f"alternating bound needs odd p, got p={p}")
        if lattice_rules and self.positive_m and m < 1:
            raise ShapeMismatch(f"{theorem_id} is stated for shapes with m >= 1, got m={m}")


_ALL = slice(None)
_FIRST = slice(0, 1)
_TAIL = slice(1, None)
_ODD = slice(1, None, 2)
_EVEN = slice(2, None, 2)
_FROM2 = slice(2, None)


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
_SUMS = (_Theorem(_MAJORANT), _Theorem(_SIGNED_MAJORANT))  # B and A; not catalog ids

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
         _Term(_ALL, 2, (2, 0, 0), lambda v: v.r ** v.p / v.den)),
        rhs=lambda v: v.r ** v.p / v.den,
        reduced=_Reduced((1, 0), (_Part(_ALL, 2), _Part(_ODD, 1, damped=True)))),
    "LemDEven": _Theorem(
        (_Term(_EVEN, 1, (1, 0, 0)),
         _Term(_TAIL, 2, (2, 0, 0), sample_weight=_over_one_plus_mu0),
         _Term(_TAIL, 2, (2, 0, 0), lambda v: v.r ** (2 * v.p) / v.den)),
        rhs=lambda v: (1.0 - v.mu0 ** 2) * (v.r ** (2 * v.p) / v.den),
        reduced=_Reduced((2, 0), (
            _Part(_FIRST, 2), _Part(_EVEN, 1, damped=True),
            _Part(_TAIL, 2, damped=True, sample_weight=_over_one_plus_mu0),
            _Part(_TAIL, 2, first=1)))),
    # Thm41 is this bound term by term: r^(p-m) r^(2kp+2m) = r^(p+m) r^(2kp).
    "ThmC": _Theorem(
        (_ALTERNATING,
         _Term(_ALL, 2, (2, 0, 0),
               lambda v: (-1.0) ** (v.m + v.p) * (v.r ** (v.p + v.m) / v.den))),
        absolute=True, odd_gap=True),
    "Thm31": _Theorem(
        (_Term(slice(0, 1), "s", (0, 0, 0)),) + _REFINED, shape=(0, 1),
        envelope=lambda a, m, p, r, s: a ** float(s) + (1.0 - a ** 2) * r / (1.0 - r)),
    # 1/(r^(p+m) + Lambda) with Lambda = mu_1 r^(p+m) folds into the
    # exponents: the two square sums carry exponents (2k-1)p + m and
    # 2kp + m, both nonnegative, so r = 0 is safe.
    # Under Cor42, on c*mu (c = max_j |z0_j| <= 1), c mu_k, c^2 mu_k^2/(1 + c mu_1) and
    # c^2 mu_k^2/(1 - r^p) are each nondecreasing in c >= 0, against the bound 1.
    "Thm32": _Theorem(
        (_Term(_TAIL, 1, (1, 0, 1)),
         _Term(_FROM2, 2, (2, -1, 1), sample_weight=lambda v: 1.0 / (1.0 + v.mu1)),
         _Term(_FROM2, 2, (2, 0, 1), lambda v: 1.0 / (1.0 - v.r ** v.p))),
        vanishing_start=True,
        envelope=lambda a, m, p, r, s: (
            a * r ** (p + m) + (1.0 - a ** 2) * r ** (2 * p + m) / (1.0 - r ** p))),
    "Thm34": _Theorem(
        (_Term(_ODD, 1, (1, 0, 1)),
         _Term(_ALL, 2, (2, 0, 2),
               lambda v: v.r ** (v.p - v.m) / v.den))),
    # 1/(r^m + Gamma) with Gamma = mu_0 r^m folds into the exponents the
    # same way; both square sums stay finite at r = 0.
    "Cor43": _Theorem(
        (_ALTERNATING,
         _Term(_ALL, 2, (2, 0, 1), sample_weight=lambda v: (-1.0) ** v.m / (1.0 + v.mu0)),
         _Term(_ALL, 2, (2, 2, 1), lambda v: (-1.0) ** v.m / v.den)),
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
        rhs=lambda v: (1.0 - v.mu0 ** 2) * (v.r ** (2 * v.p + v.m) / v.den),
        positive_m=True,
        reduced=_Reduced((2, 1), (_Part(_FIRST, 2), _Part(_EVEN, 1, damped=True)))),
}
_THEOREMS["Thm41"] = _THEOREMS["ThmC"]

THEOREM_IDS = tuple(_THEOREMS)


@dataclass(frozen=True)
class RowSpec:
    """How a campaign (and, for a vector id, ``multidim.vector_check``) runs one id.

    A core's formula, its shape, odd-gap and m >= 1 rules, its radius
    window, its vanishing start (the moduli get a zero lattice start
    prepended) and its scan's envelope are read from its ``_THEOREMS``
    entry; this holds only what the row adds.
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

    def shapes(self, requested) -> list:
        """The shapes (m, p) the row runs at: its fixed one, whatever is
        requested, or those of ``requested`` its odd-gap and m >= 1 rules keep."""
        rules = self.rules
        fixed = self.shape or self.at or rules.shape
        if fixed is not None:
            return [fixed]
        return [(m, p) for m, p in requested
                if (p % 2 == 1 or not rules.odd_gap) and (m >= 1 or not rules.positive_m)]

    def core_shape(self, m: int, p: int) -> Tuple[int, int]:
        """The (m, p) its cores and radius equation run at in its row at (m, p)."""
        return self.at or (m, p)


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


def _check_applicable(theorem_id: str, th: _Theorem, mods, m, p, rmin, rmax, s) -> None:
    """Refuse what ``theorem_id`` is not stated for, on radii from rmin to rmax."""
    th.check(theorem_id, m, p, s)
    if th.vanishing_start and np.any(mods[:, 0] > 1e-12):
        raise ShapeMismatch(
            "this bound needs a vanishing lattice start (mu_0 = 0); "
            f"got mu_0 up to {float(mods[:, 0].max()):.3e}"
        )
    if th.window is not None:
        lo, hi = th.window
        if rmin < lo - 1e-12 or rmax > hi + 1e-12:
            raise RadiusOutOfWindow(
                f"{theorem_id} envelope valid for {lo:.6f} <= r <= {hi:.6f}"
            )


_Plan = NamedTuple("_Plan", [("lattices", np.ndarray), ("exps", tuple), ("signs", tuple),
                             ("firsts", tuple)])


@functools.lru_cache(maxsize=256)
def _plan(th: _Theorem, m, p, length, s, coeff_bound) -> _Plan:
    """A core's terms over ``length`` moduli at (m, p): term j's n columns
    have the exponents exps[j] = e0 + i d, i < n, and w_k at most bound, for
    the row lattices[j] = (e0, d, n, bound) of one (terms, 4) array; signs[j]
    is a signed term's (-1)^(kp+m), else None; firsts[j] is the first term
    with term j's slice and power, whose w_k term j shares.  Its arrays are
    read-only, as every call shares them."""
    lattices, exps, signs = [], [], []
    for term in th.terms:
        a, b, c = term.exps
        k = range(length)[term.cols]  # the slice's lattice indices
        e0, d = a * k.start * p + b * p + c * m, a * k.step * p
        bound = coeff_bound
        if term.power == 2:
            bound = coeff_bound ** 2
        elif term.power == "s":
            bound = coeff_bound ** float(s)
        lattices.append((e0, d, len(k), bound))
        exps.append(e0 + d * np.arange(len(k), dtype=float))
        signs.append(np.where((np.arange(length)[term.cols] * p + m) % 2 == 0, 1.0, -1.0)
                     if term.power == "signed" else None)
    lattices = np.array(lattices, dtype=float)
    for x in (lattices, *exps, *signs):
        if x is not None:
            x.setflags(write=False)
    firsts = tuple(next(i for i, u in enumerate(th.terms) if (u.cols, u.power) == (t.cols, t.power))
                   for t in th.terms)
    return _Plan(lattices, tuple(exps), tuple(signs), firsts)


def _columns(term: _Term, mods, s, signs=None, n: Optional[int] = None) -> np.ndarray:
    """A term's w_k over its lattice slice: mu_k, mu_k^2, mu_k^s or signed
    mu_k, with ``signs`` its plan's sign vector.

    Only the slice's first ``n`` columns are built when ``n`` is given.
    """
    w = mods[:, term.cols][:, :n]
    if term.power == 2:
        return w ** 2
    if term.power == "s":
        return w ** float(s)
    if term.power == "signed":
        return signs[:n] * w
    return w


def _evaluate(th: _Theorem, mods, m, p, r, s, coeff_bound, out) -> Tuple[np.ndarray, np.ndarray]:
    samples, length = mods.shape
    v = _vars(mods, r, m, p)
    plan = _plan(th, m, p, length, s, coeff_bound)
    counts = _cut_counts(plan.lattices, r)
    # A single radius (every sharpness scan and scalar entry point) takes
    # the per-term route, so a scan's ~2000 family rows are neither powered
    # nor copied.  perfbench has a workload on each side: a fine_grid pass
    # makes 15 grid calls of 6-102 radii (the LemD heads 48, Lem21 64-102,
    # ThmC 10-11, Cor43 6-13), 6 one-radius calls (Thm32, Thm34) and 6
    # one-radius scans, and a scan_table pass 168 one-radius calls on ~2060
    # family rows.  Whole-grid calls remain in ThmB, Thm31 and the envelope
    # rows (190, 75 and 49 radii at test_criterion_2's 0.005 step).  Calls
    # this small cost mostly planning, so the plan comes from the cache and
    # the counts from one stacked pass; every fine_grid grid call is one bucket.
    if r.size != 1:
        lhs = _products(th.terms, plan, counts, mods, v, s, out)
    else:
        lhs = np.empty((samples, 1)) if out is None else out
        total = lhs[:, 0]
        for j, (term, count) in enumerate(zip(th.terms, counts)):
            n = int(count[0])
            w = mods[:, term.cols][:, :n]
            powers = r[0] ** plan.exps[j][:n]
            if term.power == "signed":
                powers *= plan.signs[j][:n]
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
        return lhs, np.ndarray(lhs.shape, buffer=_ONE, strides=(0, 0))
    rhs = th.rhs(v)
    rhs.setflags(write=False)  # a bound of r alone is one row, read with stride 0
    return lhs, rhs if rhs.ndim == 2 else np.ndarray(lhs.shape, buffer=rhs, strides=(0, 8))


def _parity_parts(th: _Theorem, mods, m, p, r: np.ndarray, s=None) -> Tuple[np.ndarray, np.ndarray]:
    """Nonnegative parts (P, N), of shape (samples, radii), of a left side.

    The sum of the terms is P - N.  A term is weight * sum_k w_k r^e_k
    with w_k >= 0 (mu_k, mu_k^2, mu_k^s, or the modulus of a signed
    mu_k); its weight times the sum over the columns whose sign is +1 goes
    to P where the weight is positive and to N where it is negative, and
    the columns whose sign is -1 the other way.  A signed term is one
    product of its (samples, K) columns with a (K, 2 radii) table of its
    powers split by sign, an unsigned one (all its columns +1) a product
    with its powers alone; every stored column is taken, and terms that
    share a slice and power share its columns.
    """
    samples, length = mods.shape
    v = _vars(mods, r, m, p)
    plan = _plan(th, m, p, length, s, 1.0)
    pos, neg = np.zeros((samples, r.size)), np.zeros((samples, r.size))
    built = {}  # first term of a slice and power -> its columns
    for term, exps, signs, first in zip(th.terms, plan.exps, plan.signs, plan.firsts):
        up = r ** exps[:, None]
        weight = 1.0 if term.weight is None else term.weight(v)
        if term.sample_weight is not None:
            weight = weight * term.sample_weight(v)
        # a NaN weight keeps its NaN in both parts
        above, below = np.maximum(weight, 0.0), np.maximum(-weight, 0.0)
        if term.power == "signed":
            even = (signs > 0.0)[:, None]
            table = np.hstack((np.where(even, up, 0.0), np.where(even, 0.0, up)))
            plus, minus = np.hsplit(mods[:, term.cols] @ table, 2)
            pos += above * plus + below * minus
            neg += above * minus + below * plus
        else:
            if first not in built:
                built[first] = _columns(term, mods, s)
            plus = built[first] @ up
            pos += above * plus
            neg += below * plus
    return pos, neg


def _no_negative_part(th: _Theorem, m: int, p: int) -> bool:
    """Whether :func:`_parity_parts` gives N = 0 at the shape (m, p): no
    signed term, no modulus taken, and every weight nonnegative, read at
    one point since each weight has one sign (:class:`_Theorem`)."""
    v = _vars(np.zeros((1, 1)), np.array([0.5]), m, p)
    return not th.absolute and all(
        term.power != "signed"
        and all(weight is None or np.all(weight(v) >= 0.0)
                for weight in (term.weight, term.sample_weight))
        for term in th.terms)


def _reduced_polynomial(form: _Reduced, mods, m, p, y: float,
                        degree: int) -> Tuple[np.ndarray, np.ndarray]:
    """Power-basis coefficients in y of rho, (samples, at most degree + 1), and its size at y.

    rho = 1 - (the sum of the parts); its size is 1 + (the sum of the parts
    with 1 - y taken as 1), at least |rho| and each piece of it on [0, y].
    With ``degree`` below rho's, the coefficients are those of a polynomial
    of that degree at most rho on [0, y]: rho's own up to it, with the
    constant lowered by a bound on sum_(j > degree) |c_j| y^j, each c_j a
    sum of part columns and so at most the sum of their moduli.  rho's
    degree is at most the number of moduli plus one.
    """
    samples, length = mods.shape
    v = _vars(mods, np.empty(0), m, p)
    count = max(part.first + len(range(length)[part.cols]) + part.damped for part in form.parts)
    width = min(degree + 1, count)
    powers = y ** np.arange(count)
    rho, size, tail = np.zeros((samples, width)), np.ones(samples), np.zeros(samples)
    rho[:, 0] = 1.0
    built = {}  # (slice, power) -> its columns, built once for the parts that share them
    for part in form.parts:
        key = (part.cols.start, part.cols.stop, part.cols.step, part.power)
        if key not in built:
            built[key] = _columns(part, mods, None)
        w = built[key]
        if part.sample_weight is not None:
            w = w * part.sample_weight(v)
        size += w @ powers[part.first:part.first + w.shape[1]]
        # -w from degree ``first`` on, and +w one degree up where damped
        for shift, sign in ((0, -1.0), (1, 1.0))[:1 + part.damped]:
            start = part.first + shift
            n = min(w.shape[1], max(width - start, 0))  # columns at or below the degree
            rho[:, start:start + n] += sign * w[:, :n]
            tail += w[:, n:] @ powers[start + n:start + w.shape[1]]
    rho[:, 0] -= tail
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
    and one truncation length, or one profile of K; ``r`` is a radius
    grid.  This is the engine behind all scalar entry points and
    :func:`least_margin`.

    ``out``, a writable float64 array of shape (S, R) (a view into a
    larger buffer will do), receives the left side and is returned as it,
    so repeated calls can reuse one workspace; anything else raises
    ParameterOutOfRange.  The right side is a read-only broadcast: a bound
    of r alone, or the bound 1, has stride 0 along the samples, and one
    that depends on the sample too is a full (S, R) array.

    ``coeff_bound`` (default: max(1, largest modulus)) and ``trunc_tol``
    must be positive and finite; that the bound holds every stored modulus
    is the caller's contract (:class:`LacunaryProfile` checks it).
    """
    th = _THEOREMS.get(theorem_id)
    if th is None:
        raise UnknownTheorem(f"no inequality with id {theorem_id!r}")
    mods = np.atleast_2d(np.asarray(mods, dtype=float))
    if mods.ndim != 2:
        raise ParameterOutOfRange(
            f"mods must be one profile or a (samples, moduli) matrix, got shape {mods.shape}")
    check_shape(m, p, "theorem margins")
    grid, rmin, rmax = _as_r_grid(r)
    _check_positive("trunc_tol", trunc_tol)
    if coeff_bound is None:
        coeff_bound = float(max(1.0, mods.max(initial=0.0)))
    _check_positive("coeff_bound", coeff_bound)
    if not exact:
        _check_truncation(mods.shape[1], m, p, rmax, coeff_bound, trunc_tol)
    shape = (mods.shape[0], grid.size)
    if out is not None and not (isinstance(out, np.ndarray) and out.dtype == np.float64
                                and out.shape == shape and out.flags.writeable):
        raise ParameterOutOfRange(f"out must be a writable float64 array of shape {shape}")
    s = extras.get("s") if extras and any(t.power == "s" for t in th.terms) else None
    _check_applicable(theorem_id, th, mods, m, p, rmin, rmax, s)
    return _evaluate(th, mods, m, p, grid, s, coeff_bound, out)


# ----------------------------------------------------------------------
# a campaign row's least margin, from the cells that can hold it
# ----------------------------------------------------------------------

# rounding a settled cell is allowed, relative to its parts' sum; the
# margin core's is at most 7.1e-15 on sums up to 4.3
_SETTLE_SLACK = 1e-12
# degree of the Bernstein bounds of a reduced form; coefficients above it
# go to the bound's tail, and at this degree every binomial stays finite
_BERNSTEIN_DEGREE = 64


def _least(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """min over cells of rhs - lhs, written over lhs; NaN if any cell is NaN."""
    return np.subtract(rhs, lhs, out=lhs).min()


def _unsettled(th: _Theorem, bank, m, p, grid, s) -> Tuple[np.ndarray, np.ndarray]:
    """The rows of ``bank`` and the radii of ``grid`` whose cells a bound-1
    core must evaluate (:func:`least_margin`); rounding is taken as
    _SETTLE_SLACK times P + N, and a NaN part or a NaN M settles nothing."""
    if _no_negative_part(th, m, p):
        return bank, grid[-1:]

    def parts(mods, cols):
        pos, neg = _parity_parts(th, mods, m, p, grid[cols], s)
        slack = _SETTLE_SLACK * (pos + neg)
        lhs = np.abs(pos - neg) if th.absolute else pos - neg
        return np.maximum(pos, neg) + slack, lhs - slack

    top = grid.size - 1
    high, low = parts(bank, [top])
    floor = low.max()
    rows = np.flatnonzero(~(high[:, 0] < floor))
    mods = bank if rows.size == bank.shape[0] else bank[rows]

    def settled(cols):
        return parts(mods, cols)[0].max(axis=0) < floor

    # Columns up to a settled one are settled.  Try top - 1, top - 2,
    # top - 4, ... and 0, then every column between the highest settled one
    # and the next one tried above it.
    tried = np.unique(np.append(top - (1 << np.arange(top.bit_length())), 0))
    ok = settled(tried)
    good = tried[ok].max(initial=-1)
    between = np.arange(good + 1, tried[~ok & (tried > good)].min(initial=top))
    if between.size:
        good = between[settled(between)].max(initial=good)
    return mods, grid[good + 1:]


@functools.lru_cache(maxsize=None)
def _bernstein_matrix(n: int) -> np.ndarray:
    """M with b = a M: the degree-n Bernstein coefficients on [0, 1] of
    sum_j a_j t^j are b_k = sum_(j <= k) C(k, j) / C(n, j) a_j (Farouki,
    CAGD 2012), each ratio rounded once."""
    matrix = np.array([[math.comb(k, j) / math.comb(n, j) for k in range(n + 1)]
                       for j in range(n + 1)])
    matrix.setflags(write=False)  # shared by every caller through the cache
    return matrix


def _reduced_floor(form: _Reduced, bank, m, p, top: float) -> np.ndarray:
    """A lower bound on each sample's rho over [0, Y], Y = top^(2p): the least
    Bernstein coefficient on [0, Y] of :func:`_reduced_polynomial` to degree
    _BERNSTEIN_DEGREE, at most rho there, is at most its least value
    (Garloff 1986); less _SETTLE_SLACK times rho's size at Y, for the
    rounding of this bound and of the cells it is held against."""
    y = top ** (2 * p)
    rho, size = _reduced_polynomial(form, bank, m, p, y, _BERNSTEIN_DEGREE)
    n = rho.shape[1] - 1
    least = (rho @ (y ** np.arange(n + 1)[:, None] * _bernstein_matrix(n))).min(axis=1)
    return least - _SETTLE_SLACK * size


def _reduced_least(th: _Theorem, bank, m, p, grid, bound, margins) -> float:
    """Least margin of a core with a reduced form (:func:`least_margin`);
    ``margins(mods, cols)`` is the core call on the radii ``cols``.  Past
    the head a sample's margin is at least g L, L its :func:`_reduced_floor`,
    less ``skip`` for the columns the engine skips (:class:`_Reduced`); a
    NaN, or L <= 0, settles nothing."""
    plan = _plan(th, m, p, bank.shape[1], None, bound)
    head = _buckets(_cut_counts(plan.lattices, grid))[0][1]
    low = _least(*margins(bank, grid[:head]))
    if head == grid.size:
        return low
    floor = _reduced_floor(th.reduced, bank, m, p, grid[-1])
    a, b = th.reduced.scale
    g = grid ** (a * p + b * m) / (1.0 - grid ** (2 * p))
    g = np.minimum.accumulate(g[::-1])[::-1]  # ascending, and at most g at and after each radius
    skip = _CUT_TOL * len(th.terms) * max(1.0, g[-1]) * bound ** 2
    over = np.full(floor.shape, np.nan)  # searchsorted puts NaN past every radius
    ok = floor > 0.0
    over[ok] = (low + skip) / floor[ok]
    stop = np.searchsorted(g, over, side="right")
    rows = np.flatnonzero(stop > head)
    if rows.size == 0:
        return low
    mods = bank if rows.size == bank.shape[0] else bank[rows]
    # np.minimum keeps a NaN from either call
    return np.minimum(low, _least(*margins(mods, grid[head:int(stop[rows].max())])))


def least_margin(theorem_id: str, bank: np.ndarray, m: int, p: int, grid: np.ndarray, s,
                 trunc_tol: float, work: np.ndarray,
                 caps: Optional[np.ndarray] = None) -> Optional[float]:
    """Least margin rhs - lhs of one core over a campaign row's cells.

    ``bank`` holds the row's moduli at the shape (m, p), one sample a row
    (a vanishing-start core gets its zero lattice start here), and ``s``
    its exponent or None.  ``caps``, for a row whose radius depends on the
    function (Thm31), is each sample's largest radius; None is returned
    where no cell lies below its cap.  Every core call goes through this
    module's attribute ``theorem_margins``, looked up when made, and
    writes its left side into the contiguous head of the flat workspace
    ``work``: a strided [:rows, :cols] view would spread it over every row.

    Which cells are evaluated: the least margin is that of a cell a call
    computed, and every cell left out is certified above it.  First, once,
    the checks a call over the whole bank and grid would make: the tail
    certificate at the top radius, on the coefficient bound of the whole
    bank, and the core's shape, window and start rules, so a cell left out
    is checked too; every call then takes that bound.

    A core with the bound 1 (ThmC/Thm41, Thm32, Thm34, Cor43) and no
    ``caps``, by :func:`_unsettled`: a sample's left side on [0, r] is at
    most the larger of its parity parts P and N at r, both nondecreasing
    in r (:class:`_Theorem`).  Where N is 0 at the shape (no signed term,
    no modulus taken and no negative weight: Thm32 and Thm34), every left
    side is P, so one call at the top radius evaluates the least margin; a
    lower cell could beat it only by rounding, inside the allowance below.
    Otherwise the largest left side at the top radius, less its rounding,
    M, is at most a cell the call always evaluates, and a sample's cells
    up to r whose bound at r is below M, with a 1e-12 relative rounding
    allowance, are settled; the call evaluates the unsettled samples over
    the suffix of the grid where some bound still reaches M.

    A core with a reduced form (LemDOdd, LemDEven, Lem21), by
    :func:`_reduced_least`: its margin is g(r) rho(y), y = r^(2p), with
    g > 0 ascending and rho a polynomial per sample (:class:`_Reduced`).
    One call evaluates every sample on the head of the grid, the first
    bucket of a whole-grid call (:func:`_buckets`), so those cells are bit
    for bit the ones a whole-grid call computes.  Each sample's least
    Bernstein coefficient on [0, r_top^(2p)] of rho built to degree at
    most 64, its constant lowered by a bound on the coefficients above
    (less a 1e-12 relative allowance), bounds its margin below by g(r)
    times it, which settles every radius past the first where that exceeds
    the head's least.  A second call evaluates the samples left, if any,
    over the radii they still need.

    Every other core (ThmB, Thm31, the envelopes) evaluates every cell.
    """
    th = _THEOREMS[theorem_id]
    if th.vanishing_start:
        bank = np.hstack([np.zeros((bank.shape[0], 1)), bank])
    bound = float(max(1.0, bank.max(initial=0.0)))
    rmin, rmax = float(grid.min(initial=1.0)), float(grid.max(initial=0.0))
    _check_truncation(bank.shape[1], m, p, rmax, bound, trunc_tol)
    _check_applicable(theorem_id, th, bank, m, p, rmin, rmax, s)
    extras = None if s is None else {"s": s}

    def margins(mods, cols):
        shape = (mods.shape[0], cols.size)
        return theorem_margins(theorem_id, mods, m, p, cols, extras=extras,
                               trunc_tol=trunc_tol, coeff_bound=bound,
                               out=work.reshape(-1)[:math.prod(shape)].reshape(shape))

    if th.reduced is not None:
        return float(_reduced_least(th, bank, m, p, grid, bound, margins))
    if caps is not None:
        lhs, rhs = margins(bank, grid)
        valid = grid[None, :] <= caps[:, None]
        return float(np.subtract(rhs, lhs, out=lhs)[valid].min()) if valid.any() else None
    mods, cols = (bank, grid) if th.rhs is not None else _unsettled(th, bank, m, p, grid, s)
    return float(_least(*margins(mods, cols)))


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
    grid, _, rmax = _as_r_grid(r)
    if not profile.exact:
        _check_truncation(profile.mods.size, profile.m, profile.p, rmax,
                          profile.coeff_bound, trunc_tol)
    mods = profile.mods[None, :]  # one sample
    b, a = (_evaluate(th, mods, profile.m, profile.p, grid, None,
                      profile.coeff_bound, None)[0][0]  # its left side's one row
            for th in _SUMS)
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
    # A profile's bound is at most 0 only where its moduli are at most 1e-12;
    # the least positive float bounds them too, and cuts what 0 cuts.
    lhs, rhs = theorem_margins(theorem_id, profile.mods, profile.m, profile.p,
                               r, extras=extras, trunc_tol=trunc_tol,
                               coeff_bound=max(profile.coeff_bound, math.ulp(0.0)),
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
