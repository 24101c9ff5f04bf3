"""Vector-valued checks along complex lines.

The vector-valued bounds reduce to one-variable statements by slicing: a
mapping f on the unit ball of l_t^n restricted to lambda -> lambda * z0
along a unit direction z0 gives component functions h_j(lambda) =
f_j(lambda z0), each a disk-to-closed-disk function supported on the same
index lattice as f.  The max over components of the k-th coefficient
modulus is exactly the degree-k directional derivative norm divided by
k!, so the vector inequalities become profile inequalities and reuse the
scalar evaluators.

Sharpness scans maximize the known extremal families' left sides over
the family parameter, witnessing failure just above the sharp radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from . import series as ps
from .errors import (
    DegenerateDirection,
    ParameterOutOfRange,
    RadiusOutOfRange,
    ShapeMismatch,
    TruncationInsufficient,
    UnknownTheorem,
    check_shape,
)
from .functionals import (
    _ROWS,
    _THEOREMS,
    DEFAULT_MARGIN_TOL,
    DEFAULT_TRUNC_TOL,
    InequalityCheck,
    LacunaryProfile,
    _cut_length,
    evaluate_theorem,
    lacunary_length_for,
    theorem_margins,
)
from .schur import _seed_ints, extremal_family, family_moduli
from .series import TruncatedSeries

__all__ = [
    "SLICE_KINDS",
    "SCAN_IDS",
    "Direction",
    "SliceMapping",
    "lt_norm",
    "random_direction",
    "random_directions",
    "slice_from_direction",
    "frechet_norms",
    "vector_check",
    "lemma21_margins",
    "sharpness_scan",
    "default_scan_grid",
]

SLICE_KINDS = ("SharpThm34", "SharpThm41", "SharpCor42", "GeneralZG")
# the families of the rows' scans, in row order
SCAN_IDS = tuple(dict.fromkeys(row.scan for row in _ROWS.values() if row.scan))
MAX_SCAN_STEPS = 1 << 16  # family parameters of a default scan grid
# A family table holds at least the lattice moduli up to order 512: every
# scan that an order-512 table certifies reads those columns, and a
# shorter table would change the bits of its result.
MIN_SCAN_ORDER = 512
# family parameters x lattice moduli of one scan's table; the largest
# order-512 table, (MAX_SCAN_STEPS + 6) x 513 cells, fits about twice
MAX_SCAN_CELLS = 1 << 26

# named slice kind -> (its extremal_family E, the fixed (m, p) if any)
_NAMED_SLICES = {
    "SharpThm34": ("LacunaryD", None),
    "SharpThm41": ("Monomial", None),
    "SharpCor42": ("LacunaryD", (1, 1)),
}


def _lt_norms(rows: np.ndarray, t: float) -> np.ndarray:
    """l_t norm of each vector along the last axis of a complex array."""
    if rows.shape[-1] == 0:
        raise ParameterOutOfRange("norm of an empty vector is undefined")
    t = float(t)
    if not t >= 1.0:  # also rejects NaN
        raise ParameterOutOfRange(f"l_t norms need t >= 1, got t={t}")
    mods = np.abs(rows)
    if math.isinf(t):
        return mods.max(axis=-1)
    return (mods ** t).sum(axis=-1) ** (1.0 / t)


def lt_norm(v: Sequence[complex], t: float) -> float:
    """l_t norm (sum |v_i|^t)^(1/t); t = inf gives the max norm."""
    return float(_lt_norms(np.atleast_1d(np.asarray(v, dtype=complex)), t))


def _check_unit(norms: np.ndarray) -> None:
    """A direction's rule: each l_t norm within 1e-12 of 1 (NaN fails)."""
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= 1e-12))
    if bad.size:
        nrm = float(np.ravel(norms)[bad[0]])
        raise ParameterOutOfRange(f"direction must be unit-norm in l_t, got ||z0||_t = {nrm!r}")


@dataclass(frozen=True)
class Direction:
    """Unit vector of l_t^n plus the norm index t (math.inf for the sup norm)."""

    z0: np.ndarray
    t: float

    def __post_init__(self):
        arr = np.array(self.z0, dtype=complex, copy=True)
        if arr.ndim != 1 or arr.size == 0:
            raise ParameterOutOfRange("direction must be a nonempty complex vector")
        _check_unit(_lt_norms(arr, self.t))
        arr.setflags(write=False)
        object.__setattr__(self, "z0", arr)
        object.__setattr__(self, "t", float(self.t))

    @classmethod
    def normalized(cls, v: Sequence[complex], t: float) -> "Direction":
        arr = np.asarray(v, dtype=complex)
        nrm = lt_norm(arr, t)
        if nrm == 0.0:
            raise DegenerateDirection("cannot normalize the zero vector")
        return cls(arr / nrm, t)

    @property
    def n(self) -> int:
        return self.z0.size

    @property
    def sup_norm(self) -> float:
        return float(np.abs(self.z0).max())


def random_directions(seeds: Sequence[int], n: int, t: float) -> np.ndarray:
    """Unit vectors of l_t^n, one row per seed: complex gaussian entries, normalized.

    Row i draws from ``np.random.default_rng(seeds[i])``: n normals for
    the real parts, then n for the imaginary parts.  Seeds are integers
    in [0, 2^128), as the sampler's are.  Every row is checked as
    :class:`Direction` checks a vector.
    """
    seeds = _seed_ints(seeds)
    z = np.empty((len(seeds), 2 * n))
    for seed, row in zip(seeds, z):
        np.random.default_rng(seed).standard_normal(out=row)
    rows = z[:, :n] + 1j * z[:, n:]
    nrm = _lt_norms(rows, t)
    if (nrm == 0.0).any():
        raise DegenerateDirection("cannot normalize the zero vector")
    rows /= nrm[:, None]
    _check_unit(_lt_norms(rows, t))
    return rows


# No campaign calls this; it stays because perfbench's tracer wraps it by name.
def random_direction(seed: int, n: int, t: float) -> Direction:
    """Deterministic unit direction; the one-row case of :func:`random_directions`."""
    return Direction(random_directions([seed], n, t)[0], t)


@dataclass(frozen=True)
class SliceMapping:
    """Component series h_j(lambda) = f_j(lambda z0) of a sliced mapping.

    ``exact=True`` marks polynomial slices whose stored coefficients are
    the whole function (the monomial family), so downstream profiles skip
    the tail certificate.
    """

    components: Tuple[TruncatedSeries, ...]
    m: int
    p: int
    t: float
    exact: bool = False

    def __post_init__(self):
        if not self.components:
            raise ParameterOutOfRange("a slice needs at least one component")
        check_shape(self.m, self.p, "slice shape")
        order = min(h.order for h in self.components)
        comps = []
        for j, h in enumerate(self.components):
            if h.sup_bound is None or h.sup_bound > 1.0 + 1e-9:
                raise ParameterOutOfRange(
                    f"component {j} is not certified disk-bounded (sup_bound <= 1)"
                )
            h = ps.truncate(h, order)
            off = np.abs(h.coeffs).copy()
            off[self.m :: self.p] = 0.0
            worst = float(off.max(initial=0.0))
            if worst > 1e-11:
                raise ShapeMismatch(
                    f"component {j} has off-lattice modulus {worst:.3e} "
                    f"for shape ({self.m},{self.p})"
                )
            comps.append(h)
        object.__setattr__(self, "components", tuple(comps))

    @property
    def order(self) -> int:
        return self.components[0].order

    @property
    def n(self) -> int:
        return len(self.components)


def slice_from_direction(
    kind: str,
    z0: Direction,
    order: int,
    *,
    a: Optional[float] = None,
    m: Optional[int] = None,
    p: Optional[int] = None,
    g: Optional[TruncatedSeries] = None,
) -> SliceMapping:
    """Slice one of the named mappings (or a caller-supplied f = z*g) along z0.

    SharpThm34:  f_1 = z1^m (a - z1^p)/(1 - a z1^p), f_j = z_j z1^(m-1) (...)
    SharpThm41:  f_1 = z1^(m+p), f_j = z_j z1^(m+p-1)
    SharpCor42:  f_j = z_j (a - z1)/(1 - a z1), shape (1, 1)
    GeneralZG:   f_j = z_j g(z); the caller passes the one-variable slice
                 of g along z0, and the components are h_j = (z0)_j z g(z).

    Each named mapping is f_j = (z_j / z1) E(z1) with E its
    :func:`~bohrcert.schur.extremal_family` in ``_NAMED_SLICES``, so with
    w = (z0)_1 its slice is GeneralZG's with z g(z) = E(z w) / w, whose
    coefficient n is e_n w^(n-1).  Every E has e_0 = 0, so nothing is
    divided by w; but the named mappings need w != 0.
    """
    if kind not in SLICE_KINDS:
        raise UnknownTheorem(f"no slice family with kind {kind!r}")
    family, fixed = _NAMED_SLICES.get(kind, (None, None))
    m, p = fixed or (m, p)
    if m is None or p is None or not 1 <= m <= p:
        raise ParameterOutOfRange(f"{kind} needs a shape with 1 <= m <= p, got m={m}, p={p}")
    if order < m + p:
        raise ParameterOutOfRange("order must reach at least m + p")

    if family is None:  # GeneralZG
        if g is None:
            raise ParameterOutOfRange("GeneralZG needs the sliced factor g")
        if g.sup_bound is None or g.sup_bound > 1.0 + 1e-12:
            raise ParameterOutOfRange("GeneralZG needs g with sup_bound <= 1")
        # z * g exactly; never pad g with fabricated zero coefficients, so
        # the slice order is capped by what g actually determines.
        body = np.concatenate([[0.0], g.coeffs])[: order + 1]
    else:
        w = complex(z0.z0[0])
        if w == 0.0:
            raise DegenerateDirection(
                f"{kind} slices need a direction with nonzero first coordinate"
            )
        if a is None and family != "Monomial":
            raise ParameterOutOfRange(f"{kind} needs the family parameter a")
        e = extremal_family(family, 0.0 if a is None else a, m, p, order).coeffs
        body = e * w ** np.maximum(np.arange(e.size) - 1, 0)
    comps = tuple(TruncatedSeries(zj * body, 1.0) for zj in z0.z0)
    return SliceMapping(comps, m, p, z0.t, exact=(family == "Monomial"))


def frechet_norms(slice_map: SliceMapping, r: float) -> np.ndarray:
    """Directional derivative norms along the slice, scaled to radius r.

    Entry i is max_j |coefficient (i*p + m) of h_j| * r^(i*p+m), one entry
    per lattice index within the slice's order.  r = 1 returns the raw
    coefficient norms (used to build profiles for the vector checks).
    """
    if not 0.0 <= r <= 1.0:
        raise RadiusOutOfRange(f"frechet_norms defined for 0 <= r <= 1, got {r}")
    m, p = slice_map.m, slice_map.p
    if slice_map.order < m:
        raise TruncationInsufficient(
            f"slice order {slice_map.order} below the first lattice index {m}"
        )
    stack = np.vstack([np.abs(h.coeffs[m :: p]) for h in slice_map.components])
    nu = stack.max(axis=0)
    if r < 1.0:
        k = np.arange(nu.size)
        nu = nu * r ** (k * p + m)
    return nu


# No campaign calls this; it stays because perfbench's tracer wraps it by name.
def lemma21_margins(nu: np.ndarray, m: int, p: int, r) -> Tuple[np.ndarray, np.ndarray]:
    """Batched even-tail bound of f = z*g slices: the catalog's ``Lem21``.

    ``nu`` are the raw directional coefficient norms (radius 1) of whole
    slices, so no tail is certified.
    """
    return theorem_margins("Lem21", nu, m, p, r, exact=True)


def vector_check(
    theorem_id: str,
    slice_map: SliceMapping,
    r: float,
    tol: float = DEFAULT_MARGIN_TOL,
    trunc_tol: float = DEFAULT_TRUNC_TOL,
) -> InequalityCheck:
    """Evaluate a vector-valued bound on one slice at radius r.

    Runs the id's ``functionals._ROWS`` row, one whose ``slice_check`` flag
    is set, on the slice's directional-norm profile: its first core, at
    the row's fixed shape where it has one.  Cor42 takes (1, 1) slices,
    and the row reindexes their norms to the vanishing-start shape (0, 1)
    of its Thm32 core.  Every id checks a slice of f = z*g, so needs m >= 1.
    """
    row = _ROWS.get(theorem_id)
    if row is None or not row.slice_check:
        raise UnknownTheorem(f"no vector check with id {theorem_id!r}")
    m, p = slice_map.m, slice_map.p
    if m < 1:
        raise ShapeMismatch(f"{theorem_id} needs shape 1 <= m <= p, got m={m}")
    if row.shape is not None and (m, p) != row.shape:
        raise ShapeMismatch(f"{theorem_id} applies to shape {row.shape}, got ({m},{p})")
    nu = frechet_norms(slice_map, 1.0)
    if row.rules.vanishing_start:
        nu = np.concatenate([[0.0], nu])
    profile = LacunaryProfile(*row.core_shape(m, p), nu, exact=slice_map.exact)
    check = evaluate_theorem(row.cores[0], profile, r, tol=tol, trunc_tol=trunc_tol)
    return replace(check, theorem_id=theorem_id)


# ----------------------------------------------------------------------
# sharpness scans
# ----------------------------------------------------------------------


def default_scan_grid(steps: int = 256) -> np.ndarray:
    """Family-parameter grid: dense on [0, 0.98] plus points pushing a -> 1.

    Includes 0 (the monomial member), 1/3 (the maximizer of the
    vanishing-start envelope at its sharp radius for shape (0, 1)), and
    near-boundary values where the origin-weighted scans peak.
    """
    if steps < 0:
        raise ParameterOutOfRange(f"the scan grid needs a step count >= 0, got {steps}")
    if steps > MAX_SCAN_STEPS:
        raise ParameterOutOfRange(
            f"the scan grid's step count is capped at {MAX_SCAN_STEPS}, got {steps}")
    grid = np.linspace(0.0, 0.98, steps)
    extra = np.array([1.0 / 3.0, 0.99, 0.995, 0.999, 0.9995, 0.9999])
    return np.unique(np.concatenate([grid, extra]))


def sharpness_scan(
    theorem_id: str,
    p: int,
    m: int,
    r: float,
    a_grid: Sequence[float],
    s: Optional[float] = None,
) -> float:
    """Max over the family parameter of the extremal left side at radius r.

    Every scan first applies its core's ``_THEOREMS`` rules (its one
    stated shape, an odd gap, m >= 1, a positive s).  Thm31 and Thm32 sum
    their entry's ``envelope``; Thm34, Thm41 and Cor43 evaluate their
    catalog core on the lifted automorphism family.  Its table holds the
    lattice moduli that certify r, and at least those up to order
    ``MIN_SCAN_ORDER``, but none past the 2^-64 lattice cut at r, so any
    radius the cut reaches is certified.  A table of more than
    ``MAX_SCAN_CELLS`` cells is refused before it is built.

    Every family member is a valid class member, so the max stays <= 1
    below the sharp radius and exceeds 1 above it (for Thm31 the
    crossing happens at the smallest per-parameter radius on the grid).
    """
    if theorem_id not in SCAN_IDS:
        raise UnknownTheorem(f"no sharpness scan for id {theorem_id!r}")
    check_shape(m, p, "scans")
    th = _THEOREMS[theorem_id]
    th.check(theorem_id, m, p, s)
    a = np.asarray(a_grid, dtype=float)
    if a.size == 0:
        raise ParameterOutOfRange("empty family-parameter grid")
    if not (a.min() >= 0.0 and a.max() < 1.0):  # also rejects NaN
        raise ParameterOutOfRange("family parameters must lie in [0, 1)")
    if not 0.0 < r < 1.0:
        raise RadiusOutOfRange(f"scan radius must lie in (0, 1), got {r}")

    if th.envelope is not None:
        return float(th.envelope(a, m, p, r, s).max())
    # Family moduli are at most 1, the coefficient bound of the core call,
    # so columns past the lattice cut at r add nothing; below the cut the
    # table holds the moduli that certify r, and never fewer than those of
    # order MIN_SCAN_ORDER.
    floor = max((MIN_SCAN_ORDER - m) // p + 1, lacunary_length_for(m, p, r) + 1)
    length = max(2, int(min(floor, _cut_length(m, p, r, 1.0))))
    if a.size * length > MAX_SCAN_CELLS:
        raise ParameterOutOfRange(
            f"a scan at r={r} needs {a.size} x {length} family moduli "
            f"(cap {MAX_SCAN_CELLS} cells)")
    mods = family_moduli(a, length)
    # a lookup in this module: perfbench probes ``multidim.theorem_margins``
    lhs, _ = theorem_margins(theorem_id, mods, m, p, [r], coeff_bound=1.0)
    return float(lhs.max())
