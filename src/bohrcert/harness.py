"""Certification campaigns: seeded sweeps, sharpness scans, reports.

A campaign row is one (theorem, shape, norm index) combination.  For each
row the runner solves the sharp radius, draws seeded test functions
lifted to the row's lattice shape, evaluates the inequality margins on
the radius grid capped just below the radius, runs the extremal
sharpness scan just above it where one is defined, and records a
pass/fail verdict:

    pass  <=>  min margin >= -tol below the radius, and the scan exceeds
               1 above it (where a scan is defined).

Where a row's facts live: ``functionals._ROWS`` maps each campaign id to
a ``RowSpec`` (its margin cores, radius equation, sharpness family, fixed
shape and vector flag).  Every core is a ``functionals._THEOREMS`` entry,
and its formula, its shape, odd-gap and m >= 1 rules, its radius window
and its vanishing start (a zero lattice start prepended to the bank, as
for the Thm32 core) are read from there; the radius equations from
``radius._EQUATIONS``.  A requested id whose every shape its rules drop
is an error, raised before any row runs.

What a campaign allocates: one bank per shape, and one flat (samples x
grid points) margin workspace, allocated once and sized for the longest
grid a row can have.  Every core call writes its left side into a
contiguous array over the head of that workspace, and the row writes
its margins over it and takes their least.  Rows that compute the same
margin (the same ``_THEOREMS`` entries, radius equation, shapes, s and
grid, as ThmC and Thm41 do) are evaluated once and reported under each
id, and so are the t rows of a vector id at one shape.
``CampaignConfig`` refuses, before anything is allocated, a config whose
samples x bank length or samples x grid points exceeds ``MAX_CELLS``.

Which cells a row evaluates: a row reports the least margin of a cell it
computed, and every cell it leaves out is certified above that least.
Before any core call, the row runs once the checks a call over its whole
bank and grid would make: the tail certificate at the top radius, on the
coefficient bound of the whole bank, and each core's shape, window and
start rules, so a cell it leaves out is checked too; every core call
then takes that bound.  Two bounds settle cells.  A core with the bound
1 (ThmC/Thm41, Thm32, Thm34 and Cor43, so also the Cor33 and Cor42 rows)
on a row whose radius does not depend on the function: a sample's left
side on [0, r] is at most the larger of its two nonnegative parity parts
P and N at r, since both are nondecreasing in r.  Where N is 0 at the row's shape (no signed
term, no modulus taken and no negative weight: Thm32 and Thm34), every
left side is P itself, so one call over the whole bank at the top radius
evaluates the least margin; a lower cell could beat it only by rounding,
inside the allowance below.  Otherwise (ThmC/Thm41, Cor43) the largest
left side at the top radius, M, is a cell the core call always
evaluates, and cells whose bound is below M, by a rounding allowance of
1e-12 relative, are settled; the call evaluates the unsettled samples
over the suffix of the grid where some bound still reaches M.  A core
with a reduced form (LemDOdd, LemDEven, Lem21): its margin is g(r)
rho(y), y = r^(2p), with g > 0 ascending and rho a polynomial per
sample.  One call evaluates every sample on the head of the grid, the
first bucket of a whole-grid call, so those cells are bit for bit the
ones a whole-grid call computes.  Each sample's least Bernstein
coefficient on [0, r_top^(2p)] of rho built to degree at most 64, its
constant lowered by a bound on the coefficients above (less a 1e-12
relative rounding allowance), bounds its margin below by g(r) times it,
which settles every radius past the first where that exceeds the head's
least.  A second call, if any, evaluates the samples left over the radii
they still need.  ThmB, Thm31's per-function rows and the envelopes
evaluate every cell.

Vector rows (Cor42, Lem21) run at the worst unit direction of l_t^n, e_1,
for every n and t >= 1: a direction z0 enters them only as the factor
c = max_j |z0_j| <= 1 on the bank, and both cores' margins are
nonincreasing in c (proofs at their ``functionals._THEOREMS`` entries).

Determinism contract: sample i of a bank draws from its own generator,
seeded bank_seed XOR i with bank_seed a CRC of the bank's shape mixed with
the config seed, exactly as a single draw would, though the bank is drawn
in one batch; so identical configs produce byte-identical reports.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import zlib
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import functionals as fn
from . import multidim as md
from . import radius as rad
from .errors import (BohrcertError, CampaignError, ParameterOutOfRange, TruncationInsufficient,
                     check_shape)
from .functionals import _ROWS
from .schur import sample_bank
# No campaign calls this; it stays because perfbench's tracer wraps it by name.
from .schur import sample_schur  # noqa: F401

__all__ = [
    "CAMPAIGN_THEOREMS",
    "CampaignConfig",
    "ReportRow",
    "Report",
    "run_campaign",
    "emit_report",
    "report_to_json",
    "report_from_json",
    "config_from_json",
]

CAMPAIGN_THEOREMS = tuple(_ROWS)
MAX_GRID_POINTS = 1 << 20  # radii in one campaign grid
MAX_SAMPLES = 1 << 16  # seeded functions per bank
MAX_DEPTH = 64  # sampler parameters per function; the bank build is O(depth^2)
MAX_CELLS = 1 << 25  # samples x bank length, and samples x grid points
_RADIUS_MARGIN = 1e-3  # sweep stops this far below the solved radius
_SCAN_OFFSET = 1e-2  # sharpness scans run this far above it
# rounding a settled cell is allowed, relative to its parts' sum; the
# margin core's is at most 7.1e-15 on sums up to 4.3
_SETTLE_SLACK = 1e-12
# degree of the Bernstein bounds of a reduced form; coefficients above it
# go to the bound's tail, and at this degree every binomial stays finite
_BERNSTEIN_DEGREE = 64


def _as_list(name: str, value) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ParameterOutOfRange(f"{name} must be a list, got {type(value).__name__}")
    return tuple(value)


def _as_int(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterOutOfRange(f"{name} must hold integers, got {value!r}")
    return int(value)


def _as_float(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ParameterOutOfRange(f"{name} must hold numbers, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ParameterOutOfRange(f"{name} holds a number too large for a float") from None


@dataclass(frozen=True)
class CampaignConfig:
    """Flat campaign description; serializable as flat key-value JSON."""

    theorems: Tuple[str, ...]
    shapes: Tuple[Tuple[int, int], ...] = ((0, 1),)  # (m, p) pairs
    t_values: Tuple[float, ...] = (2.0,)
    samples: int = 100
    seed: int = 0
    depth: int = 5
    r_start: float = 0.005
    r_stop: float = 0.95
    r_step: float = 0.005
    tol: float = fn.DEFAULT_MARGIN_TOL
    trunc_tol: float = fn.DEFAULT_TRUNC_TOL
    s_values: Tuple[float, ...] = (1.0,)
    scan_steps: int = 256
    output: str = "report.json"
    format: str = "json"

    def __post_init__(self):
        def put(name, value):
            object.__setattr__(self, name, value)

        put("theorems", _as_list("theorems", self.theorems))
        for th in self.theorems:
            if not isinstance(th, str) or th not in _ROWS:
                raise ParameterOutOfRange(f"unknown campaign theorem {th!r}")
        shapes = []
        for shape in _as_list("shapes", self.shapes):
            if not isinstance(shape, (list, tuple)) or len(shape) != 2:
                raise ParameterOutOfRange(f"a shape is an (m, p) pair, got {shape!r}")
            shapes.append(tuple(_as_int("shapes", x) for x in shape))
        put("shapes", tuple(shapes))
        for name in ("t_values", "s_values"):
            put(name, tuple(_as_float(name, x) for x in _as_list(name, getattr(self, name))))
        for name in ("samples", "seed", "depth", "scan_steps"):
            put(name, _as_int(name, getattr(self, name)))
        for name in ("r_start", "r_stop", "r_step", "tol", "trunc_tol"):
            put(name, _as_float(name, getattr(self, name)))
        for name in ("output", "format"):
            if not isinstance(getattr(self, name), str):
                raise ParameterOutOfRange(f"{name} must be a string")
        for m, p in self.shapes:
            check_shape(m, p, "campaign shape")
        if not all(t >= 1.0 for t in self.t_values):
            raise ParameterOutOfRange("norm indices t must be >= 1 or inf")
        if not all(s > 0.0 for s in self.s_values):  # NaN fails too
            raise ParameterOutOfRange("s_values must hold exponents s > 0")
        # a looser trunc_tol would shorten every bank and leave its tail uncertified
        if not math.isfinite(self.tol) or not 0.0 < self.trunc_tol <= fn.DEFAULT_TRUNC_TOL:
            raise ParameterOutOfRange(
                f"tol must be a finite number and trunc_tol in (0, {fn.DEFAULT_TRUNC_TOL:g}]")
        if not self.samples >= 1:
            raise ParameterOutOfRange("sample count must be >= 1")
        if not 0.0 < self.r_step < math.inf:
            raise ParameterOutOfRange(f"r_step must be a finite number > 0, got {self.r_step}")
        if not 0.0 <= self.r_start < 1.0:
            raise ParameterOutOfRange("need 0 <= r_start < 1")
        if not self.r_stop < 1.0:
            raise ParameterOutOfRange("r_stop must be < 1")
        if self.r_start > self.r_stop:
            raise ParameterOutOfRange(
                f"need r_start <= r_stop, got r_start={self.r_start}, r_stop={self.r_stop}")
        if self.r_stop > 0.99:
            raise ParameterOutOfRange("r_stop is capped at 0.99")
        # _grid's point count at r_stop, kept a float so a tiny r_step cannot overflow
        if (self.r_stop - self.r_start) / self.r_step + 1e-9 >= MAX_GRID_POINTS:
            raise ParameterOutOfRange(
                f"the radius grid would exceed {MAX_GRID_POINTS} points; raise r_step")
        if self.samples > MAX_SAMPLES:
            raise ParameterOutOfRange(f"sample count is capped at {MAX_SAMPLES}")
        if self.format not in ("json", "csv"):
            raise ParameterOutOfRange(f"unknown report format {self.format!r}")
        if not self.depth >= 1:
            raise ParameterOutOfRange("sampler depth must be >= 1")
        if not self.scan_steps >= 0:
            raise ParameterOutOfRange(f"scan_steps must be >= 0, got {self.scan_steps}")
        for name, cap in (("depth", MAX_DEPTH), ("scan_steps", md.MAX_SCAN_STEPS)):
            if getattr(self, name) > cap:
                raise ParameterOutOfRange(f"{name} is capped at {cap}, got {getattr(self, name)}")
        # the two (samples x length) arrays a campaign allocates: its longest
        # bank, over every shape a row may draw one at, and its margin workspace
        bank = 0
        for th in self.theorems:
            for m, p in _kept_shapes(th, self.shapes):
                try:
                    bank = max(bank, _bank_length(self, m, p))
                except TruncationInsufficient:
                    pass  # the row that draws this bank refuses it
        for what, length, fix in (
                ("bank length", bank, "or r_stop"),
                ("grid points", _grid_points(self, self.r_stop), "or raise r_step")):
            if self.samples * length > MAX_CELLS:
                raise ParameterOutOfRange(
                    f"samples x {what} is capped at {MAX_CELLS}, got "
                    f"{self.samples} x {length}; lower samples {fix}")


@dataclass(frozen=True)
class ReportRow:
    """One row of a report.  Its fields, in order, are the report's columns:
    the keys of a JSON row and the CSV header, ``passed`` written ``pass``."""

    theorem: str
    p: int
    m: int
    t: Optional[float]
    radius: Optional[float]
    radius_closed_form: Optional[float]
    samples: int
    grid_points: int
    min_margin: Optional[float]
    sharpness_max: Optional[float]
    passed: bool


@dataclass(frozen=True)
class Report:
    rows: Tuple[ReportRow, ...]

    @property
    def all_pass(self) -> bool:
        return all(row.passed for row in self.rows)


# ----------------------------------------------------------------------
# row plumbing
# ----------------------------------------------------------------------


def _row_seed(config_seed: int, label: str) -> int:
    return zlib.crc32(label.encode("utf-8")) ^ (config_seed & 0xFFFFFFFF)


def _grid_points(config: CampaignConfig, cap: float) -> int:
    hi = min(config.r_stop, cap)
    if hi < config.r_start:
        return 0
    return int(math.floor((hi - config.r_start) / config.r_step + 1e-9)) + 1


def _grid(config: CampaignConfig, cap: float) -> np.ndarray:
    return config.r_start + config.r_step * np.arange(_grid_points(config, cap))


def _bank_length(config: CampaignConfig, m: int, p: int) -> int:
    """Moduli per bank row: the tail certificate passes at r_stop, with one
    spare for the vanishing-start rows, which shift by one."""
    return fn.lacunary_length_for(m, p, config.r_stop, config.trunc_tol) + 1


def _bank(cache: Dict, config: CampaignConfig, m: int, p: int) -> np.ndarray:
    """Matrix of lattice moduli |phi_k| for `samples` seeded draws.

    One bank per shape, :func:`_bank_length` moduli long; per-sample
    seeds are bank_seed XOR sample index, and the whole bank is drawn and
    expanded in one batch.
    """
    key = (m, p)
    have = cache.get(key)
    if have is not None:
        return have
    length = _bank_length(config, m, p)
    bank_seed = _row_seed(config.seed, f"bank:{m}:{p}")
    seeds = [bank_seed ^ i for i in range(config.samples)]
    mat = np.abs(sample_bank(seeds, config.depth, length - 1))
    cache[key] = mat
    return mat


def _kept_shapes(theorem: str, shapes) -> List[Tuple[int, int]]:
    """The shapes an id runs at: the one it is fixed to, whatever shapes are
    requested, or those of ``shapes`` its odd-gap and m >= 1 rules keep."""
    row = _ROWS[theorem]
    fixed = row.shape or row.at or row.rules.shape
    if fixed is not None:
        return [fixed]
    rules = row.rules
    return [(m, p) for m, p in shapes
            if (p % 2 == 1 or not rules.odd_gap) and (m >= 1 or not rules.positive_m)]


def _row_plan(theorem: str, config: CampaignConfig) -> Tuple[list, tuple, tuple]:
    """The shapes (:func:`_kept_shapes` of the requested ones), norm indices t
    and exponents s an id runs at; an error where any of them is empty."""
    row = _ROWS[theorem]
    shapes = _kept_shapes(theorem, config.shapes)
    if not shapes:
        if not config.shapes:
            raise ParameterOutOfRange(f"{theorem} needs a shape m:p, and none was requested")
        needs = [what for what, rule in (("an odd gap p", row.rules.odd_gap),
                                         ("m >= 1", row.rules.positive_m)) if rule]
        asked = ", ".join(f"{m}:{p}" for m, p in config.shapes)
        raise ParameterOutOfRange(
            f"{theorem} needs {' and '.join(needs)}, which no requested shape has ({asked})")
    t_list, s_list = (getattr(config, key) if used else (None,)
                      for key, used in (("t_values", row.vector), ("s_values", row.per_function)))
    for key, values in (("t_values", t_list), ("s_values", s_list)):
        if not values:
            raise ParameterOutOfRange(f"{theorem} needs a value in {key}, and none was given")
    return shapes, t_list, s_list


@dataclass
class _Shared:
    """What the rows of one campaign share."""

    work: np.ndarray  # flat samples x grid points left sides, reused by every core call
    scan_grid: np.ndarray  # family parameters of the sharpness scans
    banks: Dict[Tuple[int, int], np.ndarray]  # lattice moduli by shape
    margins: Dict[tuple, Optional[float]]  # least margins by what determines them


def _least(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """min over cells of rhs - lhs, written over lhs; NaN if any cell is NaN."""
    return np.subtract(rhs, lhs, out=lhs).min()


def _unsettled(th, bank, m, p, grid, s) -> Tuple[np.ndarray, np.ndarray]:
    """The rows of ``bank`` and the radii of ``grid`` whose cells a bound-1
    core must evaluate.

    Where N is 0 at (m, p) (``functionals._no_negative_part``) each left
    side is P, nondecreasing in r, so the top radius alone holds the least
    margin; a lower cell can beat it only by rounding, inside the
    _SETTLE_SLACK allowance below.  Otherwise lhs_i <= max(P_i, N_i) on
    [0, r] with both parts taken at r, since they are nondecreasing
    (``functionals._Theorem``).  M, the largest left side at the top radius
    less its rounding, is at most some real cell's value there; a sample's
    cells up to r are settled where its bound at r, plus its rounding, is
    below M, for none of them can then hold the least margin.  Rounding is
    taken as _SETTLE_SLACK times P + N.  A NaN part or a NaN M settles
    nothing.
    """
    if fn._no_negative_part(th, m, p):
        return bank, grid[-1:]

    def parts(mods, cols):
        pos, neg = fn._parity_parts(th, mods, m, p, grid[cols], s)
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


def _reduced_floor(form, bank, m, p, top: float) -> np.ndarray:
    """A lower bound on each sample's rho over [0, Y], Y = top^(2p).

    ``functionals._reduced_polynomial`` builds rho only to degree
    n = min(degree, _BERNSTEIN_DEGREE), with its constant lowered by a
    bound on the tail sum_(j > n) |c_j| Y^j, so the polynomial is at most
    rho on [0, Y].  Its least Bernstein coefficient on [0, Y] is at most its
    least value there (Garloff 1986).  Less _SETTLE_SLACK times rho's size
    at Y, for the rounding of this bound and of the cells it is held
    against.
    """
    y = top ** (2 * p)
    rho, size = fn._reduced_polynomial(form, bank, m, p, y, _BERNSTEIN_DEGREE)
    n = rho.shape[1] - 1
    least = (rho @ (y ** np.arange(n + 1)[:, None] * _bernstein_matrix(n))).min(axis=1)
    return least - _SETTLE_SLACK * size


def _reduced_least(core, bank, m, p, grid, bound, margins) -> float:
    """Least margin of a core with a reduced form (``functionals._Reduced``)
    over the bank and the grid, from the cells that can hold it;
    ``margins(mods, cols)`` is the row's core call on the radii ``cols``.

    Every sample is evaluated on the head of the grid, the first bucket a
    whole-grid call would form, so those cells are the ones that call
    computes, bit for bit.  Past the head, a sample's margin at r is
    g(r) rho(y) >= g(r) L, with L its :func:`_reduced_floor`, less at most
    ``skip`` for the columns the engine skips.  g ascends, so from the
    first radius where g L - skip exceeds the head's least margin on, none
    of the sample's cells can hold the least: they are settled.  One more
    call evaluates the rest, the unsettled samples up to the last radius
    any of them needs.  A NaN, or L <= 0, settles nothing.
    """
    th = fn._THEOREMS[core]
    head = fn._first_bucket(core, bank.shape[1], m, p, grid, bound)
    low = _least(*margins(bank, grid[:head]))
    if head == grid.size:
        return low
    floor = _reduced_floor(th.reduced, bank, m, p, grid[-1])
    a, b = th.reduced.scale
    g = grid ** (a * p + b * m) / (1.0 - grid ** (2 * p))
    g = np.minimum.accumulate(g[::-1])[::-1]  # ascending, and at most g at and after each radius
    skip = fn._CUT_TOL * len(th.terms) * max(1.0, g[-1]) * bound ** 2
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


def _row_margin(row, bank, m, p, grid, s, config, work) -> Optional[float]:
    """Least margin over the bank, the grid and the row's cores.

    (m, p) is the shape the cores run at; None when a per-function radius
    leaves no (sample, radius) cell to check.  The checks a call over the
    whole bank and grid would make run first, once: the tail certificate
    on the row's coefficient bound and each core's shape, window and start
    rules.  Each core is then evaluated by one call site, ``margins``, with
    that bound, and writes its left side into the contiguous head of the
    flat workspace ``work`` (a strided [:rows, :cols] view would spread it
    over every row of the workspace, each as long as the campaign's
    longest grid).  A core with a reduced form evaluates the cells
    :func:`_reduced_least` leaves, a core with the bound 1 on a row whose
    radius does not depend on the function those :func:`_unsettled`
    leaves, and every other core every cell.
    """
    if row.rules.vanishing_start:
        bank = np.hstack([np.zeros((bank.shape[0], 1)), bank])
    bound = float(max(1.0, bank.max(initial=0.0)))
    fn._check_truncation(bank.shape[1], m, p, grid, bound, config.trunc_tol)
    extras = None if s is None else {"s": s}
    least = None
    for core in row.cores:
        th = fn._THEOREMS[core]
        fn._check_applicable(core, th, bank, m, p, grid, s)

        def margins(mods, cols):
            shape = (mods.shape[0], cols.size)
            return fn.theorem_margins(core, mods, m, p, cols, extras=extras,
                                      trunc_tol=config.trunc_tol, coeff_bound=bound,
                                      out=work.reshape(-1)[:math.prod(shape)].reshape(shape))

        if th.reduced is not None:
            low = _reduced_least(core, bank, m, p, grid, bound, margins)
        elif row.per_function:
            lhs, rhs = margins(bank, grid)
            # each sample is checked below its own radius
            radii = rad.thm31_radius(bank[:, 0], s)
            valid = grid[None, :] <= radii[:, None] - _RADIUS_MARGIN
            if not valid.any():
                return None
            low = np.subtract(rhs, lhs, out=lhs)[valid].min()
        else:
            mods, cols = ((bank, grid) if th.rhs is not None
                          else _unsettled(th, bank, m, p, grid, s))
            low = _least(*margins(mods, cols))
        # np.minimum keeps a NaN from any core; min() would drop a later one
        least = low if least is None else np.minimum(least, low)
    return float(least)


def _run_row(theorem, m, p, t, s, config, shared: _Shared) -> ReportRow:
    row = _ROWS[theorem]
    cm, cp = row.at or (m, p)

    radius = closed = None
    if row.per_function:
        # The family scan crosses 1 at the smallest per-parameter radius.
        radius = float(rad.thm31_radius(shared.scan_grid, s).min())
    elif row.equation is not None:
        spec = rad.RadiusSpec(row.equation, cp, cm)
        closed = rad.closed_form_radius(spec)
        radius = rad.solve_radius(spec)

    if row.rules.window is not None:
        lo, hi = row.rules.window
        grid = _grid(config, hi)
        grid = grid[grid >= lo - 1e-12]
    elif radius is None or row.per_function:
        grid = _grid(config, config.r_stop)
    else:
        grid = _grid(config, radius - _RADIUS_MARGIN)

    if grid.size:
        bank = _bank(shared.banks, config, m, p)
        # Rows with the same cores, equation, shapes, s and grid compute the
        # same margin: ThmC and Thm41 share their entry, and a vector row's
        # t rows their shape.
        key = (tuple(id(fn._THEOREMS[core]) for core in row.cores), row.equation,
               (m, p), (cm, cp), s, grid.tobytes())
        if key in shared.margins:
            min_margin = shared.margins[key]
        else:
            min_margin = _row_margin(row, bank, cm, cp, grid, s, config, shared.work)
            shared.margins[key] = min_margin
        nsamp = bank.shape[0]
    else:
        min_margin, nsamp = None, 0

    sharp = None
    if row.scan is not None and radius is not None and not (row.scan_m0_only and m != 0):
        at = radius + _SCAN_OFFSET
        if 0.0 < at < 1.0:
            # The scan's default order 512 where it certifies ``at``, so those
            # scans read the same columns; more where the row's shape needs them.
            order = max(512, cm + cp * fn.lacunary_length_for(cm, cp, at))
            sharp = md.sharpness_scan(row.scan, cp, cm, at, shared.scan_grid, s=s,
                                       order=order)

    ok = True
    if min_margin is not None and not min_margin >= -config.tol:
        ok = False
    if sharp is not None and not sharp > 1.0:
        ok = False
    return ReportRow(
        theorem=theorem if s is None or len(config.s_values) == 1 else f"{theorem}[s={s:g}]",
        p=p,
        m=m,
        t=t,
        radius=radius,
        radius_closed_form=closed,
        samples=nsamp,
        grid_points=int(grid.size),
        min_margin=min_margin,
        sharpness_max=sharp,
        passed=ok,
    )


def run_campaign(config: CampaignConfig,
                 on_row: Optional[Callable[[ReportRow], None]] = None) -> Report:
    """Run every row of the campaign; deterministic for a given config.

    ``on_row``, if given, is called with each row as it completes, in
    report order.
    """
    if not config.theorems:  # a campaign of no rows would certify nothing and pass
        raise ParameterOutOfRange("a campaign needs at least one theorem")
    plan = [(theorem, *_row_plan(theorem, config)) for theorem in config.theorems]
    rows: List[ReportRow] = []
    # np.empty maps the workspace without touching it; rows fault its
    # pages in once, not once per core call
    shared = _Shared(np.empty(config.samples * _grid_points(config, config.r_stop)),
                     md.default_scan_grid(config.scan_steps), {}, {})
    for theorem, shapes, t_list, s_list in plan:
        for (m, p) in shapes:
            for t in t_list:
                for s in s_list:
                    try:
                        report_row = _run_row(theorem, m, p, t, s, config, shared)
                    except BohrcertError as exc:
                        raise CampaignError(
                            f"{theorem} (p={p}, m={m}, seed={config.seed}): {exc}",
                            theorem=theorem,
                            p=p,
                            m=m,
                            seed=config.seed,
                        ) from exc
                    rows.append(report_row)
                    if on_row is not None:
                        on_row(report_row)
    return Report(rows=tuple(rows))


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------


def _t_to_json(t: Optional[float]):
    if t is None:
        return None
    if math.isinf(t):
        return "inf"
    return int(t) if float(t).is_integer() else float(t)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _t_from_json(v) -> Optional[float]:
    if v is None:
        return None
    if v == "inf":
        return math.inf
    if not _is_number(v):
        raise ParameterOutOfRange(f"report key 't' must be a number, \"inf\" or null, got {v!r}")
    return float(v)


_FIELDS = tuple(f.name for f in fields(ReportRow))
_COLUMNS = tuple({"passed": "pass"}.get(name, name) for name in _FIELDS)  # report keys
# what a report value may be, by its ReportRow field's annotation; t, which
# may also be "inf", is read by _t_from_json
_VALUES = {
    "str": ("a string", lambda v: isinstance(v, str)),
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "Optional[float]": ("a number or null", lambda v: v is None or _is_number(v)),
}
_RULES = tuple((key, _VALUES[f.type]) for f, key in zip(fields(ReportRow), _COLUMNS) if key != "t")


def _row_to_obj(row: ReportRow) -> dict:
    obj = {key: getattr(row, name) for name, key in zip(_FIELDS, _COLUMNS)}
    obj["t"] = _t_to_json(row.t)
    return obj


def report_to_json(report: Report) -> str:
    return json.dumps([_row_to_obj(r) for r in report.rows], indent=2) + "\n"


def report_from_json(text: str) -> Report:
    """Read a JSON report back; a document that is not a list of row
    objects, or a row with a missing or unknown key or a value of the
    wrong type, raises ParameterOutOfRange naming what is wrong."""
    try:
        objs = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParameterOutOfRange(f"report is not valid JSON: {exc}") from None
    if not isinstance(objs, list):
        raise ParameterOutOfRange("a report is a JSON list of row objects")
    rows = []
    for i, obj in enumerate(objs):
        if not isinstance(obj, dict):
            raise ParameterOutOfRange(f"report row {i} is not an object")
        for what, keys in (("missing", set(_COLUMNS) - set(obj)),
                           ("unknown", set(obj) - set(_COLUMNS))):
            if keys:
                raise ParameterOutOfRange(f"report row has {what} keys: {sorted(keys)}")
        for key, (what, ok) in _RULES:
            if not ok(obj[key]):
                raise ParameterOutOfRange(f"report key {key!r} must be {what}, got {obj[key]!r}")
        values = {name: obj[key] for name, key in zip(_FIELDS, _COLUMNS)}
        values["t"] = _t_from_json(values["t"])
        rows.append(ReportRow(**values))
    return Report(rows=tuple(rows))


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if math.isinf(v):
            return "inf"
        return f"{v:.15g}"
    return str(v)


def report_to_csv(report: Report) -> str:
    lines = [",".join(_COLUMNS)]
    for row in report.rows:
        lines.append(",".join(_csv_cell(getattr(row, name)) for name in _FIELDS))
    return "\n".join(lines) + "\n"


def emit_report(report: Report, format: str, path: str) -> None:
    """Write the report as JSON or CSV (UTF-8, LF endings, '.' decimals) to
    ``path``, or to stdout when ``path`` is ``-``."""
    if format == "json":
        text = report_to_json(report)
    elif format == "csv":
        text = report_to_csv(report)
    else:
        raise ParameterOutOfRange(f"unknown report format {format!r}")
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def config_from_json(text: str) -> CampaignConfig:
    """Parse the flat key-value JSON config format."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParameterOutOfRange(f"config is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ParameterOutOfRange("config must be a flat JSON object")
    unknown = set(obj) - set(CampaignConfig.__dataclass_fields__)
    if unknown:
        raise ParameterOutOfRange(f"unknown config keys: {sorted(unknown)}")
    if "theorems" not in obj:
        raise ParameterOutOfRange("config needs a theorems list")
    kwargs = dict(obj)
    if "t_values" in kwargs:
        kwargs["t_values"] = [
            math.inf if t == "inf" else t for t in _as_list("t_values", kwargs["t_values"])
        ]
    return CampaignConfig(**kwargs)
