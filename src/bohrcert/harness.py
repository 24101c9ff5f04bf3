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
``radius._EQUATIONS``.  A requested id whose every shape its rules drop,
or a row whose radius grid holds no point, is an error, raised before any
row runs.

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

Which cells a row evaluates: each core's least margin comes from
``functionals.least_margin``, which evaluates only the cells that can
hold it, next to the facts about the core that make the rest safe to
leave out; its docstring states the rules.

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
import itertools
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


def _row_margin(row, bank, m, p, grid, s, config, work) -> Optional[float]:
    """Least margin over the bank, the grid and the row's cores, each from
    ``functionals.least_margin``; (m, p) is the shape the cores run at.

    A row whose radius depends on the function checks each sample below
    its own radius, and gets None where that leaves no (sample, radius)
    cell.
    """
    caps = rad.thm31_radius(bank[:, 0], s) - _RADIUS_MARGIN if row.per_function else None
    least = None
    for core in row.cores:
        low = fn.least_margin(core, bank, m, p, grid, s, config.trunc_tol, work, caps)
        if low is None:
            return None
        # np.minimum keeps a NaN from any core; min() would drop a later one
        least = low if least is None else np.minimum(least, low)
    return float(least)


def _row_grid(theorem, m, p, s, config, scan_grid) -> tuple:
    """A row's radius, its closed form, its radius grid and the range
    [lo, hi] the grid samples: [r_start, r_stop] capped just below the
    radius, or held to the core's window."""
    row = _ROWS[theorem]
    cm, cp = row.at or (m, p)
    radius = closed = None
    if row.per_function:
        # The family scan crosses 1 at the smallest per-parameter radius.
        radius = float(rad.thm31_radius(scan_grid, s).min())
    elif row.equation is not None:
        spec = rad.RadiusSpec(row.equation, cp, cm)
        closed = rad.closed_form_radius(spec)
        radius = rad.solve_radius(spec)

    lo, hi = config.r_start, config.r_stop
    if row.rules.window is not None:
        lo, hi = row.rules.window
        grid = _grid(config, hi)
        grid = grid[grid >= lo - 1e-12]
    else:
        if radius is not None and not row.per_function:
            hi = radius - _RADIUS_MARGIN
        grid = _grid(config, hi)
    return radius, closed, grid, (max(lo, config.r_start), min(hi, config.r_stop))


def _run_row(theorem, m, p, t, s, config, shared: _Shared, radius, closed, grid) -> ReportRow:
    row = _ROWS[theorem]
    cm, cp = row.at or (m, p)
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

    sharp = None
    if row.scan is not None and radius is not None and not (row.scan_m0_only and m != 0):
        at = radius + _SCAN_OFFSET
        if 0.0 < at < 1.0:
            sharp = md.sharpness_scan(row.scan, cp, cm, at, shared.scan_grid, s=s)

    # None: no cell lies below its sample's own radius, so the row checked nothing
    ok = min_margin is not None and min_margin >= -config.tol
    if sharp is not None and not sharp > 1.0:
        ok = False
    return ReportRow(
        theorem=theorem if s is None or len(config.s_values) == 1 else f"{theorem}[s={s:g}]",
        p=p,
        m=m,
        t=t,
        radius=radius,
        radius_closed_form=closed,
        samples=bank.shape[0],
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

    def guarded(theorem, m, p, call):
        try:
            return call()
        except BohrcertError as exc:
            raise CampaignError(f"{theorem} (p={p}, m={m}, seed={config.seed}): {exc}",
                                theorem=theorem, p=p, m=m, seed=config.seed) from exc

    # every row's grid before any row runs: one with no point would certify nothing
    grids = {}
    for theorem, shapes, _, s_list in plan:
        for (m, p), s in itertools.product(shapes, s_list):
            *window, (lo, hi) = guarded(theorem, m, p, functools.partial(
                _row_grid, theorem, m, p, s, config, shared.scan_grid))
            if not window[-1].size:
                raise ParameterOutOfRange(f"{theorem} (m={m}, p={p}) would certify nothing: "
                                          f"no grid radius lies in [{lo:.8g}, {hi:.8g}]")
            grids[theorem, m, p, s] = window
    for theorem, shapes, t_list, s_list in plan:
        for (m, p), t, s in itertools.product(shapes, t_list, s_list):
            report_row = guarded(theorem, m, p, functools.partial(
                _run_row, theorem, m, p, t, s, config, shared, *grids[theorem, m, p, s]))
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
