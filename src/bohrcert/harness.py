"""Certification campaigns: seeded sweeps, sharpness scans, reports.

A campaign row is one (theorem, shape, norm index) combination.  For each
row the runner solves the sharp radius, draws seeded test functions
lifted to the row's lattice shape, evaluates the inequality margins on
the radius grid capped just below the radius, runs the extremal
sharpness scan just above it where one is defined, and records a
pass/fail verdict:

    pass  <=>  min margin >= -tol below the radius, and the scan exceeds
               1 above it (where a scan is defined).

Where a row's facts live: ``_ROWS`` maps each campaign id to a
:class:`RowSpec` (its margin cores, radius equation, sharpness family,
bank transform and vector flag).  Every core is a ``functionals._THEOREMS``
entry, and its formula, its shape, odd-gap and m >= 1 rules and its radius
window are read from there; the radius equations from
:mod:`bohrcert.radius`.  A requested id whose every shape its rules drop
is an error, raised before any row runs.

Determinism contract: per-sample seeds are derived as row_seed XOR
sample index, with row_seed a CRC of the row label mixed with the config
seed, so identical configs produce byte-identical reports regardless of
how the work would be scheduled.  A bank, and a vector row's directions,
are drawn in one batch; sample i still draws from its own generator
seeded row_seed XOR i, exactly as a single draw would.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import functionals as fn
from . import multidim as md
from . import radius as rad
from .errors import BohrcertError, CampaignError, ParameterOutOfRange
from .schur import sample_bank
from .schur import sample_schur  # noqa: F401  perfbench probes it by name (ROADMAP item 1)

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


@dataclass(frozen=True)
class RowSpec:
    """How a campaign runs one theorem id.

    A core's formula, its shape, odd-gap and m >= 1 rules and its radius
    window are read from its ``functionals._THEOREMS`` entry; this holds
    only what the campaign adds.
    """

    cores: Tuple[str, ...]  # margin cores; the row's margin is the least
    equation: Optional[str] = None  # radius equation id
    at: Optional[Tuple[int, int]] = None  # fixed (m, p) of the core and the equation
    shape: Optional[Tuple[int, int]] = None  # the row's own (m, p) where it differs from ``at``
    scan: Optional[str] = None  # sharpness family run just above the radius
    scan_m0_only: bool = False  # the family witnesses the radius only at m = 0
    vector: bool = False  # one row per t; bank scaled by each direction's sup norm
    shift: bool = False  # bank gets a vanishing lattice start prepended

    @property
    def per_function(self) -> bool:
        """The radius depends on |f(0)| and the exponent s."""
        return self.equation == "Thm31"

    @property
    def rules(self) -> "fn._Theorem":
        """The first core's ``_THEOREMS`` entry, whose rules the row follows."""
        return fn._THEOREMS[self.cores[0]]


# Rows with no radius equation hold on all of [0, 1) (ThmB, LemD, Lem21)
# or on their core's window (the envelopes).
_ROWS = {
    "ThmB": RowSpec(("ThmB",)),
    "LemD": RowSpec(("LemDOdd", "LemDEven")),
    "ThmC": RowSpec(("ThmC",), "ThmC34"),
    "Thm31": RowSpec(("Thm31",), "Thm31", scan="Thm31"),
    "Thm32": RowSpec(("Thm32",), "Thm32", scan="Thm32", shift=True),
    "Thm34": RowSpec(("Thm34",), "ThmC34", scan="Thm34"),
    "Thm41": RowSpec(("Thm41",), "ThmC34", scan="Thm41"),
    "Cor33": RowSpec(("Thm32",), "Thm32", at=(0, 1), scan="Thm32", shift=True),
    # the (1, 1) norms of f = z*g, reindexed to start at 0, are a
    # vanishing-start (0, 1) profile
    "Cor42": RowSpec(("Thm32",), "Thm32", at=(0, 1), shape=(1, 1), vector=True,
                     shift=True),
    # No constructive witness of the Cor43 radius is known for m >= 1.
    "Cor43": RowSpec(("Cor43",), "Cor43", scan="Cor43", scan_m0_only=True),
    "Lem21": RowSpec(("Lem21",), vector=True),
    "BombieriUpper": RowSpec(("BombieriUpper",), at=(0, 1)),
    "BBUpper": RowSpec(("BBUpper",), at=(0, 1)),
}
CAMPAIGN_THEOREMS = tuple(_ROWS)
MAX_GRID_POINTS = 1 << 20  # radii in one campaign grid
MAX_SAMPLES = 1 << 16  # seeded functions per bank
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
    dims: int = 4
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
        for name in ("samples", "seed", "depth", "dims", "scan_steps"):
            put(name, _as_int(name, getattr(self, name)))
        for name in ("r_start", "r_stop", "r_step", "tol", "trunc_tol"):
            put(name, _as_float(name, getattr(self, name)))
        for name in ("output", "format"):
            if not isinstance(getattr(self, name), str):
                raise ParameterOutOfRange(f"{name} must be a string")
        for m, p in self.shapes:
            if not (p >= 1 and 0 <= m <= p):
                raise ParameterOutOfRange(f"invalid shape (m={m}, p={p})")
        if not all(t >= 1.0 for t in self.t_values):
            raise ParameterOutOfRange("norm indices t must be >= 1 or inf")
        if not all(s > 0.0 for s in self.s_values):  # NaN fails too
            raise ParameterOutOfRange("s_values must hold exponents s > 0")
        if math.isnan(self.tol) or not 0.0 < self.trunc_tol < math.inf:
            raise ParameterOutOfRange("tol must be a number and trunc_tol in (0, inf)")
        if not self.samples >= 1:
            raise ParameterOutOfRange("sample count must be >= 1")
        if not (0.0 < self.r_step and 0.0 <= self.r_start < 1.0):
            raise ParameterOutOfRange("need r_step > 0 and 0 <= r_start < 1")
        if not self.r_stop < 1.0:
            raise ParameterOutOfRange("r_stop must be < 1")
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
        if not self.dims >= 1:
            raise ParameterOutOfRange(f"dims must be >= 1, got {self.dims}")
        if not self.scan_steps >= 0:
            raise ParameterOutOfRange(f"scan_steps must be >= 0, got {self.scan_steps}")


@dataclass(frozen=True)
class ReportRow:
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


def _grid(config: CampaignConfig, cap: float) -> np.ndarray:
    hi = min(config.r_stop, cap)
    if hi < config.r_start:
        return np.zeros(0)
    count = int(math.floor((hi - config.r_start) / config.r_step + 1e-9)) + 1
    return config.r_start + config.r_step * np.arange(count)

def _bank(cache: Dict, config: CampaignConfig, m: int, p: int) -> np.ndarray:
    """Matrix of lattice moduli |phi_k| for `samples` seeded draws.

    One bank per shape, sized so the tail certificate passes at r_stop
    (one spare modulus for the vanishing-start rows, which shift by one);
    per-sample seeds are bank_seed XOR sample index, and the whole bank
    is drawn and expanded in one batch.
    """
    key = (m, p)
    have = cache.get(key)
    if have is not None:
        return have
    length = fn.lacunary_length_for(m, p, config.r_stop, config.trunc_tol) + 1
    bank_seed = _row_seed(config.seed, f"bank:{m}:{p}")
    seeds = [bank_seed ^ i for i in range(config.samples)]
    mat = np.abs(sample_bank(seeds, config.depth, length - 1))
    cache[key] = mat
    return mat


def _row_shapes(theorem: str, config: CampaignConfig) -> List[Tuple[int, int]]:
    """The shapes an id runs at: its fixed one, or the requested ones its rules keep."""
    row = _ROWS[theorem]
    rules = row.rules
    fixed = row.shape or row.at or rules.shape
    if fixed is not None:
        return [fixed]
    shapes, needs = list(config.shapes), []
    if rules.odd_gap:
        shapes = [(m, p) for m, p in shapes if p % 2 == 1]
        needs.append("an odd gap p")
    if rules.positive_m:
        shapes = [(m, p) for m, p in shapes if m >= 1]
        needs.append("m >= 1")
    if not config.shapes:
        raise ParameterOutOfRange(f"{theorem} needs a shape m:p, and none was requested")
    if not shapes:
        asked = ", ".join(f"{m}:{p}" for m, p in config.shapes)
        raise ParameterOutOfRange(
            f"{theorem} needs {' and '.join(needs)}, which no requested shape has ({asked})")
    return shapes


def _row_margin(row, bank, m, p, grid, s, t, config, label) -> Optional[float]:
    """Least margin over the bank, the grid and the row's cores.

    (m, p) is the shape the cores run at; None when a per-function radius
    leaves no (sample, radius) cell to check.
    """
    if row.vector:
        dir_seed = _row_seed(config.seed, "dirs:" + label)
        z0 = md.random_directions([dir_seed ^ i for i in range(config.samples)],
                                  config.dims, t)
        bank = np.abs(z0).max(axis=1)[:, None] * bank
    if row.shift:
        bank = np.hstack([np.zeros((bank.shape[0], 1)), bank])
    extras = None if s is None else {"s": s}
    least = None
    for core in row.cores:
        lhs, rhs = fn.theorem_margins(core, bank, m, p, grid, extras=extras,
                                      trunc_tol=config.trunc_tol)
        margins = np.subtract(rhs, lhs, out=lhs)
        if row.per_function:
            # each sample is checked below its own radius
            radii = rad.thm31_radius(bank[:, 0], s)
            valid = grid[None, :] <= radii[:, None] - _RADIUS_MARGIN
            if not valid.any():
                return None
            margins = margins[valid]
        low = margins.min()
        least = low if least is None else min(least, low)
    return float(least)


def _run_row(theorem, m, p, t, s, config, bank_cache) -> ReportRow:
    row = _ROWS[theorem]
    label = f"{theorem}:{m}:{p}:{t}:{s}"
    scan_grid = md.default_scan_grid(config.scan_steps)
    cm, cp = row.at or (m, p)

    radius = closed = None
    if row.per_function:
        # The family scan crosses 1 at the smallest per-parameter radius.
        radius = float(rad.thm31_radius(scan_grid, s).min())
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
        bank = _bank(bank_cache, config, m, p)
        min_margin = _row_margin(row, bank, cm, cp, grid, s, t, config, label)
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
            sharp = md.sharpness_scan(row.scan, cp, cm, at, scan_grid, s=s, order=order)

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


def run_campaign(config: CampaignConfig) -> Report:
    """Run every row of the campaign; deterministic for a given config."""
    rows: List[ReportRow] = []
    bank_cache: Dict = {}
    plan = [(theorem, _row_shapes(theorem, config)) for theorem in config.theorems]
    for theorem, shapes in plan:
        row = _ROWS[theorem]
        t_list = config.t_values if row.vector else (None,)
        s_list = config.s_values if row.per_function else (None,)
        for (m, p) in shapes:
            for t in t_list:
                for s in s_list:
                    try:
                        rows.append(_run_row(theorem, m, p, t, s, config, bank_cache))
                    except BohrcertError as exc:
                        raise CampaignError(
                            f"{theorem} (p={p}, m={m}, seed={config.seed}): {exc}",
                            theorem=theorem,
                            p=p,
                            m=m,
                            seed=config.seed,
                        ) from exc
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


def _t_from_json(v) -> Optional[float]:
    if v is None:
        return None
    if v == "inf":
        return math.inf
    return float(v)


def _row_to_obj(row: ReportRow) -> dict:
    return {
        "theorem": row.theorem,
        "p": row.p,
        "m": row.m,
        "t": _t_to_json(row.t),
        "radius": row.radius,
        "radius_closed_form": row.radius_closed_form,
        "samples": row.samples,
        "grid_points": row.grid_points,
        "min_margin": row.min_margin,
        "sharpness_max": row.sharpness_max,
        "pass": row.passed,
    }


def report_to_json(report: Report) -> str:
    return json.dumps([_row_to_obj(r) for r in report.rows], indent=2) + "\n"


def report_from_json(text: str) -> Report:
    rows = []
    for obj in json.loads(text):
        rows.append(
            ReportRow(
                theorem=obj["theorem"],
                p=int(obj["p"]),
                m=int(obj["m"]),
                t=_t_from_json(obj["t"]),
                radius=obj["radius"],
                radius_closed_form=obj["radius_closed_form"],
                samples=int(obj["samples"]),
                grid_points=int(obj["grid_points"]),
                min_margin=obj["min_margin"],
                sharpness_max=obj["sharpness_max"],
                passed=bool(obj["pass"]),
            )
        )
    return Report(rows=tuple(rows))


_CSV_COLUMNS = (
    "theorem", "p", "m", "t", "radius", "radius_closed_form",
    "samples", "grid_points", "min_margin", "sharpness_max", "pass",
)


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
    lines = [",".join(_CSV_COLUMNS)]
    for row in report.rows:
        obj = _row_to_obj(row)
        obj["t"] = row.t  # keep inf handling in _csv_cell
        lines.append(",".join(_csv_cell(obj[c]) for c in _CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def emit_report(report: Report, format: str, path: str) -> None:
    """Write the report as JSON or CSV (UTF-8, LF endings, '.' decimals)."""
    if format == "json":
        text = report_to_json(report)
    elif format == "csv":
        text = report_to_csv(report)
    else:
        raise ParameterOutOfRange(f"unknown report format {format!r}")
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
