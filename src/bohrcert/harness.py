"""Certification campaigns: seeded sweeps, sharpness scans, reports.

A campaign row is one (theorem, shape, norm index) combination.  For each
row the runner solves the sharp radius, draws seeded test functions
lifted to the row's lattice shape, evaluates the inequality margins on
the radius grid capped just below the radius, runs the extremal
sharpness scan just above it where one is defined, and records a
pass/fail verdict:

    pass  <=>  min margin >= -tol below the radius, and the scan exceeds
               1 above it (where a scan is defined).

Determinism contract: per-sample seeds are derived as row_seed XOR
sample index, with row_seed a CRC of the row label mixed with the config
seed, so identical configs produce byte-identical reports regardless of
how the work would be scheduled.
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
from .schur import sample_schur

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

CAMPAIGN_THEOREMS = (
    "ThmB",
    "LemD",
    "ThmC",
    "Thm31",
    "Thm32",
    "Thm34",
    "Thm41",
    "Cor33",
    "Cor42",
    "Cor43",
    "Lem21",
    "BombieriUpper",
    "BBUpper",
)

# rows fixed to shape (0, 1) regardless of the config grid
_FIXED_SHAPE = {
    "ThmB": (0, 1),
    "Thm31": (0, 1),
    "Cor33": (0, 1),
    "Cor42": (1, 1),
    "BombieriUpper": (0, 1),
    "BBUpper": (0, 1),
}
_ODD_GAP = {"ThmC", "Thm41", "Cor43"}
_VECTOR = {"Cor42", "Lem21"}
_RADIUS_MARGIN = 1e-3  # sweep stops this far below the solved radius
_SCAN_OFFSET = 1e-2  # sharpness scans run this far above it


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
        object.__setattr__(self, "theorems", tuple(self.theorems))
        object.__setattr__(
            self, "shapes", tuple((int(m), int(p)) for m, p in self.shapes)
        )
        object.__setattr__(self, "t_values", tuple(float(t) for t in self.t_values))
        object.__setattr__(self, "s_values", tuple(float(s) for s in self.s_values))
        for th in self.theorems:
            if th not in CAMPAIGN_THEOREMS:
                raise ParameterOutOfRange(f"unknown campaign theorem {th!r}")
        for m, p in self.shapes:
            if not (p >= 1 and 0 <= m <= p):
                raise ParameterOutOfRange(f"invalid shape (m={m}, p={p})")
        if not self.samples >= 1:
            raise ParameterOutOfRange("sample count must be >= 1")
        if not (0.0 < self.r_step and 0.0 <= self.r_start < 1.0):
            raise ParameterOutOfRange("need r_step > 0 and 0 <= r_start < 1")
        if not self.r_stop < 1.0:
            raise ParameterOutOfRange("r_stop must be < 1")
        if self.r_stop > 0.99:
            raise ParameterOutOfRange("r_stop is capped at 0.99")
        if self.format not in ("json", "csv"):
            raise ParameterOutOfRange(f"unknown report format {self.format!r}")
        if not self.depth >= 1:
            raise ParameterOutOfRange("sampler depth must be >= 1")


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


def _radius_spec(theorem: str, m: int, p: int, s: Optional[float]) -> Optional[rad.RadiusSpec]:
    if theorem in ("ThmC", "Thm34", "Thm41"):
        return rad.RadiusSpec("ThmC34", p, m)
    if theorem in ("Thm32",):
        return rad.RadiusSpec("Thm32", p, m)
    if theorem in ("Cor33", "Cor42"):
        return rad.RadiusSpec("Thm32", 1, 0)
    if theorem == "Cor43":
        return rad.RadiusSpec("Cor43", p, m)
    return None  # ThmB, LemD, Lem21 hold on all of [0, 1); envelopes use windows


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
    per-sample seeds are bank_seed XOR sample index.
    """
    key = (m, p)
    have = cache.get(key)
    if have is not None:
        return have
    length = fn.lacunary_length_for(m, p, config.r_stop, config.trunc_tol) + 1
    order = length - 1
    bank_seed = _row_seed(config.seed, f"bank:{m}:{p}")
    rows = []
    for i in range(config.samples):
        f = sample_schur(bank_seed ^ i, config.depth, order)
        rows.append(np.abs(f.coeffs))
    mat = np.vstack(rows)
    cache[key] = mat
    return mat


def _directions(config: CampaignConfig, label: str, t: float) -> List[md.Direction]:
    seed = _row_seed(config.seed, "dirs:" + label)
    return [
        md.random_direction(seed ^ i, config.dims, t) for i in range(config.samples)
    ]


def _scan_radius(theorem: str, m: int, p: int, s: Optional[float],
                 a_grid: np.ndarray) -> Optional[float]:
    """Radius at which the row's sharpness scan crosses 1.

    For most ids this is the solved sharp radius.  The origin-powered
    bound has a per-function radius, so its family scan crosses at the
    smallest per-parameter radius on the scan grid.
    """
    if theorem == "Thm31":
        vals = (1.0 - a_grid ** s) / (2.0 - a_grid ** 2 - a_grid ** s)
        return float(vals.min())
    spec = _radius_spec(theorem, m, p, s)
    return None if spec is None else rad.solve_radius(spec)


def _scan_defined(theorem: str, m: int, p: int) -> bool:
    if theorem in ("Thm31", "Thm32", "Thm34", "Thm41", "Cor33"):
        return True
    # The alternating origin-weighted family witnesses its radius only in
    # the m = 0 degeneration; no constructive witness is known for m >= 1.
    return theorem == "Cor43" and m == 0


def _run_scan(theorem: str, m: int, p: int, s: Optional[float], r: float,
              steps: int) -> float:
    grid = md.default_scan_grid(steps)
    scan_id = "Thm32" if theorem == "Cor33" else theorem
    pm = (1, 0) if theorem == "Cor33" else (p, m)
    return md.sharpness_scan(scan_id, pm[0], pm[1], r, grid, s=s)


def _margins_for_row(theorem, bank, m, p, grid, s, t, config, label):
    """(min margin, samples used) for one row, batched over the bank."""
    trunc = config.trunc_tol
    if theorem == "ThmB":
        lhs, rhs = fn.theorem_margins("ThmB", bank, 0, 1, grid, trunc_tol=trunc)
    elif theorem == "LemD":
        lo, ro = fn.theorem_margins("LemDOdd", bank, m, p, grid, trunc_tol=trunc)
        le, re_ = fn.theorem_margins("LemDEven", bank, m, p, grid, trunc_tol=trunc)
        return float(min((ro - lo).min(), (re_ - le).min())), bank.shape[0]
    elif theorem in ("ThmC", "Thm34", "Thm41", "Cor43"):
        lhs, rhs = fn.theorem_margins(theorem, bank, m, p, grid, trunc_tol=trunc)
    elif theorem == "Thm31":
        lhs, rhs = fn.theorem_margins("Thm31", bank, 0, 1, grid,
                                      extras={"s": s}, trunc_tol=trunc)
        mu0 = bank[:, 0]
        per_sample = (1.0 - mu0 ** s) / (2.0 - mu0 ** 2 - mu0 ** s)
        valid = grid[None, :] <= per_sample[:, None] - _RADIUS_MARGIN
        margins = rhs - lhs
        if not valid.any():
            return None, bank.shape[0]
        return float(margins[valid].min()), bank.shape[0]
    elif theorem in ("Thm32", "Cor33"):
        shifted = np.hstack([np.zeros((bank.shape[0], 1)), bank])
        mm, pp = (m, p) if theorem == "Thm32" else (0, 1)
        lhs, rhs = fn.theorem_margins("Thm32", shifted, mm, pp, grid, trunc_tol=trunc)
    elif theorem in ("BombieriUpper", "BBUpper"):
        lhs, rhs = fn.theorem_margins(theorem, bank, 0, 1, grid, trunc_tol=trunc)
    elif theorem == "Cor42":
        sup = np.array([d.sup_norm for d in _directions(config, label, t)])
        nu = sup[:, None] * bank
        shifted = np.hstack([np.zeros((nu.shape[0], 1)), nu])
        lhs, rhs = fn.theorem_margins("Thm32", shifted, 0, 1, grid, trunc_tol=trunc)
    elif theorem == "Lem21":
        sup = np.array([d.sup_norm for d in _directions(config, label, t)])
        nu = sup[:, None] * bank
        lhs, rhs = md.lemma21_margins(nu, m, p, grid)
    else:
        raise ParameterOutOfRange(f"unknown campaign theorem {theorem!r}")
    margins = rhs - lhs
    return float(margins.min()), bank.shape[0]


def _shapes_for(theorem: str, config: CampaignConfig) -> List[Tuple[int, int]]:
    fixed = _FIXED_SHAPE.get(theorem)
    if fixed is not None:
        return [fixed]
    shapes = list(config.shapes)
    if theorem in _ODD_GAP:
        shapes = [(m, p) for m, p in shapes if p % 2 == 1]
    if theorem == "Lem21":
        shapes = [(m, p) for m, p in shapes if m >= 1]
    return shapes


def _window_cap(theorem: str) -> Optional[Tuple[float, float]]:
    if theorem == "BombieriUpper":
        return (fn.BOMBIERI_LO, fn.BOMBIERI_HI)
    if theorem == "BBUpper":
        return (np.nextafter(fn.BOMBIERI_HI, 1.0), 0.99)
    return None


def _run_row(theorem, m, p, t, s, config, bank_cache) -> ReportRow:
    label = f"{theorem}:{m}:{p}:{t}:{s}"
    scan_grid = md.default_scan_grid(config.scan_steps)

    spec = _radius_spec(theorem, m, p, s)
    closed = None if spec is None else rad.closed_form_radius(spec)
    if theorem == "Thm31":
        radius = _scan_radius("Thm31", m, p, s, scan_grid)
        closed = None
    else:
        radius = None if spec is None else rad.solve_radius(spec)

    window = _window_cap(theorem)
    if window is not None:
        lo, hi = window
        grid = _grid(config, hi)
        grid = grid[grid >= lo - 1e-12]
    elif theorem == "Thm31":
        # per-function radius: sweep the whole grid, the margin computation
        # masks each sample to its own radius
        grid = _grid(config, config.r_stop)
    else:
        cap = config.r_stop if radius is None else radius - _RADIUS_MARGIN
        grid = _grid(config, cap)

    if grid.size:
        bank = _bank(bank_cache, config, m, p)
        min_margin, nsamp = _margins_for_row(
            theorem, bank, m, p, grid, s, t, config, label
        )
    else:
        min_margin, nsamp = None, 0

    sharp = None
    if _scan_defined(theorem, m, p) and radius is not None:
        at = radius + _SCAN_OFFSET
        if 0.0 < at < 1.0:
            sharp = _run_scan(theorem, m, p, s, at, config.scan_steps)

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
    for theorem in config.theorems:
        shapes = _shapes_for(theorem, config)
        t_list = config.t_values if theorem in _VECTOR else (None,)
        s_list = config.s_values if theorem == "Thm31" else (None,)
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
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ParameterOutOfRange("config must be a flat JSON object")
    kwargs = dict(obj)
    if "t_values" in kwargs:
        kwargs["t_values"] = tuple(_t_from_json(t) for t in kwargs["t_values"])
    if "shapes" in kwargs:
        kwargs["shapes"] = tuple((int(m), int(p)) for m, p in kwargs["shapes"])
    known = set(CampaignConfig.__dataclass_fields__)
    unknown = set(kwargs) - known
    if unknown:
        raise ParameterOutOfRange(f"unknown config keys: {sorted(unknown)}")
    return CampaignConfig(**kwargs)
