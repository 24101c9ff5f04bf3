"""The benchmark's workloads: inputs from a seed, one timed pass, output checks.

fine_grid   a campaign on short banks (order 161) and a 0.0005 radius
            step, run through ``harness.run_campaign`` and
            ``report_to_json``.  The margin core is over half of it and the
            Schur sampler about 40 %.
scan_table  the ``table``/``sharpness`` path, with no sampling: every
            ThmC34, Thm32 and Cor43 radius for 1 <= p <= 8 by bisection
            and closed form, and a straddle scan at radius -/+ 0.01 on
            each.  The margin core runs with ~2060 family rows at one
            radius, the opposite shape from the campaign.

An op is one certified (sample, radius) margin cell in the campaign and
one sharpness scan in ``scan_table``; the campaign's op latency is that
of the margin-core call certifying the op's batch of cells.  Campaign
outputs are checked against values committed in ``expected/`` (written
by ``make_expected.py``); the campaign seed is ``base_seed + seed %
SEED_SLOTS`` so that every seed has committed values.  ``scan_table``
outputs are checked for internal consistency, which holds for any scan
grid.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from bohrcert import harness, multidim, radius
from bohrcert.errors import BohrcertError

import tracing

WORKLOADS = ("fine_grid", "scan_table")

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
SEED_SLOTS = 32
TOL = 1e-9
STRADDLE_TOL = 1e-12
WARM_UP_SAMPLES = 8

# name -> (campaign seed for --seed 0, CampaignConfig fields)
CAMPAIGNS = {
    "fine_grid": (20240802, dict(
        theorems=("LemD", "ThmC", "Thm32", "Thm34", "Thm41", "Cor43", "Lem21"),
        shapes=((1, 3), (2, 3), (3, 3)),
        t_values=(1.0, 2.0, math.inf),
        samples=500,
        depth=5,
        r_start=0.001,
        r_stop=0.95,
        r_step=0.0005,
    )),
}

# radius equation -> sharpness scans that straddle its radius
TABLE_SCANS = {"ThmC34": ("Thm34", "Thm41"), "Thm32": ("Thm32",), "Cor43": ("Cor43",)}
ODD_GAP_SCANS = ("Thm41", "Cor43")
TABLE_P_MAX = 8
SCAN_STEPS = 2048
SCAN_OFFSET = 0.01
SEEDED_SCAN_POINTS = 6

# The fixed order=512 of sharpness_scan cannot certify radius + 0.01 for
# p >= 6; those scans raise this error and count as failed ops.
KNOWN_SCAN_FAILURE = "TruncationInsufficient"


def witnesses_radius(scan_id: str, m: int) -> bool:
    """Whether the scan's family must exceed 1 just above the radius.

    The origin-weighted alternating family witnesses its radius only in
    the m = 0 degeneration (the campaign harness runs no Cor43 scan for
    m >= 1); every family stays <= 1 below the radius regardless.
    """
    return scan_id != "Cor43" or m == 0


@dataclass
class PassResult:
    """One pass of a workload: its wall time, op counts and raw output."""

    wall_s: float
    attempted: int
    failed: int
    output: object


# ----------------------------------------------------------------------
# campaigns
# ----------------------------------------------------------------------


def campaign_config(name: str, seed: int) -> harness.CampaignConfig:
    base_seed, fields = CAMPAIGNS[name]
    return harness.CampaignConfig(seed=base_seed + seed % SEED_SLOTS, **fields)


def campaign_pass(config: harness.CampaignConfig, cells: int) -> PassResult:
    """run_campaign plus report_to_json; a raising campaign fails all its cells."""
    start = perf_counter()
    try:
        text = harness.report_to_json(harness.run_campaign(config))
    except BohrcertError:
        return PassResult(perf_counter() - start, cells, cells, None)
    return PassResult(perf_counter() - start, cells, 0, text)


def load_expected(name: str, seed: int) -> Tuple[List[dict], List[Optional[float]]]:
    """Committed rows of a campaign and the min margins for this seed's slot."""
    with open(EXPECTED_DIR / f"{name}.json", encoding="utf-8") as fh:
        data = json.load(fh)
    if data["seed_slots"] != SEED_SLOTS or data["base_seed"] != CAMPAIGNS[name][0]:
        raise ValueError(f"expected/{name}.json was written for another seed layout")
    return data["rows"], data["min_margin"][seed % SEED_SLOTS]


_EXACT_KEYS = ("theorem", "p", "m", "t", "samples", "grid_points", "pass")
_CLOSE_KEYS = ("radius", "radius_closed_form", "sharpness_max")
# report fields that do not depend on the campaign seed
EXPECTED_ROW_KEYS = _EXACT_KEYS + _CLOSE_KEYS


def _close(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= TOL


def check_campaign(texts: Sequence[Optional[str]], rows: Sequence[dict],
                   margins: Sequence[Optional[float]]) -> List[str]:
    """Problems with a campaign's report texts, one per pass; [] when correct."""
    problems = []
    done = [t for t in texts if t is not None]
    if len(done) < len(texts):
        problems.append(f"{len(texts) - len(done)} of {len(texts)} passes raised")
    if len(set(done)) > 1:
        problems.append("passes of one config gave different report bytes")
    if not done:
        return problems
    got_rows = json.loads(done[0])
    if len(got_rows) != len(rows):
        return problems + [f"{len(got_rows)} report rows, expected {len(rows)}"]
    for i, (got, want, margin) in enumerate(zip(got_rows, rows, margins)):
        label = f"row {i} ({want['theorem']} m={want['m']} p={want['p']} t={want['t']})"
        for key in _EXACT_KEYS:
            if got.get(key) != want[key]:
                problems.append(f"{label}: {key}={got.get(key)!r}, expected {want[key]!r}")
        for key in _CLOSE_KEYS:
            if not _close(got.get(key), want[key]):
                problems.append(f"{label}: {key}={got.get(key)!r}, expected {want[key]!r}")
        if not _close(got.get("min_margin"), margin):
            problems.append(f"{label}: min_margin={got.get('min_margin')!r}, expected {margin!r}")
    return problems


class Campaign:
    op_probes = tracing.MARGIN_BATCH_PROBES

    def __init__(self, name: str, seed: int):
        self.config = campaign_config(name, seed)
        self.rows, self.margins = load_expected(name, seed)
        self.cells = sum(row["samples"] * row["grid_points"] for row in self.rows)

    def warm_up(self) -> None:
        small = dataclasses.replace(self.config, samples=WARM_UP_SAMPLES)
        harness.report_to_json(harness.run_campaign(small))

    def run_pass(self) -> PassResult:
        return campaign_pass(self.config, self.cells)

    def check(self, outputs: Sequence[Optional[str]]) -> List[str]:
        return check_campaign(outputs, self.rows, self.margins)


# ----------------------------------------------------------------------
# scan table
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TableInputs:
    solves: Tuple[Tuple[radius.RadiusSpec, Tuple[str, ...]], ...]
    grid: np.ndarray


@dataclass
class Scan:
    scan_id: str
    lo: Optional[float]  # max at radius - SCAN_OFFSET, None if it raised
    hi: Optional[float]  # max at radius + SCAN_OFFSET, None if it raised
    errors: Tuple[str, ...]


@dataclass
class Solve:
    spec: radius.RadiusSpec
    bisected: float
    closed: Optional[float]
    scans: List[Scan]


def table_inputs(seed: int) -> TableInputs:
    """Radius specs with their scan ids, and the family-parameter grid.

    The grid is the 2048-step default grid plus a few seeded points in
    [0, 0.98); extra points never break a straddle, since every family
    member stays <= 1 below the radius.
    """
    rng = np.random.default_rng(seed % 2 ** 63)
    grid = np.unique(np.concatenate([
        multidim.default_scan_grid(SCAN_STEPS),
        rng.uniform(0.0, 0.98, SEEDED_SCAN_POINTS),
    ]))
    solves = []
    for equation, scan_ids in TABLE_SCANS.items():
        for p in range(1, TABLE_P_MAX + 1):
            ids = tuple(s for s in scan_ids if p % 2 == 1 or s not in ODD_GAP_SCANS)
            for m in range(p + 1):
                solves.append((radius.RadiusSpec(equation, p, m), ids))
    return TableInputs(tuple(solves), grid)


def _scan(scan_id: str, spec: radius.RadiusSpec, at: float, grid: np.ndarray,
          errors: List[str]) -> Optional[float]:
    try:
        return multidim.sharpness_scan(scan_id, spec.p, spec.m, at, grid)
    except BohrcertError as exc:
        errors.append(type(exc).__name__)
        return None


def table_pass(inputs: TableInputs) -> PassResult:
    start = perf_counter()
    solves = []
    for spec, scan_ids in inputs.solves:
        r = radius.solve_radius(spec, use_closed_form=False)
        closed = radius.closed_form_radius(spec)
        scans = []
        for scan_id in scan_ids:
            errors: List[str] = []
            lo = _scan(scan_id, spec, r - SCAN_OFFSET, inputs.grid, errors)
            hi = _scan(scan_id, spec, r + SCAN_OFFSET, inputs.grid, errors)
            scans.append(Scan(scan_id, lo, hi, tuple(errors)))
        solves.append(Solve(spec, r, closed, scans))
    wall = perf_counter() - start
    attempted = sum(2 * len(s.scans) for s in solves)
    failed = sum(len(scan.errors) for s in solves for scan in s.scans)
    return PassResult(wall, attempted, failed, solves)


def check_table(passes: Sequence[Sequence[Solve]]) -> List[str]:
    """Bisection matches closed forms, every completed scan stays <= 1 below
    the radius, and exceeds 1 above it where its family is a witness."""
    problems = []
    for solves in passes:
        for s in solves:
            label = f"{s.spec.id} p={s.spec.p} m={s.spec.m}"
            if s.closed is not None and not abs(s.bisected - s.closed) <= TOL:
                problems.append(f"{label}: bisection {s.bisected!r} vs closed form {s.closed!r}")
            for scan in s.scans:
                for err in scan.errors:
                    if err != KNOWN_SCAN_FAILURE:
                        problems.append(f"{label} {scan.scan_id}: scan raised {err}")
                if scan.lo is not None and not scan.lo <= 1.0 + STRADDLE_TOL:
                    problems.append(f"{label} {scan.scan_id}: {scan.lo!r} > 1 below the radius")
                if (scan.hi is not None and witnesses_radius(scan.scan_id, s.spec.m)
                        and not scan.hi > 1.0 + STRADDLE_TOL):
                    problems.append(f"{label} {scan.scan_id}: {scan.hi!r} <= 1 above the radius")
    return sorted(set(problems))


class ScanTable:
    op_probes = tracing.SCAN_PROBES

    def __init__(self, seed: int):
        self.inputs = table_inputs(seed)

    def warm_up(self) -> None:
        table_pass(self.inputs)

    def run_pass(self) -> PassResult:
        return table_pass(self.inputs)

    def check(self, outputs) -> List[str]:
        return check_table(outputs)


def build_inputs(name: str, seed: int):
    """The program's validated inputs for a workload: what set-up produces."""
    if name == "scan_table":
        return table_inputs(seed)
    return campaign_config(name, seed)


def load(name: str, seed: int):
    return ScanTable(seed) if name == "scan_table" else Campaign(name, seed)
