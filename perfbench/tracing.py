"""Span tracing from outside the package, and the per-layer metrics.

``Tracer`` replaces module attributes with timing wrappers for the length
of a ``with`` block.  It patches the attribute the caller looks up:
``harness`` binds ``sample_schur`` and ``multidim`` binds
``theorem_margins`` by name, so those names are patched in the calling
module.  Spans stay in memory as ``[name, parent, start, end, failed,
counts]`` (parent -1 for a root) and are written out by the caller.
A span's self time is its duration minus the durations of its children;
calls are single-threaded, so children never overlap.

Which end-to-end metric each layer should move, and where:

  schur.*, series.*         wall_s on fine_grid (about 40 % of it),
                            scan_table not at all (no sampling there)
  functionals.*             wall_s and op_p50_ms/op_p95_ms on fine_grid
                            most, then wall_s on scan_table
  multidim.scan.*           wall_s and op_p95_ms on scan_table
  multidim.directions.*,    wall_s on fine_grid (about 10 %)
  multidim.lemma21.*
  radius.*                  wall_s on scan_table only
  harness.self_s,           wall_s on fine_grid; report_s guards the
  harness.report_s          report-schema change
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from bohrcert import functionals, harness, multidim, radius, series

NAME, PARENT, START, END, FAILED, COUNTS = range(6)

CountFn = Callable[[tuple, dict, object], Dict[str, float]]


@dataclass(frozen=True)
class Probe:
    module: object
    attr: str
    span: str
    count: Optional[CountFn] = None


class Tracer:
    """Records a span for every call through the probed attributes."""

    def __init__(self, probes: Sequence[Probe]):
        self.probes = tuple(probes)
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._saved: List[tuple] = []

    def __enter__(self) -> "Tracer":
        for probe in self.probes:
            original = getattr(probe.module, probe.attr)
            self._saved.append((probe.module, probe.attr, original))
            setattr(probe.module, probe.attr, self._wrap(original, probe))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, probe: Probe):
        spans, stack = self.spans, self._stack
        name, count = probe.span, probe.count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[END] = perf_counter()
                span[FAILED] = True
                raise
            finally:
                stack.pop()
            span[END] = perf_counter()
            if count is not None:
                span[COUNTS] = count(args, kwargs, out)
            return out

        return traced


def self_times(spans: Sequence[list]) -> List[float]:
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


# ----------------------------------------------------------------------
# bohrcert's layers
# ----------------------------------------------------------------------

_MARGIN_SIGNATURE = inspect.signature(functionals.theorem_margins)


def _count_terms(args, kwargs, out) -> Dict[str, float]:
    """S*R cells, S*K*R power-sum terms, and the terms the tail bound needs."""
    bound = _MARGIN_SIGNATURE.bind(*args, **kwargs).arguments
    samples, radii = out[0].shape
    length = np.atleast_2d(np.asarray(bound["mods"])).shape[1]
    rmax = float(np.max(bound["r"])) if radii else 0.0
    needed = functionals.lacunary_length_for(bound["m"], bound["p"], rmax)
    return {
        "cells": samples * radii,
        "terms": samples * length * radii,
        "useful": samples * min(length, needed) * radii,
    }


def _count_coeffs(args, kwargs, out) -> Dict[str, float]:
    return {"coeffs": out.coeffs.size}


def _count_rows(args, kwargs, out) -> Dict[str, float]:
    return {"rows": len(out.rows)}


# The op-latency probes of the untraced passes.  A scan is one op of
# scan_table.  The campaign certifies its cells in batches, one margin-core
# call per row (two for LemD), so a cell's latency is its batch's.
SCAN_PROBES = (Probe(multidim, "sharpness_scan", "multidim.sharpness_scan"),)
MARGIN_BATCH_PROBES = (
    Probe(functionals, "theorem_margins", "functionals.theorem_margins"),
    Probe(multidim, "lemma21_margins", "multidim.lemma21_margins"),
)

LAYER_PROBES = (
    Probe(harness, "run_campaign", "harness.run_campaign", _count_rows),
    Probe(harness, "report_to_json", "harness.report_to_json"),
    Probe(harness, "sample_schur", "schur.sample_schur", _count_coeffs),
    Probe(series, "reciprocal", "series.reciprocal"),
    Probe(series, "mul", "series.mul"),
    Probe(functionals, "theorem_margins", "functionals.theorem_margins", _count_terms),
    Probe(multidim, "theorem_margins", "functionals.theorem_margins", _count_terms),
    Probe(multidim, "sharpness_scan", "multidim.sharpness_scan"),
    Probe(multidim, "random_direction", "multidim.random_direction"),
    Probe(multidim, "lemma21_margins", "multidim.lemma21_margins"),
    Probe(radius, "solve_radius", "radius.solve_radius"),
)


def op_latencies(spans: Sequence[list]) -> List[Optional[float]]:
    """Seconds of each op-latency span in call order; None where it raised."""
    return [None if s[FAILED] else s[END] - s[START] for s in spans]


def layer_metrics(spans: Sequence[list]) -> Dict[str, float]:
    """Per-layer counts and busy times of one traced pass."""
    own = self_times(spans)
    calls: Dict[str, int] = defaultdict(int)
    failed: Dict[str, int] = defaultdict(int)
    total: Dict[str, float] = defaultdict(float)
    mine: Dict[str, float] = defaultdict(float)
    counts: Dict[str, float] = defaultdict(float)
    for s, own_s in zip(spans, own):
        name = s[NAME]
        calls[name] += 1
        failed[name] += s[FAILED]
        total[name] += s[END] - s[START]
        mine[name] += own_s
        for key, value in (s[COUNTS] or {}).items():
            counts[key] += value
    terms = counts["terms"]
    return {
        "schur.samples": calls["schur.sample_schur"],
        "schur.coeffs": counts["coeffs"],
        "schur.busy_s": total["schur.sample_schur"],
        "series.reciprocal.calls": calls["series.reciprocal"],
        "series.reciprocal.busy_s": total["series.reciprocal"],
        "series.mul.calls": calls["series.mul"],
        "series.mul.busy_s": total["series.mul"],
        "functionals.calls": calls["functionals.theorem_margins"],
        "functionals.busy_s": mine["functionals.theorem_margins"],
        "functionals.cells": counts["cells"],
        "functionals.terms": terms,
        "functionals.terms_useful_frac": counts["useful"] / terms if terms else 0.0,
        "functionals.failed": failed["functionals.theorem_margins"],
        "multidim.scan.calls": calls["multidim.sharpness_scan"],
        "multidim.scan.busy_s": mine["multidim.sharpness_scan"],
        "multidim.scan.failed": failed["multidim.sharpness_scan"],
        "multidim.directions.calls": calls["multidim.random_direction"],
        "multidim.directions.busy_s": total["multidim.random_direction"],
        "multidim.lemma21.busy_s": mine["multidim.lemma21_margins"],
        "radius.solves": calls["radius.solve_radius"],
        "radius.busy_s": total["radius.solve_radius"],
        "harness.rows": counts["rows"],
        "harness.self_s": mine["harness.run_campaign"],
        "harness.report_s": total["harness.report_to_json"],
    }
