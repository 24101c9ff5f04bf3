"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
tolerance is pinned here, nothing is deferred to runtime configuration.
"""

import math
import time

import numpy as np
import pytest

from bohrcert import functionals as fn
from bohrcert import harness as hn
from bohrcert import multidim as md
from bohrcert import radius as rd
from bohrcert import schur

from support import fourier_coefficients, thm41_lhs, thmc_product_form

TOL_RADIUS = 1e-9
TOL_MARGIN = 1e-9
TOL_EQUALITY = 1e-10
TOL_ANCHOR = 1e-12
TOL_IDENTITY = 1e-14
TOL_ORACLE = 1e-8

SWEEP_SHAPES = ((0, 1), (1, 1), (0, 2), (1, 3), (2, 3), (3, 3))
SWEEP_SEED = 20240801


def _verdict(num, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    return ok


def test_criterion_1_radius_reproduction():
    t0 = time.time()
    cases = [
        (rd.RadiusSpec("ClassicBohr"), 1.0 / 3.0),
        (rd.RadiusSpec("Alternating"), 1.0 / math.sqrt(3.0)),
        (rd.RadiusSpec("ThmC34", 1, 1), 1.0 / math.sqrt(2.0)),
    ]
    for p in (1, 2, 3):
        cases.append((rd.RadiusSpec("Thm32", p, 0), (3.0 / 5.0) ** (1.0 / p)))
        cases.append((rd.RadiusSpec("Cor43", p, 0), 3.0 ** (-1.0 / (2 * p))))
    for a0 in (0.0, 0.3, 0.5, 0.9):
        cases.append(
            (rd.RadiusSpec("Thm31", extras={"a0": a0, "s": 1.0}), 1.0 / (2.0 + a0))
        )
        cases.append((rd.RadiusSpec("Thm31", extras={"a0": a0, "s": 2.0}), 0.5))
    worst = 0.0
    for spec, want in cases:
        for closed in (True, False):
            got = rd.solve_radius(spec, tol=1e-12, use_closed_form=closed)
            worst = max(worst, abs(got - want))
    elapsed = time.time() - t0
    ok = worst <= TOL_RADIUS and elapsed < 1.0
    assert _verdict(1, "radius reproduction", ok,
                    f"worst error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_certification_sweep():
    t0 = time.time()
    cfg = hn.CampaignConfig(
        theorems=("ThmB", "LemD", "ThmC", "Thm31", "Thm32", "Thm34", "Thm41",
                  "Cor33", "Cor42", "Cor43", "Lem21"),
        shapes=SWEEP_SHAPES,
        t_values=(1.0, 2.0, math.inf),
        samples=500,
        seed=SWEEP_SEED,
        r_start=0.005,
        r_stop=0.95,
        r_step=0.005,
        tol=TOL_MARGIN,
        s_values=(0.5, 1.0, 2.0, 3.0),
    )
    report = hn.run_campaign(cfg)
    margins = [row.min_margin for row in report.rows if row.min_margin is not None]
    worst = min(margins)
    elapsed = time.time() - t0

    # spot-check that the scalar entry point agrees with the swept verdicts
    prof = fn.profile_from_series(schur.sample_schur(SWEEP_SEED ^ 1, 5, 512), 0, 1)
    spot = fn.evaluate_theorem("Thm31", prof, 0.25, extras={"s": 1.0}, tol=TOL_MARGIN)
    ok = report.all_pass and worst >= -TOL_MARGIN and spot.satisfied
    assert _verdict(2, "certification sweep", ok,
                    f"{len(report.rows)} rows x 500 samples, worst margin "
                    f"{worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_extremal_equality():
    grid = np.arange(0.005, 0.9 + 1e-12, 0.005)
    worst = 0.0
    for a in (0.3, 0.5, 0.7, 0.9):
        f = schur.extremal_family("LacunaryD", a, 0, 1, 512)
        prof = fn.profile_from_series(f, 0, 1)
        lhs, rhs = fn.theorem_margins("ThmB", prof.mods, 0, 1, grid)
        worst = max(worst, np.abs(rhs - lhs).max())
        le, re_ = fn.theorem_margins("LemDEven", prof.mods, 0, 1, grid)
        worst = max(worst, np.abs(re_ - le).max())
    for (m, p) in ((1, 2), (2, 3)):
        f = schur.extremal_family("LacunaryD", 0.6, m, p, 1024)
        prof = fn.profile_from_series(f, m, p)
        le, re_ = fn.theorem_margins("LemDEven", prof.mods, m, p, grid)
        worst = max(worst, np.abs(re_ - le).max())

    mob = fn.profile_from_series(schur.extremal_family("LacunaryD", 0.5, 0, 1, 512), 0, 1)
    anchor_b = fn.refined_thmB(mob, 0.2)
    _, anchor_d = fn.lemmaD_bounds(mob, 0.5)
    anchors_ok = (
        abs(anchor_b.lhs - 0.1875) <= TOL_ANCHOR
        and abs(anchor_b.rhs - 0.1875) <= TOL_ANCHOR
        and abs(anchor_d.lhs - 0.25) <= TOL_ANCHOR
        and abs(anchor_d.rhs - 0.25) <= TOL_ANCHOR
    )
    ok = worst <= TOL_EQUALITY and anchors_ok
    assert _verdict(3, "extremal equality", ok, f"worst |lhs-rhs| {worst:.2e}")


def test_criterion_4_sharpness_straddle():
    a_grid = md.default_scan_grid(512)
    results = []

    def straddle(theorem, p, m, radius, s=None):
        hi = md.sharpness_scan(theorem, p, m, radius + 0.01, a_grid, s=s)
        lo = md.sharpness_scan(theorem, p, m, radius - 0.01, a_grid, s=s)
        results.append((theorem, p, m, s, hi, lo))
        return hi > 1.0 and lo <= 1.0 + TOL_ANCHOR

    ok = True
    for s in (0.5, 1.0, 2.0, 3.0):
        fam = (1.0 - a_grid ** s) / (2.0 - a_grid ** 2 - a_grid ** s)
        ok &= straddle("Thm31", 1, 0, float(fam.min()), s=s)
    for (p, m) in ((1, 0), (2, 1), (3, 3)):
        ok &= straddle("Thm32", p, m, rd.solve_radius(rd.RadiusSpec("Thm32", p, m)))
    for (p, m) in ((1, 1), (2, 2), (3, 1)):
        ok &= straddle("Thm34", p, m, rd.solve_radius(rd.RadiusSpec("ThmC34", p, m)))
    for (p, m) in ((1, 0), (1, 1), (3, 2)):
        ok &= straddle("Thm41", p, m, rd.solve_radius(rd.RadiusSpec("ThmC34", p, m)))
    for (p, m) in ((1, 0), (3, 0)):
        ok &= straddle("Cor43", p, m, rd.solve_radius(rd.RadiusSpec("Cor43", p, m)))

    # anchor: shape (0, 1) envelope peaks at exactly 1 at its radius 3/5,
    # attained at family parameter 1/3 (present in the scan grid)
    anchor = md.sharpness_scan("Thm32", 1, 0, 0.6, a_grid)
    ok = ok and abs(anchor - 1.0) <= TOL_ANCHOR
    assert _verdict(4, "sharpness straddle", ok,
                    f"{len(results)} scans, anchor max {anchor:.15f}")


def test_criterion_5_envelopes():
    order = 2560  # certifies the majorant sum at r = 0.99 to 6.7e-10
    bank = []
    for i in range(200):
        f = schur.sample_schur((SWEEP_SEED * 31) ^ i, 3, order)
        bank.append(np.abs(f.coeffs))
    bank = np.vstack(bank)

    lo_grid = np.concatenate([
        np.arange(1.0 / 3.0, fn.BOMBIERI_HI, 0.005), [fn.BOMBIERI_HI]
    ])
    hi_grid = np.concatenate([np.arange(0.7121, 0.99, 0.005), [0.99]])

    lhs, rhs = fn.theorem_margins("BombieriUpper", bank, 0, 1, lo_grid,
                                  trunc_tol=1e-9)
    worst_lo = (rhs - lhs).min()
    lhs, rhs = fn.theorem_margins("BBUpper", bank, 0, 1, hi_grid, trunc_tol=1e-9)
    worst_hi = (rhs - lhs).min()

    edge = fn.evaluate_theorem(
        "BombieriUpper",
        fn.LacunaryProfile(0, 1, [0.0], coeff_bound=0.0, exact=True),
        1.0 / 3.0,
    )
    ok = (
        worst_lo >= -TOL_MARGIN
        and worst_hi >= -TOL_MARGIN
        and abs(edge.rhs - 1.0) <= TOL_ANCHOR
    )
    assert _verdict(5, "majorant envelopes", ok,
                    f"min margins {worst_lo:.2e} / {worst_hi:.2e}, "
                    f"rhs(1/3) = {edge.rhs:.15f}")


def test_criterion_6_structural_identities():
    rng = np.random.default_rng(6)
    worst_eq = 0.0
    for p in (1, 2, 3, 5):
        for m in range(0, p + 1):
            spec = rd.RadiusSpec("ThmC34", p, m)
            for r in rng.uniform(0.0, 1.0, 25):
                worst_eq = max(worst_eq, abs(
                    rd.equation_value(spec, r) - thmc_product_form(p, m, r)
                ))

    worst_lhs = 0.0
    grid = np.arange(0.05, 0.9, 0.05)
    for seed, (m, p) in enumerate([(0, 1), (1, 1), (0, 3), (1, 3), (2, 3), (3, 3)]):
        mods = np.abs(schur.sample_schur(600 + seed, 5, 512).coeffs)
        prof = fn.LacunaryProfile(m, p, mods)
        l_c, _ = fn.evaluate_theorem_grid("ThmC", prof, grid)
        worst_lhs = max(worst_lhs, np.abs(l_c - thm41_lhs(prof.mods, m, p, grid)).max())

    from bohrcert import series as ps

    worst_vec = 0.0
    one_dir = md.Direction(np.array([1.0]), 2.0)
    for seed, (m, p) in enumerate([(1, 1), (1, 3), (2, 3)]):
        phi = schur.sample_schur(700 + seed, 5, 512)
        g = ps.monomial_lift(phi, m - 1, p)
        s = md.slice_from_direction("GeneralZG", one_dir, g.order + 1, m=m, p=p, g=g)
        prof = fn.LacunaryProfile(m, p, np.abs(phi.coeffs))
        for tid in ("Thm34", "Thm41", "Cor43"):
            for r in (0.25, 0.6):
                a = md.vector_check(tid, s, r)
                b = fn.evaluate_theorem(tid, prof, r)
                worst_vec = max(worst_vec, abs(a.lhs - b.lhs))

    ok = max(worst_eq, worst_lhs, worst_vec) <= TOL_IDENTITY
    assert _verdict(6, "structural identities", ok,
                    f"radius eq {worst_eq:.1e}, alternating lhs {worst_lhs:.1e}, "
                    f"vector-vs-scalar {worst_vec:.1e}")


def test_criterion_7_coefficient_oracle():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(50):
        depth = int(rng.integers(1, 9))
        mods = rng.uniform(0.05, 0.9, depth)
        gammas = mods * np.exp(2j * np.pi * rng.uniform(size=depth))
        f = schur.schur_to_taylor(gammas, 16)
        want = fourier_coefficients(gammas, 16, rho=0.5, npts=1024)
        worst = max(worst, float(np.abs(f.coeffs - want).max()))
    ok = worst <= TOL_ORACLE
    assert _verdict(7, "coefficient extraction oracle", ok,
                    f"worst deviation {worst:.2e}")
