import collections
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from bohrcert import functionals as fn
from bohrcert import harness as hn
from bohrcert import multidim as md
from bohrcert import radius as rad
from bohrcert import schur
from bohrcert.cli import MAX_TABLE_P, _check_values, _config_from_args, build_parser
from bohrcert.cli import main as cli_main
from bohrcert.errors import (BohrcertError, CampaignError, ParameterOutOfRange,
                             TruncationInsufficient)

from support import every_cell_least, every_cell_row_least, polynomial_dense_min, written_lhs


def small_config(**overrides):
    base = dict(
        theorems=("ThmC",),
        shapes=((1, 1),),
        samples=10,
        seed=99,
        r_stop=0.7,
        output="-",
    )
    base.update(overrides)
    return hn.CampaignConfig(**base)


# (theorem, m, p, t, radius is None, sharpness_max is None, grid_points) of
# every row, recorded from the per-theorem helpers the row table replaced
ROW_PLAN = [
    ("ThmB", 0, 1, None, True, True, 19),
    ("LemD", 0, 1, None, True, True, 19),
    ("LemD", 0, 2, None, True, True, 19),
    ("LemD", 1, 3, None, True, True, 19),
    ("LemD", 2, 2, None, True, True, 19),
    ("ThmC", 0, 1, None, False, True, 13),
    ("ThmC", 1, 3, None, False, True, 18),
    ("Thm31", 0, 1, None, False, False, 19),
    ("Thm32", 0, 1, None, False, False, 12),
    ("Thm32", 0, 2, None, False, False, 16),
    ("Thm32", 1, 3, None, False, False, 18),
    ("Thm32", 2, 2, None, False, False, 17),
    ("Thm34", 0, 1, None, False, False, 13),
    ("Thm34", 0, 2, None, False, False, 16),
    ("Thm34", 1, 3, None, False, False, 18),
    ("Thm34", 2, 2, None, False, False, 17),
    ("Thm41", 0, 1, None, False, False, 13),
    ("Thm41", 1, 3, None, False, False, 18),
    ("Cor33", 0, 1, None, False, False, 12),
    ("Cor42", 1, 1, 1.0, False, True, 12),
    ("Cor42", 1, 1, math.inf, False, True, 12),
    ("Cor43", 0, 1, None, False, False, 12),
    ("Cor43", 1, 3, None, False, True, 17),
    ("Lem21", 1, 3, 1.0, True, True, 19),
    ("Lem21", 1, 3, math.inf, True, True, 19),
    ("Lem21", 2, 2, 1.0, True, True, 19),
    ("Lem21", 2, 2, math.inf, True, True, 19),
    ("BombieriUpper", 0, 1, None, True, True, 8),
    ("BBUpper", 0, 1, None, True, True, 4),
]


class TestCampaignConfig:
    def test_validation(self):
        with pytest.raises(ParameterOutOfRange):
            hn.CampaignConfig(theorems=("Nope",))
        with pytest.raises(ParameterOutOfRange):
            small_config(samples=0)
        with pytest.raises(ParameterOutOfRange):
            small_config(r_stop=1.0)
        with pytest.raises(ParameterOutOfRange):
            small_config(r_stop=0.995)
        with pytest.raises(ParameterOutOfRange):
            small_config(r_step=0.0)
        with pytest.raises(ParameterOutOfRange):
            small_config(shapes=((2, 1),))
        with pytest.raises(ParameterOutOfRange):
            small_config(format="yaml")

    @pytest.mark.parametrize("step", [math.inf, math.nan, 0.0, -0.005])
    def test_r_step_named_when_not_finite_and_positive(self, step):
        with pytest.raises(ParameterOutOfRange, match="^r_step must be a finite number > 0"):
            small_config(r_step=step)

    @pytest.mark.parametrize("s", [math.nan, -1.0, 0.0])
    def test_rejects_nonpositive_s_before_any_row(self, s):
        with pytest.raises(ParameterOutOfRange, match="s_values"):
            small_config(theorems=("ThmB", "Thm31"), s_values=(1.0, s))

    def test_config_file_round_trip(self):
        text = json.dumps(
            {
                "theorems": ["ThmC", "Lem21"],
                "shapes": [[1, 1], [2, 3]],
                "t_values": [1, 2, "inf"],
                "samples": 5,
                "seed": 3,
                "r_stop": 0.6,
            }
        )
        cfg = hn.config_from_json(text)
        assert cfg.theorems == ("ThmC", "Lem21")
        assert cfg.t_values == (1.0, 2.0, math.inf)
        assert cfg.shapes == ((1, 1), (2, 3))

    def test_config_rejects_unknown_keys(self):
        with pytest.raises(ParameterOutOfRange):
            hn.config_from_json('{"theorems": ["ThmC"], "bogus": 1}')
        with pytest.raises(ParameterOutOfRange, match="theorems must be a list"):
            hn.config_from_json('{"theorems": "ThmC"}')


class TestRunCampaign:
    def test_thmc34_family_row(self):
        cfg = hn.CampaignConfig(
            theorems=("ThmC", "Thm34", "Thm41"),
            shapes=((1, 1),),
            samples=100,
            seed=11,
            r_stop=0.70,
        )
        rep = hn.run_campaign(cfg)
        assert rep.all_pass
        for row in rep.rows:
            assert row.radius == pytest.approx(0.70710678, abs=1e-8)
            assert row.min_margin >= 0.0

    def test_thm32_row_with_scan(self):
        cfg = hn.CampaignConfig(
            theorems=("Thm32",), shapes=((0, 1),), samples=20, seed=5, r_stop=0.7
        )
        rep = hn.run_campaign(cfg)
        row = rep.rows[0]
        assert row.radius == pytest.approx(0.6)
        assert row.sharpness_max is not None and row.sharpness_max > 1.0
        assert row.passed

    def test_high_gap_scans_certify_their_radius(self, tmp_path):
        # radius + 0.01 at (6, 6) needs 86 lattice moduli, more than order 512 gives
        out = tmp_path / "rep.json"
        code = cli_main(["verify", "--theorems", "Thm34,Thm41", "--shapes", "6:6,7:7",
                         "--samples", "20", "--output", str(out)])
        assert code == 0
        rows = hn.report_from_json(out.read_text()).rows
        assert [(r.theorem, r.m, r.p) for r in rows] == [
            ("Thm34", 6, 6), ("Thm34", 7, 7), ("Thm41", 7, 7)]
        assert all(r.passed and r.sharpness_max > 1.0 for r in rows)

    def test_empty_theorem_list(self):
        # the config builds, for its checks alone; a campaign of no rows
        # would certify nothing and pass, so running it is refused
        cfg = hn.CampaignConfig(theorems=())
        with pytest.raises(ParameterOutOfRange, match="^a campaign needs at least one theorem$"):
            hn.run_campaign(cfg)

    @pytest.mark.parametrize("theorem, shape, rule", [
        ("Thm41", (6, 6), "an odd gap p"),
        ("Cor43", (0, 2), "an odd gap p"),
        ("Lem21", (0, 1), "m >= 1"),
    ])
    def test_id_with_no_kept_shape_raises_before_any_row(self, theorem, shape, rule,
                                                         monkeypatch):
        ran = []
        monkeypatch.setattr(hn, "_run_row", lambda *args: ran.append(args))
        cfg = hn.CampaignConfig(theorems=("ThmB", theorem), shapes=(shape,), samples=2)
        with pytest.raises(ParameterOutOfRange, match=f"^{theorem} needs {rule}, "):
            hn.run_campaign(cfg)
        assert ran == []

    def test_on_row_sees_each_row_as_it_completes(self, monkeypatch):
        cfg = hn.CampaignConfig(theorems=("LemD", "ThmC", "Thm41", "Lem21"),
                                shapes=((1, 1), (1, 3)), t_values=(1.0, math.inf),
                                samples=4, seed=3, r_stop=0.6)
        real, seen, started = hn._run_row, [], []

        def run_row(*args):
            started.append(len(seen))  # rows reported before this one started
            return real(*args)

        monkeypatch.setattr(hn, "_run_row", run_row)
        rep = hn.run_campaign(cfg, on_row=seen.append)
        assert seen == list(rep.rows) and len(seen) == 10
        assert started == list(range(len(seen)))
        assert hn.report_to_json(rep) == hn.report_to_json(hn.run_campaign(cfg))

    def test_scan_grid_built_once(self, monkeypatch):
        real, calls = md.default_scan_grid, []
        monkeypatch.setattr(md, "default_scan_grid", lambda *a: calls.append(a) or real(*a))
        rep = hn.run_campaign(hn.CampaignConfig(
            theorems=("Thm31", "Thm32", "Thm34"), shapes=((0, 1), (1, 3)), samples=2,
            r_stop=0.5, s_values=(1.0, 2.0), scan_steps=64))
        assert len(rep.rows) == 6 and sum(r.sharpness_max is not None for r in rep.rows) == 6
        assert calls == [(64,)]

    def test_odd_gap_shapes_filtered(self):
        cfg = hn.CampaignConfig(
            theorems=("ThmC",), shapes=((0, 2), (1, 1)), samples=5, seed=1, r_stop=0.6
        )
        rep = hn.run_campaign(cfg)
        assert len(rep.rows) == 1
        assert (rep.rows[0].m, rep.rows[0].p) == (1, 1)

    def test_vector_rows_per_t(self):
        cfg = hn.CampaignConfig(
            theorems=("Lem21",),
            shapes=((1, 1),),
            t_values=(1.0, 2.0, math.inf),
            samples=10,
            seed=2,
            r_stop=0.9,
        )
        rep = hn.run_campaign(cfg)
        assert [row.t for row in rep.rows] == [1.0, 2.0, math.inf]
        assert rep.all_pass
        # every t row is the worst direction e_1: the unscaled bank at c = 1
        lhs, rhs = fn.theorem_margins("Lem21", hn._bank({}, cfg, 1, 1), 1, 1,
                                      hn._grid(cfg, cfg.r_stop))
        assert [row.min_margin for row in rep.rows] == [(rhs - lhs).min()] * 3

    def test_thm31_rows_per_s(self):
        cfg = hn.CampaignConfig(
            theorems=("Thm31",),
            samples=10,
            seed=2,
            r_stop=0.9,
            s_values=(1.0, 2.0),
        )
        rep = hn.run_campaign(cfg)
        assert len(rep.rows) == 2
        assert {row.theorem for row in rep.rows} == {"Thm31[s=1]", "Thm31[s=2]"}
        assert rep.all_pass

    def test_row_plan_over_all_ids(self):
        cfg = hn.CampaignConfig(
            theorems=hn.CAMPAIGN_THEOREMS,
            shapes=((0, 1), (0, 2), (1, 3), (2, 2)),
            t_values=(1.0, math.inf),
            samples=3,
            seed=5,
            r_step=0.05,
        )
        rep = hn.run_campaign(cfg)
        plan = [(row.theorem, row.m, row.p, row.t, row.radius is None,
                 row.sharpness_max is None, row.grid_points) for row in rep.rows]
        assert plan == ROW_PLAN
        assert rep.all_pass

    def test_forced_failure_sets_exit_state(self):
        rep = hn.run_campaign(small_config(tol=-1.0))
        assert not rep.all_pass

    def test_scan_below_radius_fails_row(self, monkeypatch, tmp_path):
        # a scan run below the radius reads <= 1, so the sharpness half of
        # the verdict fails a row whose margins all pass
        monkeypatch.setattr(hn, "_SCAN_OFFSET", -1e-2)
        (row,) = hn.run_campaign(small_config(theorems=("Thm32",), shapes=((1, 3),))).rows
        assert row.min_margin >= 0.0 and row.sharpness_max <= 1.0
        assert not row.passed
        code = cli_main(["verify", "--theorems", "Thm32", "--shapes", "1:3", "--samples", "5",
                         "--r-stop", "0.7", "--output", str(tmp_path / "r.json")])
        assert code == 1

    def test_nan_margin_fails_row(self, monkeypatch):
        real = hn.fn.theorem_margins
        nan_in = []

        def nan_core(*args, **kwargs):
            lhs, rhs = real(*args, **kwargs)
            if args[0] in nan_in:
                lhs = lhs.copy()
                lhs[0, 0] = np.nan
            return lhs, rhs

        monkeypatch.setattr(hn.fn, "theorem_margins", nan_core)
        for theorem, shape, core in [
            ("ThmC", (1, 1), "ThmC"),
            # LemD's second core: a NaN there must not give way to LemDOdd's margin
            ("LemD", (1, 3), "LemDEven"),
            ("LemD", (1, 3), "LemDOdd"),
        ]:
            nan_in[:] = [core]
            row = hn.run_campaign(small_config(theorems=(theorem,), shapes=(shape,))).rows[0]
            assert math.isnan(row.min_margin), core
            assert row.passed is False

    def test_core_calls_share_one_workspace(self, monkeypatch):
        real = hn.fn.theorem_margins
        seen = []

        def spy(*args, **kwargs):
            lhs, rhs = real(*args, **kwargs)
            seen.append((kwargs["out"], lhs))
            return lhs, rhs

        monkeypatch.setattr(hn.fn, "theorem_margins", spy)
        cfg = small_config(theorems=("LemD", "ThmC", "Thm32", "Cor43", "Lem21"),
                           shapes=((1, 1), (1, 3)), t_values=(1.0, math.inf))
        hn.run_campaign(cfg)
        # rows on different grids get views of one (samples x grid points) buffer
        assert len({lhs.shape for _, lhs in seen}) > 1
        assert len({out.__array_interface__["data"][0] for out, _ in seen}) == 1
        assert all(lhs is out for out, lhs in seen)

    def test_identical_rows_run_their_core_once(self, monkeypatch):
        real = hn.fn.theorem_margins
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(hn.fn, "theorem_margins", spy)
        cfg = small_config(theorems=("ThmC", "Thm41"), shapes=((0, 1), (1, 3)))
        rows = hn.run_campaign(cfg).rows
        assert calls == ["ThmC", "ThmC"]  # once per shape
        assert [(r.theorem, r.m, r.p) for r in rows] == [
            ("ThmC", 0, 1), ("ThmC", 1, 3), ("Thm41", 0, 1), ("Thm41", 1, 3)]
        # each Thm41 row reads what a campaign of Thm41 alone computes
        alone = hn.run_campaign(small_config(theorems=("Thm41",), shapes=((0, 1), (1, 3))))
        assert [r.min_margin for r in rows[2:]] == [r.min_margin for r in alone.rows]
        assert [r.min_margin for r in rows[:2]] == [r.min_margin for r in alone.rows]

    def test_vector_rows_run_their_core_once_per_shape(self, monkeypatch):
        real = hn.fn.theorem_margins
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[:4])
            return real(*args, **kwargs)

        monkeypatch.setattr(hn.fn, "theorem_margins", spy)
        cfg = small_config(theorems=("Lem21", "Cor42"), shapes=((1, 1), (1, 3)),
                           t_values=(1.0, 2.0, math.inf))
        rows = hn.run_campaign(cfg).rows
        assert [(core, m, p) for core, _, m, p in calls] == [
            ("Lem21", 1, 1), ("Lem21", 1, 3), ("Thm32", 0, 1)]
        assert [(r.theorem, r.m, r.p) for r in rows[::3]] == [
            ("Lem21", 1, 1), ("Lem21", 1, 3), ("Cor42", 1, 1)]
        for i in range(0, 9, 3):
            assert [r.t for r in rows[i:i + 3]] == [1.0, 2.0, math.inf]
            assert len({r.min_margin for r in rows[i:i + 3]}) == 1

    def test_determinism_byte_identical(self):
        cfg = small_config(samples=25)
        a = hn.report_to_json(hn.run_campaign(cfg))
        b = hn.report_to_json(hn.run_campaign(cfg))
        assert a == b

    def test_campaign_error_context(self):
        # a tolerance so tight the sample bank would exceed the length cap
        cfg = small_config(trunc_tol=1e-300, r_stop=0.99)
        with pytest.raises(CampaignError) as err:
            hn.run_campaign(cfg)
        assert err.value.theorem == "ThmC"
        assert err.value.seed == 99


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rhs_kind=st.sampled_from(["one", "r", "sample"]))
def test_least_equals_least_cell(seed, rhs_kind):
    # the least cell, written over lhs, for a right side broadcast along the
    # samples or not, ties and huge spreads included
    rng = np.random.default_rng(seed)
    lhs = rng.choice([0.0, 1e-300, 0.3, 1 / 3, 1.0, 1e16], size=(7, 9)) * rng.random((7, 9))
    rhs = {"one": np.broadcast_to(1.0, lhs.shape),
           "r": np.broadcast_to(rng.random(9) * 2.0, lhs.shape),
           "sample": rng.random((7, 1)) * rng.random(9)}[rhs_kind]
    want = (rhs - lhs).min()
    got = fn._least(lhs.copy(), rhs)
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
    lhs[3, 4] = np.nan
    assert math.isnan(fn._least(lhs, rhs))


@pytest.mark.parametrize("theorem", ["LemD", "Lem21", "ThmC", "Thm34", "Cor43"])
def test_row_certifies_the_tail_of_every_sample(theorem):
    # one modulus in the last stored column of one sample, 1000 times the
    # largest the tail certificate at the row's top radius admits, voids the
    # certificate of the whole bank, although the row's core calls evaluate
    # that sample on none (ThmC) or only some of its radii
    cfg = hn.CampaignConfig(theorems=(), samples=40, seed=3)
    row = hn._ROWS[theorem]
    cap = cfg.r_stop if row.equation is None else sharp_radius(theorem, 1, 3) - hn._RADIUS_MARGIN
    grid = hn._grid(cfg, cap)
    bank = hn._bank({}, cfg, 1, 3).copy()
    top = grid[-1]
    spike = 1e3 * cfg.trunc_tol * (1.0 - top ** 3) / top ** (bank.shape[1] * 3 + 1)
    i = 0
    if theorem == "ThmC":
        kept, _ = fn._unsettled(fn._THEOREMS["ThmC"], bank, 1, 3, grid, None)
        i = next(j for j in range(bank.shape[0]) if not (kept == bank[j]).all(axis=1).any())
    bank[i, -1] = spike
    if theorem == "ThmC":
        kept, _ = fn._unsettled(fn._THEOREMS["ThmC"], bank, 1, 3, grid, None)
        assert kept.max() < spike  # the sample is settled
    with pytest.raises(TruncationInsufficient):
        fn.theorem_margins(row.cores[0], bank, 1, 3, grid)
    with pytest.raises(TruncationInsufficient):
        hn._row_margin(row, bank, 1, 3, grid, None, cfg, np.empty((bank.shape[0], grid.size)))


BOUND_ONE_ROWS = ("ThmC", "Thm32", "Thm34", "Cor43")  # one row per bound-1 core


def settled_and_every_cell(theorem, bank, m, p, grid):
    """A row's least margin from ``harness._row_margin``, which evaluates
    only the cells its parity bounds leave unsettled, the every-cell
    oracle's, and the reorder bound between the two."""
    row = hn._ROWS[theorem]
    got = hn._row_margin(row, bank, m, p, grid, None, hn.CampaignConfig(theorems=()),
                         np.empty((bank.shape[0], grid.size)))
    if row.rules.vanishing_start:
        bank = np.hstack([np.zeros((bank.shape[0], 1)), bank])
    want = every_cell_least(row.cores[0], bank, m, p, grid)
    return got, want, written_lhs(row.cores[0], bank, m, p, grid)[1].max()


def sharp_radius(theorem, m, p):
    return rad.solve_radius(rad.RadiusSpec(hn._ROWS[theorem].equation, p, m))


class TestWorstDirection:
    """A direction z0 enters a vector row only as c = max_j |z0_j| <= 1 on
    the bank, and its cores' least margins are nonincreasing in c, so the
    campaign runs each at c = 1, the direction e_1."""

    @pytest.mark.parametrize("theorem, m, p", [
        ("Lem21", 1, 1), ("Lem21", 1, 3), ("Lem21", 2, 3),
        ("Cor42", 1, 1),  # Thm32 on the shifted (0, 1) bank
    ])
    def test_least_margin_nonincreasing_in_c(self, theorem, m, p):
        row = hn._ROWS[theorem]
        core, (cm, cp) = row.cores[0], row.at or (m, p)
        top = 0.95 if row.equation is None else sharp_radius(theorem, cm, cp) - hn._RADIUS_MARGIN
        grid = np.linspace(0.005, top, 150)
        length = fn.lacunary_length_for(m, p, top) + 1
        bank = np.abs(schur.sample_bank([0xC0DE ^ i for i in range(64)], 5, length - 1))
        if row.rules.vanishing_start:
            bank = np.hstack([np.zeros((bank.shape[0], 1)), bank])
        margins, reorder = [], []
        for c in np.linspace(0.0, 1.0, 21):
            lhs, rhs = fn.theorem_margins(core, c * bank, cm, cp, grid)
            margins.append(rhs - lhs)
            reorder.append(written_lhs(core, c * bank, cm, cp, grid)[1])
        for j in range(20):
            # every cell, and so the least one
            slack = reorder[j] + reorder[j + 1]
            assert np.all(margins[j + 1] <= margins[j] + slack), j
            assert margins[j + 1].min() <= margins[j].min() + slack.max(), j
        assert margins[-1].min() < margins[0].min()


class TestSettledCells:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_least_margin_equals_every_cell(self, data):
        theorem = data.draw(st.sampled_from(BOUND_ONE_ROWS), label="theorem")
        odd = hn._ROWS[theorem].rules.odd_gap
        p = data.draw(st.sampled_from((1, 3, 5, 7) if odd else range(1, 9)), label="p")
        m = data.draw(st.integers(0, p), label="m")
        radius = sharp_radius(theorem, m, p)
        # below the radius, as a campaign row runs, and past it, where the
        # family rows' margins are negative
        top = data.draw(st.sampled_from((radius - hn._RADIUS_MARGIN, min(1.02 * radius, 0.99))),
                        label="top")
        points = data.draw(st.integers(1, 120), label="points")
        grid = np.linspace(top / points, top, points)
        length = fn.lacunary_length_for(m, p, top) + 1
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        drawn = data.draw(st.integers(1, 24), label="drawn")
        family = data.draw(st.lists(st.floats(0.0, 0.98), min_size=1, max_size=8),
                           label="family")
        bank = np.vstack([np.abs(schur.sample_bank([seed ^ i for i in range(drawn)], 5,
                                                   length - 1)),
                          schur.family_moduli(family, length)])
        got, want, reorder = settled_and_every_cell(theorem, bank, m, p, grid)
        event("negative" if want < 0 else "nonnegative")
        assert abs(got - want) <= reorder, (got, want)

    @pytest.mark.parametrize("theorem, m, p, mods", [
        ("ThmC", 1, 3, [0.3, 0.04, 0.37]),
        ("Cor43", 0, 1, [0.26, 0.9, 0.24, 0.02]),
    ])
    def test_interior_maximum_is_kept(self, theorem, m, p, mods):
        # an absolute core's left side need not grow with r: this sample's
        # largest cell lies well inside the grid, far above its top one
        grid = np.linspace(0.01, sharp_radius(theorem, m, p) - hn._RADIUS_MARGIN, 60)
        bank = np.zeros((2, fn.lacunary_length_for(m, p, grid[-1]) + 1))
        bank[0, :len(mods)] = mods
        lhs = fn.theorem_margins(theorem, bank, m, p, grid)[0]
        assert lhs.max() > 100 * lhs[:, -1].max()
        got, want, reorder = settled_and_every_cell(theorem, bank, m, p, grid)
        assert want == 1.0 - lhs.max()
        assert abs(got - want) <= reorder

    @pytest.mark.parametrize("theorem", BOUND_ONE_ROWS)
    def test_nan_sample_is_never_settled(self, theorem):
        grid = np.linspace(0.01, sharp_radius(theorem, 1, 3) - hn._RADIUS_MARGIN, 40)
        length = fn.lacunary_length_for(1, 3, grid[-1]) + 1
        bank = np.abs(schur.sample_bank(list(range(12)), 5, length - 1))
        bank[5, 3] = np.nan
        got, want, _ = settled_and_every_cell(theorem, bank, 1, 3, grid)
        assert math.isnan(got) and math.isnan(want)


def bank_with_family(m, p, top, seed, rows):
    """``rows`` seeded draws and 8 extremal-family rows, as a campaign lifts them
    to (m, p) below ``top``."""
    length = fn.lacunary_length_for(m, p, top) + 1
    return np.vstack([np.abs(schur.sample_bank([seed ^ i for i in range(rows)], 5, length - 1)),
                      schur.family_moduli(np.linspace(0.0, 0.98, 8), length)])


class TestTopColumn:
    """A bound-1 core with no negative part runs at its row's top radius alone."""

    def test_rule_picks_thm32_and_thm34(self):
        # every _THEOREMS entry, through each row that runs it, at every
        # shape with p <= 8; the rule is functionals.least_margin's
        picked, seen = collections.defaultdict(set), set()
        for row in hn._ROWS.values():
            for core in row.cores:
                th = fn._THEOREMS[core]
                seen.add(core)
                if th.rhs is not None or row.per_function:
                    continue
                for p in range(1, 9):
                    for m in range(p + 1):
                        if fn._no_negative_part(th, m, p):
                            picked[core].add((m, p))
        every = {(m, p) for p in range(1, 9) for m in range(p + 1)}
        assert seen == set(fn._THEOREMS)
        assert picked == {"Thm32": every, "Thm34": every}

    @pytest.mark.parametrize("core", ["Thm32", "Thm34"])
    def test_picked_cores_have_no_negative_part(self, core):
        th = fn._THEOREMS[core]
        grid = np.linspace(0.0, 0.9, 25)
        for p in range(1, 9):
            for m in range(p + 1):
                bank = bank_with_family(m, p, grid[-1], 31 * p + m, 24)
                if th.vanishing_start:
                    bank = np.hstack([np.zeros((bank.shape[0], 1)), bank])
                pos, neg = fn._parity_parts(th, bank, m, p, grid)
                assert np.all(neg == 0.0) and np.all(pos >= 0.0), (m, p)

    @pytest.mark.parametrize("core", sorted(tid for tid, th in fn._THEOREMS.items()
                                            if th.rhs is None))
    def test_one_radius_row_bits_do_not_depend_on_the_batch(self, core):
        # the top-column call's least margin is the least over the rows
        # _unsettled would leave, bit for bit
        th = fn._THEOREMS[core]
        m, p = th.shape or (1, 3)
        bank = bank_with_family(m, p, 0.9, 5, 492)
        if th.vanishing_start:
            bank = np.hstack([np.zeros((bank.shape[0], 1)), bank])
        extras = {"s": 1.5} if core == "Thm31" else None

        def lhs(rows):
            return fn.theorem_margins(core, bank[rows], m, p, [0.9], extras=extras,
                                      coeff_bound=1.0)[0][:, 0]

        whole = lhs(np.arange(500))
        subset = [0, 3, 77, 250, 431, 495, 499]  # draws and family rows
        assert lhs(subset).tobytes() == whole[subset].tobytes()
        for i in subset:
            assert lhs([i]).tobytes() == whole[[i]].tobytes()


REDUCED_CORES = tuple(core for core, th in fn._THEOREMS.items() if th.reduced is not None)
FINE_GRID = dict(theorems=("LemD", "Lem21"), shapes=((1, 3), (2, 3), (3, 3)), samples=500,
                 depth=5, r_start=0.001, r_stop=0.95, r_step=0.0005)
# campaigns whose LemD and Lem21 rows are held to every cell
REDUCED_CONFIGS = {
    # config seeds that draw distinct banks
    "fine_grid_4096": dict(FINE_GRID, seed=20240802 ^ 4096),
    "fine_grid_8192": dict(FINE_GRID, seed=20240802 ^ 8192),
    # test_criterion_2_certification_sweep's shapes, grid and seed
    "criterion_2": dict(theorems=("LemD", "Lem21"),
                        shapes=((0, 1), (1, 1), (0, 2), (1, 3), (2, 3), (3, 3)),
                        samples=500, seed=20240801, r_start=0.005, r_stop=0.95, r_step=0.005),
    "all_ids": dict(theorems=hn.CAMPAIGN_THEOREMS,
                    shapes=((0, 1), (0, 2), (1, 1), (1, 3), (2, 3), (3, 3), (2, 5)),
                    t_values=(1.0, 2.0, math.inf), s_values=(0.5, 2.0), samples=200, seed=9,
                    r_start=0.0),
    # samples whose tails outweigh their Bernstein bounds need the second call
    "deep": dict(theorems=("LemD", "Lem21"), shapes=((1, 1),), samples=200, depth=9,
                 r_start=0.001, r_stop=0.99, r_step=0.0005),
}


def spy_reduced_cells(monkeypatch):
    """(core, m, p, cells) of every reduced-core call from here on."""
    real, calls = hn.fn.theorem_margins, []

    def spy(core, mods, m, p, r, **kwargs):
        if core in REDUCED_CORES:
            calls.append((core, m, p, np.shape(mods)[0] * np.size(r)))
        return real(core, mods, m, p, r, **kwargs)

    monkeypatch.setattr(hn.fn, "theorem_margins", spy)
    return calls


class TestReducedRows:
    """LemD and Lem21 settle cells from per-sample Bernstein bounds."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_floor_never_exceeds_rho(self, data):
        core = data.draw(st.sampled_from(REDUCED_CORES), label="core")
        th = fn._THEOREMS[core]
        p = data.draw(st.integers(1, 6), label="p")
        m = data.draw(st.integers(1 if th.positive_m else 0, p), label="m")
        top = data.draw(st.floats(0.05, 0.99), label="top")
        length = fn.lacunary_length_for(m, p, top) + 1
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        drawn = data.draw(st.integers(1, 12), label="drawn")
        depth = data.draw(st.integers(1, 9), label="depth")
        family = data.draw(st.lists(st.floats(0.0, 0.98), min_size=1, max_size=4),
                           label="family")
        bank = np.vstack([np.abs(schur.sample_bank([seed ^ i for i in range(drawn)], depth,
                                                   length - 1)),
                          schur.family_moduli(family, length)])
        floor = fn._reduced_floor(th.reduced, bank, m, p, top)
        rho, _ = fn._reduced_polynomial(th.reduced, bank, m, p, top ** (2 * p),
                                        bank.shape[1] + 1)
        dense = polynomial_dense_min(rho, top ** (2 * p))
        event("tail" if rho.shape[1] > fn._BERNSTEIN_DEGREE + 1 else "no tail")
        assert np.all(floor <= dense), (floor - dense).max()

    @pytest.mark.parametrize("name", REDUCED_CONFIGS)
    def test_rows_equal_every_cell(self, name, monkeypatch):
        cfg = hn.CampaignConfig(**REDUCED_CONFIGS[name])
        calls = spy_reduced_cells(monkeypatch)
        rows = [row for row in hn.run_campaign(cfg).rows if row.theorem in ("LemD", "Lem21")]
        calls = list(calls)
        grid = hn._grid(cfg, cfg.r_stop)
        banks = {}
        assert rows
        for row in rows:
            bank = hn._bank(banks, cfg, row.m, row.p)
            want = every_cell_row_least(row.theorem, bank, row.m, row.p, grid)
            assert row.min_margin == want, (row, want)
        # a fallback to every cell would evaluate samples x grid points of each
        for core, m, p in {call[:3] for call in calls}:
            cells = sum(n for *key, n in calls if key == [core, m, p])
            assert cells < cfg.samples * grid.size, (core, m, p)
        if name == "deep":
            assert any(n > 1 for n in collections.Counter(c[:3] for c in calls).values())

    def test_family_rows_fall_back(self, monkeypatch):
        # the automorphism family attains LemD's bound at every radius: rho = 0
        cfg = hn.CampaignConfig(**REDUCED_CONFIGS["fine_grid_4096"])
        grid = hn._grid(cfg, cfg.r_stop)
        length = hn._bank_length(cfg, 1, 3)
        bank = np.vstack([hn._bank({}, cfg, 1, 3),
                          schur.family_moduli(np.linspace(0.0, 0.98, 64), length)])
        calls = spy_reduced_cells(monkeypatch)
        got = {theorem: hn._row_margin(hn._ROWS[theorem], bank, 1, 3, grid, None, cfg,
                                       np.empty((bank.shape[0], grid.size)))
               for theorem in ("LemD", "Lem21")}
        calls = list(calls)
        for theorem, least in got.items():
            assert least == every_cell_row_least(theorem, bank, 1, 3, grid), theorem
        assert -1e-14 < got["LemD"] < 0.0
        # each LemD core evaluates every sample on its head and the 64 family
        # rows alone past it
        for core in ("LemDOdd", "LemDEven"):
            plan = fn._plan(fn._THEOREMS[core], 1, 3, length, None, 1.0)
            head = fn._buckets(fn._cut_counts(plan.lattices, grid))[0][1]
            assert [n for c, *_, n in calls if c == core] == [
                bank.shape[0] * head, 64 * (grid.size - head)]

    def test_nan_sample_is_never_settled(self):
        cfg = hn.CampaignConfig(**REDUCED_CONFIGS["fine_grid_4096"])
        grid = hn._grid(cfg, cfg.r_stop)
        bank = hn._bank({}, cfg, 2, 3)[:40].copy()
        bank[7, 30] = np.nan
        for theorem in ("LemD", "Lem21"):
            got = hn._row_margin(hn._ROWS[theorem], bank, 2, 3, grid, None, cfg,
                                 np.empty((bank.shape[0], grid.size)))
            assert math.isnan(got), theorem


# a row with t = None (ThmB) and rows with t = inf and t = 2 (Lem21)
SCHEMA_CONFIG = dict(theorems=("ThmB", "Lem21"), shapes=((1, 3),), t_values=(math.inf, 2.0),
                     samples=3, seed=5, r_stop=0.5)
# ReportRow's fields in order, as report keys
SCHEMA_KEYS = [{"passed": "pass"}.get(f.name, f.name) for f in dataclasses.fields(hn.ReportRow)]


# A small campaign over the cores whose products go through BLAS.
THREADS_CONFIG = {"theorems": ["LemD", "ThmC", "Thm32", "Thm34", "Cor43", "Lem21"],
                  "shapes": [[1, 3], [2, 3]], "samples": 200, "r_step": 0.002, "seed": 11,
                  "output": "-"}


class TestReports:
    def test_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # OpenBLAS splits a product between its threads; the report must not
        # move with that split.  Each child sets the count in its own
        # environment only: unset (one thread per core) and 1.
        config = tmp_path / "config.json"
        config.write_text(json.dumps(THREADS_CONFIG), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(hn.__file__).parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])])}
        env.pop("OPENBLAS_NUM_THREADS", None)
        digests = set()
        for threads in (None, "1"):
            child = env if threads is None else {**env, "OPENBLAS_NUM_THREADS": threads}
            done = subprocess.run([sys.executable, "-m", "bohrcert", "verify", "--config", str(config)],
                                  capture_output=True, env=child, check=True, timeout=300)
            assert json.loads(done.stdout)
            digests.add(hashlib.sha256(done.stdout).hexdigest())
        assert len(digests) == 1

    def test_schema_round_trips(self):
        rep = hn.run_campaign(hn.CampaignConfig(**SCHEMA_CONFIG))
        assert [row.t for row in rep.rows] == [None, math.inf, 2.0]
        text = hn.report_to_json(rep)
        assert [list(obj) for obj in json.loads(text)] == [SCHEMA_KEYS] * 3
        assert hn.report_from_json(text) == rep
        header, *lines = hn.report_to_csv(rep).splitlines()
        assert header.split(",") == SCHEMA_KEYS
        for row, line in zip(rep.rows, lines, strict=True):
            for f, cell in zip(dataclasses.fields(row), line.split(","), strict=True):
                want = getattr(row, f.name)
                if isinstance(want, bool):
                    assert cell == str(want).lower()
                elif want is None or isinstance(want, (str, int)):
                    assert cell == ("" if want is None else str(want))
                else:  # 15 significant digits; inf as "inf"
                    got = float(cell)
                    assert got == want or abs(got - want) <= 1e-14 * abs(want), f.name

    @pytest.mark.parametrize("key, edit", [
        ("min_margin", lambda obj: obj.pop("min_margin")),
        ("pass", lambda obj: obj.pop("pass")),
        ("margin", lambda obj: obj.update(margin=0.5)),
    ])
    def test_from_json_names_a_missing_or_unknown_key(self, key, edit):
        rep = hn.run_campaign(hn.CampaignConfig(**SCHEMA_CONFIG))
        objs = json.loads(hn.report_to_json(rep))
        edit(objs[1])
        with pytest.raises(ParameterOutOfRange, match=f"keys: \\['{key}'\\]$"):
            hn.report_from_json(json.dumps(objs))

    @pytest.mark.parametrize("text, message", [
        ("nope", "report is not valid JSON: "),
        ("5", "a report is a JSON list of row objects$"),
        ("null", "a report is a JSON list of row objects$"),
        ('{"a": 1}', "a report is a JSON list of row objects$"),
        ("[5]", "report row 0 is not an object$"),
        ("[null]", "report row 0 is not an object$"),
    ])
    def test_from_json_refuses_a_document_that_is_not_rows(self, text, message):
        with pytest.raises(ParameterOutOfRange, match=f"^{message}"):
            hn.report_from_json(text)

    @pytest.mark.parametrize("key, value, what", [
        ("pass", "false", "true or false"),
        ("pass", 0, "true or false"),
        ("p", 3.0, "an integer"),
        ("m", True, "an integer"),
        ("samples", "3", "an integer"),
        ("grid_points", None, "an integer"),
        ("t", "2", 'a number, "inf" or null'),
        ("t", True, 'a number, "inf" or null'),
        ("min_margin", "0.1", "a number or null"),
        ("radius", False, "a number or null"),
        ("radius_closed_form", [0.5], "a number or null"),
        ("sharpness_max", {}, "a number or null"),
        ("theorem", 3, "a string"),
    ])
    def test_from_json_names_a_value_of_the_wrong_type(self, key, value, what):
        rep = hn.run_campaign(hn.CampaignConfig(**SCHEMA_CONFIG))
        objs = json.loads(hn.report_to_json(rep))
        objs[1][key] = value
        with pytest.raises(ParameterOutOfRange,
                           match=f"^report key '{key}' must be {re.escape(what)}, got "):
            hn.report_from_json(json.dumps(objs))

    def test_json_empty(self):
        assert hn.report_to_json(hn.Report(rows=())) == "[]\n"

    def test_json_round_trip(self):
        rep = hn.run_campaign(small_config())
        again = hn.report_from_json(hn.report_to_json(rep))
        assert again == rep

    def test_round_trip_with_inf_t(self):
        cfg = hn.CampaignConfig(
            theorems=("Lem21",), shapes=((1, 1),), t_values=(math.inf,),
            samples=5, seed=4, r_stop=0.8,
        )
        rep = hn.run_campaign(cfg)
        again = hn.report_from_json(hn.report_to_json(rep))
        assert again == rep

    def test_csv_shape_and_digits(self):
        cfg = small_config()
        rep = hn.run_campaign(cfg)
        lines = hn.report_to_csv(rep).splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("theorem,p,m,t,radius")
        cells = lines[1].split(",")
        assert cells[4] == "0.707106781186548"  # 15 significant digits

    def test_emit_report_files(self, tmp_path):
        rep = hn.run_campaign(small_config())
        jpath = tmp_path / "r.json"
        cpath = tmp_path / "r.csv"
        hn.emit_report(rep, "json", str(jpath))
        hn.emit_report(rep, "csv", str(cpath))
        assert hn.report_from_json(jpath.read_text()) == rep
        raw = cpath.read_bytes()
        assert b"\r" not in raw
        assert raw.decode("utf-8").count("\n") == 2

    @pytest.mark.parametrize("fmt, write", [("json", hn.report_to_json),
                                            ("csv", hn.report_to_csv)])
    def test_emit_report_to_stdout(self, fmt, write, capsys):
        rep = hn.run_campaign(small_config())
        hn.emit_report(rep, fmt, "-")
        assert capsys.readouterr().out == write(rep)

    def test_emit_unwritable_path(self):
        rep = hn.Report(rows=())
        with pytest.raises(OSError):
            hn.emit_report(rep, "json", "/nonexistent-dir/report.json")


class TestCli:
    def test_radius_command(self, capsys):
        assert cli_main(["radius", "--theorem", "ThmC34", "--p", "1", "--m", "1"]) == 0
        assert capsys.readouterr().out.strip() == "0.707106781186548"

    def test_radius_thm31(self, capsys):
        code = cli_main(["radius", "--theorem", "Thm31", "--a0", "0.5", "--s", "1"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0.4"

    def test_radius_thm31_missing_args(self, capsys):
        assert cli_main(["radius", "--theorem", "Thm31"]) == 2

    # (3, 1) is bisected, which would accept its first midpoint, 0.5000005
    # (the radius is 0.8688); (3, 3) has a closed form
    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("tol", ["inf", "0", "-1"])
    def test_radius_bad_tol_exits_two(self, m, tol, capsys):
        code = cli_main(["radius", "--theorem", "ThmC34", "--p", "3", "--m", str(m),
                         "--tol", tol])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("bohrcert: error:")

    # --a0 and --s are read only by the Thm31 radius, and --s only by the
    # Thm31 scan; another id must refuse them, not print its own result
    @pytest.mark.parametrize("argv", [
        ["radius", "--theorem", "ThmC34", "--p", "1", "--m", "1", "--a0", "0.5", "--s", "2"],
        ["radius", "--theorem", "Thm32", "--p", "2", "--a0", "0.5"],
        ["radius", "--theorem", "Cor43", "--p", "1", "--s", "2"],
        ["sharpness", "--theorem", "Thm34", "--p", "1", "--m", "1", "--r", "0.5", "--s", "-3"],
        ["sharpness", "--theorem", "Thm32", "--p", "1", "--r", "0.61", "--s", "2"],
    ])
    def test_flags_of_another_id_exit_two(self, argv, capsys):
        code = cli_main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("bohrcert: error:")
        assert "Thm31" in err

    # argparse reads --flag=-- as an empty list, not as the text "--"
    @pytest.mark.parametrize("argv, flag", [
        (["radius", "--theorem=--"], "--theorem"),
        (["radius", "--theorem", "ThmC34", "--p=--"], "--p"),
        (["sharpness", "--theorem", "Thm32", "--r=--"], "--r"),
        (["table", "--theorem=--"], "--theorem"),
        (["verify", "--theorems=--"], "--theorems"),
        (["verify", "--theorems", "ThmB", "--shapes=--"], "--shapes"),
        (["verify", "--theorems", "ThmB", "--t=--"], "--t"),
    ])
    def test_flag_read_as_a_list_exits_two(self, argv, flag, capsys):
        code = cli_main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"bohrcert: error: {flag} needs a value\n"

    def test_sharpness_command(self, capsys):
        code = cli_main(
            ["sharpness", "--theorem", "Thm32", "--p", "1", "--m", "0",
             "--r", "0.61", "--a-steps", "200"]
        )
        assert code == 0
        assert float(capsys.readouterr().out.strip()) > 1.0

    def test_sharpness_certifies_high_gap_radius(self, capsys):
        # (0, 7) at 0.97 needs more lattice moduli than an order-512 table holds
        code = cli_main(["sharpness", "--theorem", "Thm34", "--p", "7", "--m", "0",
                         "--r", "0.97"])
        assert code == 0
        assert capsys.readouterr().out == "2.3273827082824\n"

    # Thm31 is stated for (m, p) = (0, 1) only
    @pytest.mark.parametrize("argv", [
        ["sharpness", "--theorem", "Thm31", "--p", "3", "--m", "2", "--r", "0.5", "--s", "1"],
        ["radius", "--theorem", "Thm31", "--p", "3", "--m", "2", "--a0", "0.5", "--s", "1"],
    ])
    def test_thm31_other_shape_exits_two(self, argv, capsys):
        code = cli_main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "bohrcert: error: Thm31 is stated for shape (m, p) = (0, 1), got (2,3)\n"

    def test_table_command(self, capsys):
        outs = {}
        for fmt in ("csv", None):  # None: the default text format
            flags = [] if fmt is None else ["--format", fmt]
            assert cli_main(["table", "--theorem", "Cor43", "--p-max", "2", *flags]) == 0
            outs[fmt] = capsys.readouterr().out.splitlines()
            assert len(outs[fmt]) == 1 + 2 + 3  # header + triangle sizes 2 and 3
        assert outs["csv"][0] == "p,m,radius,radius_closed_form"
        assert outs[None][0].split() == ["p", "m", "radius", "closed", "form"]
        # the same cells in aligned columns; a missing closed form is blank
        for text, csv in zip(outs[None][1:], outs["csv"][1:]):
            assert text.split() == [cell for cell in csv.split(",") if cell]

    @pytest.mark.parametrize("p_max", [-3, 0, MAX_TABLE_P + 1, 2 ** 40])
    def test_table_p_max_checked_and_capped(self, p_max, capsys):
        code = cli_main(["table", "--theorem", "ThmC34", "--p-max", str(p_max)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"bohrcert: error: --p-max must lie in [1, {MAX_TABLE_P}], got {p_max}\n"

    def test_table_p_max_at_its_cap(self, capsys):
        assert cli_main(["table", "--theorem", "Thm32", "--p-max", str(MAX_TABLE_P)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1 + sum(p + 1 for p in range(1, MAX_TABLE_P + 1))

    def test_verify_inline_pass(self, capsys, tmp_path):
        out = tmp_path / "rep.json"
        code = cli_main(
            ["verify", "--theorems", "ThmC", "--shapes", "1:1", "--samples", "5",
             "--seed", "3", "--r-stop", "0.7", "--output", str(out)]
        )
        assert code == 0
        assert out.exists()

    def test_verify_config_file(self, tmp_path):
        cfg = {
            "theorems": ["Thm34"],
            "shapes": [[1, 1]],
            "samples": 5,
            "seed": 3,
            "r_stop": 0.7,
            "output": str(tmp_path / "rep.csv"),
            "format": "csv",
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli_main(["verify", "--config", str(path)]) == 0
        assert (tmp_path / "rep.csv").exists()

    def test_verify_failure_exit_one(self, tmp_path):
        code = cli_main(
            ["verify", "--theorems", "ThmC", "--shapes", "1:1", "--samples", "5",
             "--seed", "3", "--r-stop", "0.7", "--tol", "-1",
             "--output", str(tmp_path / "r.json")]
        )
        assert code == 1

    def test_verify_streams_progress(self, tmp_path, monkeypatch, capsys):
        # each row's progress line is on stderr before the next row starts
        real, printed = hn._run_row, []

        def run_row(*args):
            printed.append(capsys.readouterr().err)
            return real(*args)

        monkeypatch.setattr(hn, "_run_row", run_row)
        out = tmp_path / "r.json"
        code = cli_main(["verify", "--theorems", "ThmB,LemD,Lem21", "--shapes", "1:1,1:3",
                         "--t", "1,inf", "--samples", "3", "--r-stop", "0.6",
                         "--output", str(out)])
        printed.append(capsys.readouterr().err)
        assert code == 0
        assert [text.count("\n") for text in printed] == [0] + [1] * 6 + [2]
        rows = hn.report_from_json(out.read_text()).rows
        lines = "".join(printed).splitlines()[:-1]
        assert [line.split(")")[0] for line in lines] == [
            f"[ok ] {r.theorem:<14} (m={r.m}, p={r.p}" + ("" if r.t is None else f", t={r.t:g}")
            for r in rows]

    def test_usage_error_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            cli_main(["radius", "--theorem", "Nope"])
        assert exc.value.code == 2

    def test_table_unknown_theorem_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["table", "--theorem", "Nope"])
        assert exc.value.code == 2
        assert "invalid choice: 'Nope'" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, config_text", [
        (["--theorems", "ThmC", "--shapes", "1-1"], None),
        (["--theorems", "ThmC", "--t", "foo"], None),
        (["--theorems", "Lem21", "--shapes", "1:1", "--t", "nan"], None),
        (None, '{"theorems": ["ThmC"], "samples": "5"}'),
        (None, '{"theorems": ["ThmC"], "r_stop": "0.5"}'),
        (None, '{"theorems": ["Lem21"], "t_values": ["x"]}'),
        (None, '{"theorems": ["ThmC"], "shapes": [[1, 1, 1]]}'),
        (None, '{"theorems": ["ThmC"'),
        (None, '{"theorems": "ThmC"}'),
        (None, '{"samples": 5}'),
        (None, '{"theorems": ["ThmC"], "tol": NaN}'),
        (None, '{"theorems": ["ThmC"], "trunc_tol": 0}'),
        (["--theorems", "ThmB", "--r-step", "1e-300"], None),
        (None, '{"theorems": [], "samples": 1000000}'),
        (None, '{"theorems": ["Thm34"], "shapes": [[1, 3]], "scan_steps": -3}'),
        # dims, a retired key, is refused as unknown at any value (here and below)
        (None, '{"theorems": ["LemD", "Lem21"], "shapes": [[1, 3]], "dims": 0}'),
        (None, '{"theorems": ["ThmB", "Thm31"], "s_values": [NaN]}'),
        (None, '{"theorems": ["ThmB", "Thm31"], "s_values": [-1]}'),
        (None, '{"theorems": ["Thm31"], "s_values": [1, 0]}'),
        # sizes of 2^50 elements, refused by their caps before anything is
        # allocated
        (["--theorems", "ThmB", "--samples", "2", "--depth", str(2 ** 50)], None),
        (None, '{"theorems": ["Lem21"], "shapes": [[1, 1]], "samples": 2, "dims": %d}'
         % 2 ** 50),
        (None, '{"theorems": ["ThmB"], "samples": 2, "scan_steps": %d}' % 2 ** 50),
        # a requested id whose rules drop every requested shape
        (["--theorems", "Thm41", "--shapes", "6:6"], None),
        (["--theorems", "Lem21", "--shapes", "0:1"], None),
        # ids without a fixed shape, and no shape requested
        (None, '{"theorems": ["ThmC", "Lem21"], "shapes": [], "output": "-"}'),
        # sizes just over their caps
        (["--theorems", "ThmB", "--samples", "2", "--depth", str(hn.MAX_DEPTH + 1)], None),
        (None, '{"theorems": ["Lem21"], "shapes": [[1, 1]], "samples": 2, "dims": %d}'
         % 65),
        (None, '{"theorems": ["ThmB"], "samples": 2, "scan_steps": %d}'
         % (md.MAX_SCAN_STEPS + 1)),
        # caps on samples x bank length (a 2.9 GB bank) and samples x grid
        # points (the margin workspace), each factor within its own cap
        (None, '{"theorems": ["ThmB"], "samples": 65536, "r_stop": 0.99}'),
        (None, '{"theorems": ["ThmB"], "samples": 65536, "r_step": 1e-6}'),
        # an infinite tol would pass every margin check
        (None, '{"theorems": ["ThmC"], "tol": Infinity}'),
        (None, '{"theorems": ["ThmC"], "tol": -Infinity}'),
        (["--theorems", "ThmC", "--tol", "inf"], None),
        # a reversed radius interval would check nothing and pass
        (None, '{"theorems": ["ThmB"], "r_start": 0.9, "r_stop": 0.1}'),
        # an infinite step would build the grid [nan]
        (["--theorems", "ThmB", "--r-step", "inf"], None),
        # no norm index, no exponent s, or no theorem would certify nothing
        # and pass
        (None, '{"theorems": ["Lem21"], "shapes": [[1, 3]], "t_values": []}'),
        (None, '{"theorems": ["Thm31"], "s_values": []}'),
        (None, '{"theorems": []}'),
        # a trunc_tol above the default shortens every bank and leaves its
        # tail uncertified
        (None, '{"theorems": ["ThmC"], "trunc_tol": 1e-9}'),
        (None, '{"theorems": ["ThmB", "LemD"], "shapes": [[0, 1], [1, 3]], "samples": 3, '
               '"trunc_tol": 1e300, "output": "-"}'),
    ])
    def test_malformed_input_exits_two(self, flags, config_text, tmp_path, capsys,
                                       monkeypatch):
        if config_text is not None:
            path = tmp_path / "cfg.json"
            path.write_text(config_text)
            # --config takes no --output, so a report would go to the config's
            # output path, relative to here
            monkeypatch.chdir(tmp_path)
            flags = ["--config", str(path)]
        else:
            flags = [*flags, "--output", str(tmp_path / "r.json")]
        code = cli_main(["verify", *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("bohrcert: error:")
        assert "Traceback" not in err

    def test_config_refuses_other_verify_flags(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"theorems": ["ThmB"], "samples": 2}')
        monkeypatch.chdir(tmp_path)
        code = cli_main(["verify", "--config", str(path), "--output", "-", "--r-stop", "0.5"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "bohrcert: error: --config takes no other verify flag, got --r-stop, --output\n"
        assert not (tmp_path / "report.json").exists()
        assert cli_main(["verify", "--config", str(path)]) == 0
        assert (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("key, cap", [
        ("depth", hn.MAX_DEPTH), ("scan_steps", md.MAX_SCAN_STEPS),
    ])
    def test_size_caps_name_the_key(self, key, cap):
        hn.CampaignConfig(theorems=(), **{key: cap})
        with pytest.raises(ParameterOutOfRange, match=f"^{key} is capped at {cap}, got {cap + 1}$"):
            hn.CampaignConfig(theorems=(), **{key: cap + 1})

    def test_cell_cap_bounds_bank_and_grid(self):
        # 2^15 samples x 1024 grid points is the cap exactly
        grid = dict(theorems=("ThmB",), r_start=0.0, r_stop=0.5, r_step=0.5 / 1023)
        hn.CampaignConfig(samples=hn.MAX_CELLS // 1024, **grid)
        with pytest.raises(ParameterOutOfRange,
                           match=f"^samples x grid points is capped at {hn.MAX_CELLS}, "):
            hn.CampaignConfig(samples=hn.MAX_CELLS // 1024 + 1, **grid)
        # a bank at a fixed shape counts as well as a requested one
        with pytest.raises(ParameterOutOfRange, match="^samples x bank length is capped"):
            hn.CampaignConfig(theorems=("Cor33",), shapes=((3, 3),), samples=32768,
                              r_stop=0.99)
        hn.CampaignConfig(theorems=("ThmC",), shapes=((3, 3),), samples=32768, r_stop=0.99)
        # a bank no row draws does not count: Lem21's rule drops m = 0, so of
        # the 2751-long (0, 1) bank and the 881-long (1, 3) one, only the
        # second is drawn
        cfg = hn.CampaignConfig(theorems=("Lem21",), shapes=((0, 1), (1, 3)), samples=20000,
                                r_stop=0.99)
        assert [hn._bank_length(cfg, m, p) for m, p in cfg.shapes] == [2751, 881]
        assert hn._kept_shapes("Lem21", cfg.shapes) == [(1, 3)]

    def test_sharpness_negative_steps_exits_two(self, capsys):
        code = cli_main(["sharpness", "--theorem", "Thm34", "--p", "3", "--m", "1",
                         "--r", "0.7", "--a-steps", "-1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "bohrcert: error: the scan grid needs a step count >= 0, got -1\n"

    @pytest.mark.parametrize("flags", [
        ["--theorem", "Thm34", "--p", "0", "--m", "0", "--r", "0.5"],
        ["--theorem", "Thm32", "--p", "0", "--r", "0.5"],
        ["--theorem", "Thm32", "--p", "1", "--m", "2", "--r", "0.5"],
        # a 2^50-point grid, and one just over the cap; both are refused
        # by the cap before anything is allocated
        ["--theorem", "Thm34", "--p", "3", "--m", "1", "--r", "0.7", "--a-steps", str(2 ** 50)],
        ["--theorem", "Thm34", "--p", "3", "--m", "1", "--r", "0.7",
         "--a-steps", str(md.MAX_SCAN_STEPS + 1)],
    ])
    def test_sharpness_bad_shape_exits_two(self, flags, capsys):
        code = cli_main(["sharpness", *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("bohrcert: error:")
        assert "Traceback" not in err

    def test_verify_needs_input(self):
        assert cli_main(["verify"]) == 2

    def test_verify_empty_theorem_list_exits_two(self, tmp_path, capsys):
        cfg = {"theorems": [], "output": str(tmp_path / "r.json")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli_main(["verify", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "bohrcert: error: a campaign needs at least one theorem\n")
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("output, via_config", [
        ("missing/r.json", False), ("missing/r.json", True), (".", False),
    ])
    def test_verify_unwritable_output_exits_before_running(self, output, via_config, tmp_path,
                                                           capsys):
        output = str(tmp_path / output)
        argv = ["verify", "--theorems", "ThmB", "--samples", "2", "--output", output]
        if via_config:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"theorems": ["ThmB"], "samples": 2, "output": output}))
            argv = ["verify", "--config", str(path)]
        assert cli_main(argv) == 2
        out, err = capsys.readouterr()
        # the one stderr line is the error: no row ran, so no progress line
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("bohrcert: error:")
        assert os.path.dirname(output) in err


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=8,
)
_CONFIG_KEYS = st.sampled_from(sorted(hn.CampaignConfig.__dataclass_fields__)) | st.text(max_size=6)
_THEOREM_LISTS = st.lists(st.sampled_from(hn.CAMPAIGN_THEOREMS) | st.text(max_size=6), max_size=3)
_FLAG_TEXT = st.none() | st.text(max_size=12)


class TestInputFuzz:
    """Parsing either gives a config or raises a BohrcertError; nothing runs."""

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(_CONFIG_KEYS, _JSON_VALUES | _THEOREM_LISTS, max_size=6),
           st.none() | _THEOREM_LISTS, st.none() | st.text(max_size=30))
    def test_config_json(self, obj, theorems, raw):
        if theorems is not None:
            obj = {**obj, "theorems": theorems}
        try:
            cfg = hn.config_from_json(json.dumps(obj) if raw is None else raw)
        except BohrcertError:
            return
        assert isinstance(cfg, hn.CampaignConfig)

    @settings(max_examples=200, deadline=None)
    @given(
        theorems=_FLAG_TEXT | _THEOREM_LISTS.map(",".join),
        shapes=_FLAG_TEXT | st.lists(st.tuples(st.integers(-2, 5), st.integers(-2, 5)),
                                     max_size=3).map(lambda ps: ",".join(f"{m}:{p}" for m, p in ps)),
        t=_FLAG_TEXT,
        samples=st.none() | st.integers(),
        depth=st.none() | st.integers(),
        r_stop=st.none() | st.floats(),
        r_step=st.none() | st.floats(),
        fmt=st.none() | st.sampled_from(["json", "csv"]),
    )
    def test_verify_flags(self, theorems, shapes, t, samples, depth, r_stop, r_step, fmt):
        flags = {"theorems": theorems, "shapes": shapes, "t": t, "samples": samples,
                 "depth": depth, "r-stop": r_stop, "r-step": r_step, "format": fmt}
        argv = ["verify"] + [f"--{k}={v}" for k, v in flags.items() if v is not None]
        args = build_parser().parse_args(argv)
        try:
            _check_values(args)  # as ``main`` checks every command's flags first
            cfg = _config_from_args(args)
        except BohrcertError:
            return
        assert isinstance(cfg, hn.CampaignConfig)


@st.composite
def _tiny_campaigns(draw):
    """A flat config for a campaign of a few rows, 1-3 samples and a coarse grid."""
    return {
        "theorems": draw(st.lists(st.sampled_from(hn.CAMPAIGN_THEOREMS),
                                  min_size=1, max_size=3, unique=True)),
        "shapes": draw(st.lists(st.integers(1, 3).flatmap(
            lambda p: st.tuples(st.integers(0, p), st.just(p))), min_size=1, max_size=2)),
        "t_values": draw(st.lists(st.sampled_from([1, 2, "inf"]), min_size=1, max_size=2)),
        "s_values": draw(st.lists(st.sampled_from([0.5, 1, 2]), min_size=1, max_size=2)),
        "samples": draw(st.integers(1, 3)),
        "seed": draw(st.integers(0, 2 ** 32)),
        "depth": draw(st.integers(1, 4)),
        "r_stop": draw(st.floats(0.05, 0.6)),
        "r_step": draw(st.sampled_from([0.05, 0.1, 0.25])),
        "tol": draw(st.sampled_from([1e-9, 0.0, -1.0])),  # -1 fails every margin row
        "scan_steps": draw(st.integers(0, 8)),
        "format": draw(st.sampled_from(["json", "csv"])),
    }


_FLAGS = ("theorems", "shapes", "t", "samples", "seed", "depth", "r_stop", "r_step", "tol",
          "format")


def _as_flags(cfg):
    values = dict(cfg, t=",".join(str(t) for t in cfg["t_values"]),
                  theorems=",".join(cfg["theorems"]),
                  shapes=",".join(f"{m}:{p}" for m, p in cfg["shapes"]))
    return {name: str(values[name]) for name in _FLAGS}


def _report_rows(text, fmt):
    """(rows, passes) of a report text; csv rows end in their pass cell."""
    if fmt == "json":
        rows = hn.report_from_json(text).rows
        return len(rows), all(row.passed for row in rows)
    lines = text.splitlines()
    assert text.endswith("\n") and lines[0] == ",".join(hn._COLUMNS)
    assert all(line.rsplit(",", 1)[1] in ("true", "false") for line in lines[1:])
    return len(lines) - 1, all(line.endswith(",true") for line in lines[1:])


class TestCliFuzz:
    """Whole ``verify`` runs on tiny campaigns, some with a malformed flag or
    config: the exit code is 0, 1 or 2, and 0 or 1 only with a complete
    report written, one row per progress line, failing exactly when 1."""

    @settings(max_examples=100, deadline=None)
    @given(cfg=_tiny_campaigns(), use_config=st.booleans(), to_stdout=st.booleans(),
           bad=st.none() | st.tuples(st.sampled_from(_FLAGS + ("s_values", "scan_steps", "nope")),
                                     _JSON_VALUES),
           cut=st.none() | st.floats(0.0, 1.0))
    def test_exit_codes(self, cfg, use_config, to_stdout, bad, cut):
        with tempfile.TemporaryDirectory() as tmp:
            path = "-" if to_stdout else str(Path(tmp) / "report")
            if use_config:
                obj = dict(cfg, output=path)
                if bad is not None:
                    obj[bad[0]] = bad[1]
                text = json.dumps(obj)
                if cut is not None:  # a truncated file
                    text = text[:int(cut * len(text))]
                (Path(tmp) / "cfg.json").write_text(text)
                argv = ["verify", "--config", str(Path(tmp) / "cfg.json")]
            else:
                flags = _as_flags(cfg)
                if bad is not None:
                    flags[bad[0]] = str(bad[1])
                argv = ["verify", "--output", path] + [
                    f"--{k.replace('_', '-')}={v}" for k, v in flags.items()]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli_main(argv)
                except SystemExit as exc:  # argparse refuses the flag
                    code = exc.code
            assert code in (0, 1, 2), err.getvalue()
            event(f"exit {code}")
            assert "Traceback" not in err.getvalue()
            if code == 2:
                # ours, or argparse's "bohrcert verify: error: ..."
                assert re.match(r"bohrcert( verify)?: (io )?error: ", err.getvalue().rstrip("\n").split("\n")[-1])
                return
            report = out.getvalue() if to_stdout else Path(path).read_text(encoding="utf-8")
            rows, passed = _report_rows(report, "csv" if "theorem,p,m" in report[:20] else "json")
            assert rows == len(re.findall(r"^\[(ok |FAIL)\] ", err.getvalue(), re.M))
            assert passed == (code == 0)
