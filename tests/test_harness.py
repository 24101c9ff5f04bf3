import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrcert import harness as hn
from bohrcert.cli import _config_from_args, build_parser
from bohrcert.cli import main as cli_main
from bohrcert.errors import BohrcertError, CampaignError, ParameterOutOfRange


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
        rep = hn.run_campaign(hn.CampaignConfig(theorems=()))
        assert rep.rows == ()
        assert rep.all_pass

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

    def test_nan_margin_fails_row(self, monkeypatch):
        real = hn.fn.theorem_margins

        def nan_core(*args, **kwargs):
            lhs, rhs = real(*args, **kwargs)
            lhs = lhs.copy()
            lhs[0, 0] = np.nan
            return lhs, rhs

        monkeypatch.setattr(hn.fn, "theorem_margins", nan_core)
        row = hn.run_campaign(small_config()).rows[0]
        assert math.isnan(row.min_margin)
        assert row.passed is False

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


class TestReports:
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

    def test_sharpness_command(self, capsys):
        code = cli_main(
            ["sharpness", "--theorem", "Thm32", "--p", "1", "--m", "0",
             "--r", "0.61", "--a-steps", "200"]
        )
        assert code == 0
        assert float(capsys.readouterr().out.strip()) > 1.0

    def test_table_command(self, capsys):
        code = cli_main(["table", "--theorem", "Cor43", "--p-max", "2",
                         "--format", "csv"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "p,m,radius,radius_closed_form"
        assert len(out) == 1 + 2 + 3  # header + triangle sizes 2 and 3

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
        (None, '{"theorems": ["LemD", "Lem21"], "shapes": [[1, 3]], "dims": 0}'),
        (None, '{"theorems": ["ThmB", "Thm31"], "s_values": [NaN]}'),
        (None, '{"theorems": ["ThmB", "Thm31"], "s_values": [-1]}'),
        (None, '{"theorems": ["Thm31"], "s_values": [1, 0]}'),
        # sizes of 2^50 elements, which numpy refuses before allocating anything
        (["--theorems", "ThmB", "--samples", "2", "--depth", str(2 ** 50)], None),
        (None, '{"theorems": ["Lem21"], "shapes": [[1, 1]], "samples": 2, "dims": %d}'
         % 2 ** 50),
        (None, '{"theorems": ["ThmB"], "samples": 2, "scan_steps": %d}' % 2 ** 50),
        # a requested id whose rules drop every requested shape
        (["--theorems", "Thm41", "--shapes", "6:6"], None),
        (["--theorems", "Lem21", "--shapes", "0:1"], None),
        # ids without a fixed shape, and no shape requested
        (None, '{"theorems": ["ThmC", "Lem21"], "shapes": [], "output": "-"}'),
    ])
    def test_malformed_input_exits_two(self, flags, config_text, tmp_path, capsys):
        if config_text is not None:
            path = tmp_path / "cfg.json"
            path.write_text(config_text)
            flags = ["--config", str(path)]
        code = cli_main(["verify", *flags, "--output", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("bohrcert: error:")
        assert "Traceback" not in err

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
        # a 2^50-point grid, which numpy refuses before allocating anything
        ["--theorem", "Thm34", "--p", "3", "--m", "1", "--r", "0.7", "--a-steps", str(2 ** 50)],
    ])
    def test_sharpness_bad_shape_exits_two(self, flags, capsys):
        code = cli_main(["sharpness", *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("bohrcert: error:")
        assert "Traceback" not in err

    def test_verify_needs_input(self):
        assert cli_main(["verify"]) == 2

    def test_verify_empty_theorem_list_passes(self, tmp_path):
        cfg = {"theorems": [], "output": str(tmp_path / "r.json")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli_main(["verify", "--config", str(path)]) == 0
        assert (tmp_path / "r.json").read_text() == "[]\n"


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
            cfg = _config_from_args(args)
        except BohrcertError:
            return
        assert isinstance(cfg, hn.CampaignConfig)
