"""Tests of the benchmark itself: tracer accounting, seeding and output checks.

Run with: python3 -m pytest perfbench
"""

import copy
import json

import bootstrap

bootstrap.use_checkout_sources()

from bohrcert import harness, radius, schur  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = harness.CampaignConfig(
    theorems=("ThmB", "LemD", "Thm32", "Thm34", "Cor42", "Lem21"),
    shapes=((0, 1), (1, 1), (1, 3)),
    t_values=(2.0,),
    samples=6,
    seed=5,
    r_stop=0.9,
    r_step=0.05,
)


def _tiny_expected():
    text = harness.report_to_json(harness.run_campaign(TINY))
    got = json.loads(text)
    rows = [{key: row[key] for key in workloads.EXPECTED_ROW_KEYS} for row in got]
    return text, rows, [row["min_margin"] for row in got]


def test_self_times_fit_in_traced_wall():
    with tracing.Tracer(tracing.LAYER_PROBES) as tracer:
        result = workloads.campaign_pass(TINY, cells=1)
    assert harness.sample_schur is schur.sample_schur  # patches undone
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {"harness.run_campaign", "schur.sample_schur", "series.reciprocal",
            "functionals.theorem_margins", "multidim.sharpness_scan",
            "multidim.random_direction", "multidim.lemma21_margins",
            "radius.solve_radius"} <= names
    own = tracing.self_times(tracer.spans)
    assert min(own) >= 0.0
    assert sum(own) <= result.wall_s


def test_layer_metrics_count_the_work():
    with tracing.Tracer(tracing.LAYER_PROBES) as tracer:
        report = harness.run_campaign(TINY)
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["harness.rows"] == len(report.rows)
    assert metrics["schur.samples"] == 6 * len(TINY.shapes)
    assert metrics["functionals.cells"] > 0
    assert 0.0 < metrics["functionals.terms_useful_frac"] <= 1.0


def test_seed_changes_campaign_inputs():
    for name, (base_seed, _) in workloads.CAMPAIGNS.items():
        one, two = workloads.campaign_config(name, 1), workloads.campaign_config(name, 2)
        assert one != two
        assert workloads.campaign_config(name, 1) == one
        assert workloads.campaign_config(name, 0).seed == base_seed
    one, two = workloads.table_inputs(1), workloads.table_inputs(2)
    assert not (one.grid.size == two.grid.size and (one.grid == two.grid).all())
    assert (workloads.table_inputs(1).grid == one.grid).all()


def test_committed_expectations_cover_every_seed_slot():
    for name in workloads.CAMPAIGNS:
        rows, margins = workloads.load_expected(name, workloads.SEED_SLOTS - 1)
        assert len(rows) == len(margins) > 0


def test_campaign_check_accepts_matching_report():
    text, rows, margins = _tiny_expected()
    assert workloads.check_campaign([text, text], rows, margins) == []


def test_injected_wrong_expected_value_fails_campaign_check():
    text, rows, margins = _tiny_expected()
    i = next(k for k, v in enumerate(margins) if v is not None)
    wrong_margin = list(margins)
    wrong_margin[i] += 1e-6
    assert workloads.check_campaign([text], rows, wrong_margin)

    j = next(k for k, row in enumerate(rows) if row["radius"] is not None)
    for key, value in (("radius", rows[j]["radius"] + 1e-6), ("pass", False)):
        wrong_rows = copy.deepcopy(rows)
        wrong_rows[j][key] = value
        assert workloads.check_campaign([text], wrong_rows, margins)

    other = text.replace('"pass": true', '"pass": false', 1)
    assert workloads.check_campaign([text, other], rows, margins)


def test_injected_wrong_scan_output_fails_table_check():
    full = workloads.table_inputs(0)
    keep = tuple((spec, ids) for spec, ids in full.solves if spec.p <= 2)
    solves = workloads.table_pass(workloads.TableInputs(keep, full.grid)).output
    assert workloads.check_table([solves]) == []

    def broken(edit):
        mutated = copy.deepcopy(solves)
        edit(mutated)
        return workloads.check_table([mutated])

    k = next(i for i, s in enumerate(solves) if s.spec.id == "ThmC34")
    assert broken(lambda ss: setattr(ss[k].scans[0], "hi", 0.99))
    assert broken(lambda ss: setattr(ss[k].scans[0], "lo", 1.01))
    assert broken(lambda ss: setattr(ss[k].scans[0], "errors", ("NoSignChange",)))
    closed = next(i for i, s in enumerate(solves) if s.closed is not None)
    assert broken(lambda ss: setattr(ss[closed], "bisected", ss[closed].closed + 1e-6))


def test_known_truncation_failures_count_as_failed_scans():
    spec = radius.RadiusSpec("ThmC34", 6, 6)
    inputs = workloads.TableInputs(((spec, ("Thm34",)),), workloads.table_inputs(0).grid)
    result = workloads.table_pass(inputs)
    assert (result.attempted, result.failed) == (2, 1)
    assert workloads.check_table([result.output]) == []
