"""The names other code relies on: README examples, ``__all__``, the
attributes the benchmark tracer patches by name, and the tables that name
each other's entries."""

import ast
import dataclasses
import importlib
import importlib.util
import pkgutil
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bohrcert
from bohrcert import functionals, harness, multidim, radius, schur, series

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
TRACING = ROOT / "perfbench" / "tracing.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
MODULES = sorted(m.name for m in pkgutil.iter_modules(bohrcert.__path__)
                 if m.name != "__main__")


def test_readme_examples_print_what_their_comments_state():
    """Run the README's python blocks in order; each print line states its
    output in a trailing comment (numbers to 1e-12, booleans exactly)."""
    printed, stated = [], []

    def capture(*args):
        printed.append(" ".join(str(a) for a in args))

    namespace = {"print": capture}
    for block in re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        stated += re.findall(r"^print\(.*#\s*(.*)$", block, re.M)
        exec(compile(block, str(README), "exec"), namespace)
    assert stated and len(printed) == len(stated)
    for got, want in zip(printed, stated):
        got, want = got.split(), re.sub(r"\(.*\)", "", want).split()
        assert len(got) == len(want), (got, want)
        for g, w in zip(got, want):
            if w in ("True", "False"):
                assert g == w
            else:
                assert float(g) == pytest.approx(float(w), abs=1e-12)


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(f"bohrcert.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def _tracing(monkeypatch):
    """perfbench's tracer module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_probes_resolve(monkeypatch):
    """Every attribute perfbench's tracer wraps exists, so a traced run can start."""
    tracing = _tracing(monkeypatch)
    probes = tracing.LAYER_PROBES + tracing.SCAN_PROBES + tracing.MARGIN_BATCH_PROBES
    missing = [f"{p.module.__name__}.{p.attr}" for p in probes if not hasattr(p.module, p.attr)]
    assert probes
    assert missing == []


def test_margin_core_keeps_the_tracer_contract(monkeypatch):
    """perfbench binds ``theorem_margins``' arguments by name and reads the
    (samples, radii) shape of its first result, and its campaign op
    latencies are the calls a campaign makes through
    ``functionals.theorem_margins``: with none, ``op_p50_ms`` has no data."""
    tracing = _tracing(monkeypatch)
    kwargs = dict(theorem_id="ThmC", mods=np.full((3, 40), 0.1), m=1, p=3, r=[0.1, 0.2])
    result = functionals.theorem_margins(**kwargs)
    assert len(result) == 2 and result[0].shape == (3, 2)
    assert tracing._count_terms((), kwargs, result)["cells"] == 6

    real, counted = functionals.theorem_margins, []

    def traced(*args, **kw):
        out = real(*args, **kw)
        counted.append(tracing._count_terms(args, kw, out))
        return out

    monkeypatch.setattr(functionals, "theorem_margins", traced)
    harness.run_campaign(harness.CampaignConfig(
        theorems=("LemD", "ThmC"), shapes=((1, 3),), samples=2, r_stop=0.3))
    assert len(counted) == 3 and all(c["cells"] > 0 for c in counted)


def test_bound_one_rows_make_one_core_call_each(monkeypatch):
    """Rows of bound-1 cores evaluate only their unsettled cells, still in
    one ``functionals.theorem_margins`` call per core per row, so each such
    row is still one of the campaign ops behind ``op_p50_ms``.  Cor42's t
    rows share their shape's call."""
    tracing = _tracing(monkeypatch)
    real, calls = functionals.theorem_margins, []

    def traced(*args, **kw):
        out = real(*args, **kw)
        calls.append((args[0], tracing._count_terms(args, kw, out)["cells"]))
        return out

    monkeypatch.setattr(functionals, "theorem_margins", traced)
    rows = harness.run_campaign(harness.CampaignConfig(
        theorems=("ThmC", "Thm32", "Thm34", "Cor43", "Cor42"), shapes=((1, 3),),
        t_values=(1.0, float("inf")), samples=40, r_stop=0.9, r_step=0.002)).rows
    assert [core for core, _ in calls] == ["ThmC", "Thm32", "Thm34", "Cor43", "Thm32"]
    assert len(rows) == 6 and all(cells > 0 for _, cells in calls)
    # and fewer cells than the rows of distinct (id, shape) hold
    held = {(r.theorem, r.m, r.p): r.samples * r.grid_points for r in rows}
    assert len(held) == len(calls) and sum(cells for _, cells in calls) < sum(held.values())


def _workloads(monkeypatch):
    """perfbench's workload module, loaded from its file."""
    monkeypatch.setitem(sys.modules, "tracing", _tracing(monkeypatch))  # it imports it
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


# (core, m, p, samples, radii) of every functionals.theorem_margins call of
# perfbench's fine_grid campaign at 40 samples, in order
FINE_GRID_CALLS = [
    *[(core, m, 3, 40, 48) for m in (1, 2, 3) for core in ("LemDOdd", "LemDEven")],
    ("ThmC", 1, 3, 7, 12), ("ThmC", 2, 3, 8, 9), ("ThmC", 3, 3, 12, 12),
    *[(core, m, 3, 40, 1) for core in ("Thm32", "Thm34") for m in (1, 2, 3)],
    ("Cor43", 1, 3, 6, 25), ("Cor43", 2, 3, 5, 16), ("Cor43", 3, 3, 9, 25),
    ("Lem21", 1, 3, 40, 64), ("Lem21", 2, 3, 40, 83), ("Lem21", 3, 3, 40, 102),
]


def test_campaign_core_calls_keep_their_sequence(monkeypatch):
    """perfbench's fine_grid ``op_p50_ms`` and ``op_p95_ms`` are the
    latencies of its campaign's ``functionals.theorem_margins`` calls: LemD's
    two cores at each shape, then ThmC (Thm41 shares its call), Thm32,
    Thm34, Cor43 and Lem21 (one call for its three t rows) at each shape.
    A change that splits or merges those calls moves the op metrics without
    making anything faster, and fails here."""
    workloads = _workloads(monkeypatch)
    config = dataclasses.replace(workloads.campaign_config("fine_grid", 0), samples=40)
    real, calls = functionals.theorem_margins, []

    def traced(theorem_id, mods, m, p, r, **kw):
        calls.append((theorem_id, m, p, len(mods), len(r)))
        return real(theorem_id, mods, m, p, r, **kw)

    monkeypatch.setattr(functionals, "theorem_margins", traced)
    harness.run_campaign(config)
    assert calls == FINE_GRID_CALLS


def test_row_cores_are_catalog_entries():
    cores = {core for row in functionals._ROWS.values() for core in row.cores}
    assert cores <= set(functionals._THEOREMS), cores - set(functionals._THEOREMS)


def test_row_equations_and_scans_are_table_entries():
    """A row's radius equation is a ``radius._EQUATIONS`` entry, and its scan
    a catalog core, whose family is its entry's closed envelope (Thm31 and
    Thm32) or the core itself; the CLI lists them in this order."""
    rows = functionals._ROWS.values()
    equations = {row.equation for row in rows if row.equation}
    assert equations <= set(radius._EQUATIONS), equations - set(radius._EQUATIONS)
    scans = {row.scan for row in rows if row.scan}
    assert scans <= set(functionals._THEOREMS), scans - set(functionals._THEOREMS)
    assert [scan for scan in sorted(scans)
            if functionals._THEOREMS[scan].envelope is not None] == ["Thm31", "Thm32"]
    assert not hasattr(multidim, "_ENVELOPES")
    assert radius.RADIUS_IDS == ("ThmC34", "Thm31", "Thm32", "Cor43", "ClassicBohr",
                                 "Alternating")
    assert multidim.SCAN_IDS == ("Thm31", "Thm32", "Thm34", "Thm41", "Cor43")


def test_named_slices_are_extremal_families():
    named = multidim._NAMED_SLICES
    assert set(named) == set(multidim.SLICE_KINDS) - {"GeneralZG"}
    assert {family for family, _ in named.values()} <= set(schur.EXTREMAL_KINDS)


def test_series_exports_are_used(monkeypatch):
    """Each ``series`` export is used by another library module (a re-export
    in ``__init__`` does not count) or wrapped by a benchmark probe, so
    helpers that only tests use live in tests/support.py."""
    used = set()
    for path in (ROOT / "src" / "bohrcert").glob("*.py"):
        if path.name in ("series.py", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "series":
                used |= {alias.name for alias in node.names}
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in ("ps", "series")):
                used.add(node.attr)
    probed = {p.attr for p in _tracing(monkeypatch).LAYER_PROBES if p.module is series}
    assert [name for name in series.__all__ if name not in used | probed] == []


# the settle rules, which live in functionals next to the facts they rest on
SETTLE_RULES = ("_least", "_unsettled", "_bernstein_matrix", "_reduced_floor",
                "_reduced_least", "_SETTLE_SLACK", "_BERNSTEIN_DEGREE")


def _functionals_use(module):
    """The ``functionals`` names a library module reads, by ``from .functionals
    import`` or as attributes of its alias, and the names it defines."""
    tree = ast.parse((ROOT / "src" / "bohrcert" / f"{module}.py").read_text(encoding="utf-8"))
    aliases, read, defined = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functionals":
            read |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            aliases |= {alias.asname or alias.name for alias in node.names
                        if alias.name == "functionals"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            read.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
    return read, defined


def test_harness_reads_no_settle_rule():
    """``functionals.least_margin`` alone decides which cells hold a row's
    least margin: ``harness`` calls it and defines none of the settle rules
    itself."""
    read, defined = _functionals_use("harness")
    assert "least_margin" in read
    assert [name for name in SETTLE_RULES if name in defined or not hasattr(functionals, name)] == []


@pytest.mark.parametrize("module, private", [
    ("harness", ["_ROWS", "_THEOREMS"]),
    ("radius", ["_THEOREMS"]),
    ("multidim", ["_ROWS", "_THEOREMS", "_cut_length"]),
])
def test_private_functionals_names_each_module_reads(module, private):
    """Each module reaches a theorem's facts through the ``_ROWS`` and
    ``_THEOREMS`` records, whose methods apply its rules; no ``_check_*``
    helper leaves ``functionals``."""
    read, _ = _functionals_use(module)
    assert sorted(name for name in read if name.startswith("_")) == private


def _modules_after(code):
    """Top-level modules a fresh interpreter holds after running ``code``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    probe = code + "\nprint(' '.join(sorted({m.split('.')[0] for m in sys.modules})))"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=True, timeout=120)
    return set(done.stdout.split())


@pytest.mark.parametrize("code", [
    "import sys\nimport bohrcert, bohrcert.cli, bohrcert.harness",
    # python -m bohrcert --help, in the process that reports its modules
    "import runpy, sys\nsys.argv = ['bohrcert', '--help']\n"
    "try:\n    runpy.run_module('bohrcert', run_name='__main__')\n"
    "except SystemExit:\n    pass",
], ids=["import", "help"])
def test_import_loads_no_scipy(code):
    """scipy costs about a second and 75 MB to import, and only
    ``series.reciprocal`` uses it, so it is imported there, when called."""
    modules = _modules_after(code)
    assert "bohrcert" in modules and "numpy" in modules
    assert "scipy" not in modules


def test_reciprocal_still_divides_by_lfilter():
    from scipy.signal import lfilter

    coeffs = np.array([2.0, -1.0 + 0.5j, 0.25, 0.0, 0.1j, -0.3])
    impulse = np.zeros(coeffs.size, dtype=complex)
    impulse[0] = 1.0
    got = series.reciprocal(series.TruncatedSeries(coeffs)).coeffs
    assert np.array_equal(got, lfilter([1.0 + 0.0j], coeffs, impulse))
    assert np.allclose(np.convolve(coeffs, got)[:coeffs.size], np.eye(1, coeffs.size)[0])
