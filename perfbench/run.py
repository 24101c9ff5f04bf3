"""bohrcert benchmark: run one workload, check its outputs, print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {fine_grid,scan_table} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics: set-up time (median of
several fresh interpreters), then untraced passes of the workload until
``--seconds`` have passed (at least three: the campaign reports of one
run are compared byte for byte, and a median of three resists one slow
pass).  The only wrappers in these passes time the ops for
``op_p50_ms``/``op_p95_ms``: each ``multidim.sharpness_scan`` call of
scan_table, and each margin-core call (``functionals.theorem_margins``,
``multidim.lemma21_margins``) of the campaign, which certifies one batch
of cells.

``--trace 1`` alternates untraced and traced passes for ``--seconds``.
Traced passes record a span around every call into the public functions
of ``schur``, ``series``, ``functionals``, ``multidim``, ``radius`` and
``harness``; the per-layer metrics are medians over the traced passes, and
``trace.overhead_frac`` compares traced with untraced wall times.

Metric names and units come from BENCHMARK.json at the checkout root.
Stderr gets a human-readable summary and the run's provenance; the spans,
pass timings and provenance go to ``perfbench/out/``.  The last stdout line
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import bootstrap

bootstrap.use_checkout_sources()

import tracing  # noqa: E402  (needs the checkout's src/ on sys.path)
import workloads  # noqa: E402

SETUP_REPEATS = 5
MIN_PASSES = 3
SETUP_TIMEOUT_S = 120
OUT_DIR = Path(__file__).resolve().parent / "out"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its validated inputs."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, str(probe), workload, str(seed)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1]) - start


def git_revision(root: Path) -> str:
    """HEAD of the checkout's own .git, without looking above the checkout."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    import ctypes
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                return int(getter())
    return None


def provenance(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_revision": git_revision(bootstrap.ROOT),
    }


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(bootstrap.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def run_passes(workload, seconds: float, traced_every: int):
    """Passes until ``seconds`` are spent (at least MIN_PASSES); every
    ``traced_every``-th pass (0: none) runs under the layer tracer."""
    passes = []
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
        traced = traced_every > 0 and len(passes) % traced_every == traced_every - 1
        probes = tracing.LAYER_PROBES if traced else workload.op_probes
        with tracing.Tracer(probes) as tracer:
            result = workload.run_pass()
        passes.append((traced, result, tracer.spans))
    return passes


def end_to_end(args, passes) -> dict:
    walls = [r.wall_s for _, r, _ in passes]
    rates = [(r.attempted - r.failed) / r.wall_s for _, r, _ in passes]
    # Every pass makes the same ops in the same order.  An op's latency is
    # its median over the passes, which drops per-call jitter; the
    # percentiles run over the distinct ops that completed.
    per_op = zip(*(tracing.op_latencies(spans) for _, _, spans in passes), strict=True)
    latencies = [statistics.median(ts) for ts in per_op if None not in ts]
    setup = [measure_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    return {
        "wall_s": statistics.median(walls),
        "ops_per_s": statistics.median(rates),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p95_ms": 1e3 * statistics.quantiles(latencies, n=20, method="inclusive")[18],
    }


def per_layer(passes) -> dict:
    traced = [tracing.layer_metrics(spans) for is_traced, _, spans in passes if is_traced]
    metrics = {name: statistics.median(m[name] for m in traced) for name in traced[0]}
    traced_wall = statistics.median(r.wall_s for t, r, _ in passes if t)
    plain_wall = statistics.median(r.wall_s for t, r, _ in passes if not t)
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    metrics["ops_failed_frac"] = (sum(r.failed for _, r, _ in passes)
                                  / sum(r.attempted for _, r, _ in passes))
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    units = declared_units(args.trace)
    info = provenance(args)
    print(json.dumps({"provenance": info}), file=sys.stderr)

    workload = workloads.load(args.workload, args.seed)
    workload.warm_up()
    passes = run_passes(workload, args.seconds, traced_every=2 if args.trace else 0)
    problems = workload.check([r.output for _, r, _ in passes])

    attempted = sum(r.attempted for _, r, _ in passes)
    failed = sum(r.failed for _, r, _ in passes)
    values = per_layer(passes) if args.trace else end_to_end(args, passes)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")

    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({
            "provenance": info,
            "problems": problems,
            "passes": [{"traced": t, "wall_s": r.wall_s, "attempted": r.attempted,
                        "failed": r.failed} for t, r, _ in passes],
            "metrics": values,
            "spans": [spans for t, _, spans in passes if t],
        }, fh)

    for problem in problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed={args.seed}: {len(passes)} passes, "
          f"{failed}/{attempted} ops failed, "
          f"{'correct' if not problems else f'{len(problems)} problems'}", file=sys.stderr)
    for name, value in values.items():
        print(f"  {name:<32} {value:.6g} {units[name]}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
