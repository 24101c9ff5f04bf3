"""Write the committed reference outputs of the campaign workloads.

Usage: python3 perfbench/make_expected.py [WORKLOAD ...]

Runs each campaign once per seed slot and writes ``expected/<name>.json``:
the rows' seed-independent fields (labels, sizes, verdict, radii, scan
maximum) once, and each slot's min margins.  Rerun only when a change is
meant to move these values; the benchmark compares against them to 1e-9.
"""

import json
import sys

import bootstrap

bootstrap.use_checkout_sources()

from bohrcert import harness  # noqa: E402
import workloads  # noqa: E402


def expected_for(name: str) -> str:
    rows, margins = None, []
    for slot in range(workloads.SEED_SLOTS):
        config = workloads.campaign_config(name, slot)
        got = json.loads(harness.report_to_json(harness.run_campaign(config)))
        shared = [{key: row[key] for key in workloads.EXPECTED_ROW_KEYS} for row in got]
        if rows is None:
            rows = shared
        elif shared != rows:
            raise RuntimeError(f"{name}: slot {slot} changed a seed-independent field")
        margins.append([row["min_margin"] for row in got])
        print(f"{name}: slot {slot} done", file=sys.stderr)
    lines = [
        "{",
        f'"workload": {json.dumps(name)},',
        f'"base_seed": {workloads.CAMPAIGNS[name][0]},',
        f'"seed_slots": {workloads.SEED_SLOTS},',
        '"rows": [',
        ",\n".join(json.dumps(row) for row in rows),
        "],",
        '"min_margin": [',
        ",\n".join(json.dumps(slot) for slot in margins),
        "]",
        "}",
    ]
    return "\n".join(lines) + "\n"


def main(names) -> None:
    workloads.EXPECTED_DIR.mkdir(exist_ok=True)
    for name in names or list(workloads.CAMPAIGNS):
        text = expected_for(name)
        (workloads.EXPECTED_DIR / f"{name}.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
