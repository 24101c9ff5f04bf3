"""Command-line interface.

Subcommands:

  radius     solve one sharp-radius equation
  verify     run a certification campaign from a config file or flags
  sharpness  max of an extremal family's left side at a radius
  table      radii over the (p, m) triangle for one equation

Exit codes: 0 on success/pass, 1 when a verification fails, 2 on usage
errors.  Progress and diagnostics go to stderr; results go to stdout or
the requested output file.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import List, Optional

from . import harness, multidim, radius
from .errors import BohrcertError, ParameterOutOfRange
from .functionals import _ROWS

_PROG = "bohrcert"
MAX_TABLE_P = 64  # the table solves O(p_max^2) radii
# the radius equations that vary over (p, m): those of the rows whose
# radius does not depend on the function
_TABLE_IDS = tuple(dict.fromkeys(
    row.equation for row in _ROWS.values() if row.equation and not row.per_function))


def _parse_t(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity", "oo"):
        return math.inf
    try:
        return float(text)
    except ValueError:
        raise ParameterOutOfRange(f"--t takes numbers or inf, got {text!r}") from None


def _parse_shape(text: str):
    try:
        m, p = (int(x) for x in text.split(":"))
    except ValueError:
        raise ParameterOutOfRange(f"--shapes takes m:p pairs, got {text!r}") from None
    return m, p


def _radius_spec_from_args(args) -> radius.RadiusSpec:
    extras = {k: v for k, v in (("a0", args.a0), ("s", args.s)) if v is not None}
    if args.theorem == "Thm31" and len(extras) < 2:
        raise BohrcertError("Thm31 needs --a0 and --s")
    if args.theorem != "Thm31" and extras:
        raise ParameterOutOfRange(f"--a0 and --s apply to Thm31 only, not {args.theorem}")
    return radius.RadiusSpec(args.theorem, args.p, args.m, extras)


def _cmd_radius(args) -> int:
    spec = _radius_spec_from_args(args)
    r = radius.solve_radius(spec, tol=args.tol)
    print(f"{r:.15g}")
    return 0


def _cmd_sharpness(args) -> int:
    if args.s is not None and args.theorem != "Thm31":
        raise ParameterOutOfRange(f"--s applies to the Thm31 scan only, not {args.theorem}")
    grid = multidim.default_scan_grid(args.a_steps)
    val = multidim.sharpness_scan(args.theorem, args.p, args.m, args.r, grid, s=args.s)
    print(f"{val:.15g}")
    return 0


def _cmd_table(args) -> int:
    if not 1 <= args.p_max <= MAX_TABLE_P:
        raise ParameterOutOfRange(f"--p-max must lie in [1, {MAX_TABLE_P}], got {args.p_max}")
    if args.format == "csv":
        lines, row = ["p,m,radius,radius_closed_form"], "{},{},{:.15g},{}"
    else:
        lines = [f"{'p':>3} {'m':>3} {'radius':>20} {'closed form':>20}"]
        row = "{:>3} {:>3} {:>20.15g} {:>20}"
    for p in range(1, args.p_max + 1):
        for m in range(0, p + 1):
            spec = radius.RadiusSpec(args.theorem, p, m)
            closed = radius.closed_form_radius(spec)
            lines.append(row.format(p, m, radius.solve_radius(spec),
                                    "" if closed is None else f"{closed:.15g}"))
    print("\n".join(lines))
    return 0


# verify's campaign flags, by argparse dest: the config key each sets, and
# how its text is read where argparse's type does not read it
_VERIFY_KEYS = {
    "theorems": ("theorems", lambda text: tuple(x for x in text.split(",") if x)),
    "shapes": ("shapes", lambda text: tuple(_parse_shape(x) for x in text.split(","))),
    "t": ("t_values", lambda text: tuple(_parse_t(x) for x in text.split(","))),
    **{key: (key, None) for key in ("samples", "seed", "depth", "r_start", "r_stop",
                                    "r_step", "tol", "output", "format")},
}


def _check_values(args) -> None:
    """Refuse a flag that argparse read as a list: it reads ``--flag=--`` as []."""
    for dest, value in vars(args).items():
        if isinstance(value, list):
            raise ParameterOutOfRange(f"--{dest.replace('_', '-')} needs a value")


def _config_from_args(args) -> harness.CampaignConfig:
    given = [dest for dest in _VERIFY_KEYS if getattr(args, dest) is not None]
    if args.config:
        if given:
            flags = ", ".join("--" + dest.replace("_", "-") for dest in given)
            raise ParameterOutOfRange(f"--config takes no other verify flag, got {flags}")
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ParameterOutOfRange(f"config file is not UTF-8: {exc}") from None
        return harness.config_from_json(text)
    kwargs = {}
    for dest in given:
        key, parse = _VERIFY_KEYS[dest]
        kwargs[key] = getattr(args, dest) if parse is None else parse(getattr(args, dest))
    if not kwargs.get("theorems"):
        raise BohrcertError("verify needs --config or --theorems")
    return harness.CampaignConfig(**kwargs)


def _print_row(row: harness.ReportRow) -> None:
    status = "ok " if row.passed else "FAIL"
    rad_txt = "-" if row.radius is None else f"{row.radius:.8f}"
    marg_txt = "-" if row.min_margin is None else f"{row.min_margin:.3e}"
    t_txt = "" if row.t is None else f", t={row.t:g}"
    print(
        f"[{status}] {row.theorem:<14} (m={row.m}, p={row.p}{t_txt})"
        f" radius={rad_txt} min_margin={marg_txt}",
        file=sys.stderr,
    )


def _check_output(path: str) -> None:
    """Refuse, before a campaign runs, a report path that could not be written."""
    folder = os.path.dirname(path) or "."
    if path != "-" and (os.path.isdir(path) or not os.access(folder, os.W_OK)):
        raise ParameterOutOfRange(f"cannot write a report to {path!r}: its directory is "
                                  "missing or not writable, or it is a directory")


def _cmd_verify(args) -> int:
    config = _config_from_args(args)
    _check_output(config.output)
    report = harness.run_campaign(config, on_row=_print_row)
    harness.emit_report(report, config.format, config.output)
    if config.output != "-":
        print(f"report written to {config.output}", file=sys.stderr)
    return 0 if report.all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=_PROG,
        description="Certify coefficient inequalities for bounded analytic functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rad = sub.add_parser("radius", help="solve one sharp-radius equation")
    p_rad.add_argument("--theorem", required=True, choices=radius.RADIUS_IDS)
    p_rad.add_argument("--p", type=int, default=1)
    p_rad.add_argument("--m", type=int, default=0)
    p_rad.add_argument("--a0", type=float, default=None)
    p_rad.add_argument("--s", type=float, default=None)
    p_rad.add_argument("--tol", type=float, default=1e-12)
    p_rad.set_defaults(func=_cmd_radius)

    p_ver = sub.add_parser("verify", help="run a certification campaign")
    p_ver.add_argument("--config", default=None, help="flat key-value JSON file")
    p_ver.add_argument("--theorems", default=None, help="comma-separated ids")
    p_ver.add_argument("--shapes", default=None, help="m:p pairs, comma-separated")
    p_ver.add_argument("--t", default=None, help="norm indices, e.g. 1,2,inf")
    p_ver.add_argument("--samples", type=int, default=None)
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--depth", type=int, default=None)
    p_ver.add_argument("--r-start", dest="r_start", type=float, default=None)
    p_ver.add_argument("--r-stop", dest="r_stop", type=float, default=None)
    p_ver.add_argument("--r-step", dest="r_step", type=float, default=None)
    p_ver.add_argument("--tol", type=float, default=None)
    p_ver.add_argument("--output", default=None, help="file path, or - for stdout")
    p_ver.add_argument("--format", choices=("json", "csv"), default=None)
    p_ver.set_defaults(func=_cmd_verify)

    p_sh = sub.add_parser("sharpness", help="max extremal left side at a radius")
    p_sh.add_argument("--theorem", required=True, choices=multidim.SCAN_IDS)
    p_sh.add_argument("--p", type=int, default=1)
    p_sh.add_argument("--m", type=int, default=0)
    p_sh.add_argument("--r", type=float, required=True)
    p_sh.add_argument("--a-steps", dest="a_steps", type=int, default=256)
    p_sh.add_argument("--s", type=float, default=None)
    p_sh.set_defaults(func=_cmd_sharpness)

    p_tab = sub.add_parser("table", help="radius table over the (p, m) triangle")
    p_tab.add_argument("--theorem", required=True, choices=_TABLE_IDS)
    p_tab.add_argument("--p-max", dest="p_max", type=int, default=4)
    p_tab.add_argument("--format", choices=("text", "csv"), default="text")
    p_tab.set_defaults(func=_cmd_table)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_values(args)
        return args.func(args)
    except BohrcertError as exc:
        print(f"{_PROG}: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"{_PROG}: io error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a size too large to allocate is a usage error too
        print(f"{_PROG}: error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
