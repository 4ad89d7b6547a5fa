"""Command-line front end.

Subcommands::

    riccati          print the value-recursion matrices for a plant
    run              one closed-loop run from a single initial state
    sweep            closed-loop runs over a whole initial set
    horizon-table    certified degrees as the horizon grows
    reproduce-paper  run the bundled reference checks

Exit codes: 0 on success (for ``run``: the loop converged; for
``reproduce-paper``: every check passed), 2 for configuration errors,
3 for solver failures, 4 when a run or check ends uncertified.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from datetime import datetime, timezone

from .certify import certificates_to_csv
from .engine import VARIANTS, AlgorithmConfig, run_closed_loop
from .errors import ConfigError, MpcCertError, SolverError
from .model import load_plant
from .refchecks import format_results, reference_checks
from .riccati import LqLadderSolver, RiccatiLadder
from .sweep import (
    horizon_comparison,
    horizon_csv,
    parse_initial_set,
    sweep,
    write_horizon_csv,
    write_sweep_csv,
)


def _parse_list(text: str, option: str, kind=int) -> list:
    """The comma list ``text`` of the option ``--option``, each entry an ``int`` or a ``float`` (``kind``)."""
    try:
        return [kind(tok) for tok in text.split(",")]
    except ValueError:
        noun = "numbers" if kind is float else "integers"
        raise ConfigError(f"invalid --{option} value {text!r}, expected comma-separated {noun}") from None


def _check_workers(args) -> None:
    # Sweeps run as one in-process batch; the option stays for
    # compatibility with existing command lines.
    if args.workers < 1:
        raise ConfigError(f"workers must be positive, got {args.workers}")


def _ensure_out(args) -> str | None:
    if args.out is None:
        return None
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_summary(path: str, entries: dict, with_timestamp: bool) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if with_timestamp:
            fh.write(f"timestamp = {datetime.now(timezone.utc).isoformat()}\n")
        for key, value in entries.items():
            fh.write(f"{key} = {_format_value(value)}\n")


def _print_summary(entries: dict) -> None:
    for key, value in entries.items():
        print(f"{key} = {_format_value(value)}")


def cmd_riccati(args) -> int:
    lq = load_plant(args.plant)
    ladder = RiccatiLadder(lq, args.horizon)
    for j, mat in enumerate(ladder.matrices(), start=1):
        print(f"P_{j} =")
        for row in mat:
            print("  " + "  ".join(f"{v:.12g}" for v in row))
    out = _ensure_out(args)
    if out is not None:
        n = lq.state_dim
        header = ["j"] + [f"p{r + 1}{c + 1}" for r in range(n) for c in range(n)]
        with open(os.path.join(out, "riccati.csv"), "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for j, mat in enumerate(ladder.matrices(), start=1):
                flat = ",".join(f"{v:.17g}" for v in mat.ravel())
                fh.write(f"{j},{flat}\n")
    return 0


def _make_config(args) -> AlgorithmConfig:
    forced = _parse_list(args.forced_m, "forced-m") if args.forced_m else None
    return AlgorithmConfig(
        variant=args.variant,
        horizon=args.horizon,
        alpha_bar=args.alpha_bar,
        max_iterations=args.max_iterations,
        forced_m=forced[0] if forced and len(forced) == 1 else forced,
    )


def cmd_run(args) -> int:
    lq = load_plant(args.plant)
    config = _make_config(args)
    solver = LqLadderSolver(lq, config.horizon)
    trace = run_closed_loop(solver, _parse_list(args.x0, "x0", float), config)

    entries = {"x0": args.x0, **trace.summary()}
    _print_summary(entries)
    out = _ensure_out(args)
    if out is not None:
        certificates_to_csv(
            trace.certificates, trace.slack.values, os.path.join(out, "certificates.csv")
        )
        _write_summary(os.path.join(out, "summary.txt"), entries, not args.no_timestamp)
    return 0 if trace.status == "converged" else 4


def cmd_sweep(args) -> int:
    lq = load_plant(args.plant)
    config = _make_config(args)
    solver = LqLadderSolver(lq, config.horizon)
    initial_set = parse_initial_set(args.set)
    _check_workers(args)
    report = sweep(solver, initial_set, config)

    entries = {
        "set": report.set_name,
        "variant": config.variant,
        "horizon": config.horizon,
        "alpha_bar": config.alpha_bar,
        **report.aggregates(),
        "failure_indices": ",".join(str(i) for i in report.failure_indices()),
        "warned_indices": ",".join(str(i) for i in report.warned_indices()),
    }
    _print_summary(entries)
    out = _ensure_out(args)
    if out is not None:
        write_sweep_csv(report, os.path.join(out, "sweep_points.csv"))
        _write_summary(os.path.join(out, "summary.txt"), entries, not args.no_timestamp)
    return 3 if set(report.runs.status) == {"error"} else 0


def cmd_horizon_table(args) -> int:
    lq = load_plant(args.plant)
    initial_set = parse_initial_set(args.set)
    horizons = _parse_list(args.horizons, "horizons")
    _check_workers(args)
    rows = horizon_comparison(lq, initial_set, horizons, alpha_bar=args.alpha_bar)
    print(horizon_csv(rows), end="")
    out = _ensure_out(args)
    if out is not None:
        write_horizon_csv(rows, os.path.join(out, "horizon_table.csv"))
    return 0


def cmd_reproduce(args) -> int:
    _check_workers(args)
    results = reference_checks()
    text = format_results(results)
    print(text)
    out = _ensure_out(args)
    if out is not None:
        with open(os.path.join(out, "reference_checks.txt"), "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0 if all(r.passed for r in results) else 4


# Built once per process: parse_args does not change the parser.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpccert",
        description="Receding-horizon control with runtime certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, plant=True):
        if plant:
            p.add_argument("--plant", required=True, help="plant description file")
        p.add_argument("--out", default=None, help="directory for CSV/summary output")
        p.add_argument(
            "--no-timestamp",
            action="store_true",
            help="omit the timestamp line from summary files",
        )

    def add_run_options(p):
        p.add_argument("--variant", required=True, choices=VARIANTS)
        p.add_argument("--horizon", required=True, type=int, help="planning horizon N")
        p.add_argument("--alpha-bar", required=True, type=float, help="required degree in [0, 1]")
        p.add_argument("--max-iterations", type=int, default=1000)
        p.add_argument(
            "--forced-m",
            default=None,
            help="fix the applied steps per iteration (int or comma list)",
        )

    def add_workers(p):
        p.add_argument(
            "--workers",
            type=int,
            default=1,
            help="accepted for compatibility (must be positive); sweeps run as one in-process batch",
        )

    p = sub.add_parser("riccati", help="print the value-recursion matrices")
    add_common(p)
    p.add_argument("--horizon", required=True, type=int)
    p.set_defaults(func=cmd_riccati)

    p = sub.add_parser("run", help="one closed-loop run")
    add_common(p)
    add_run_options(p)
    p.add_argument("--x0", required=True, help="initial state, comma separated")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="closed-loop runs over an initial set")
    add_common(p)
    add_run_options(p)
    p.add_argument("--set", required=True, help="initial set, e.g. unit-circle:128")
    add_workers(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("horizon-table", help="certified degrees per horizon")
    add_common(p)
    p.add_argument("--set", required=True, help="initial set, e.g. unit-circle:128")
    p.add_argument("--horizons", required=True, help="comma list, e.g. 2,3,4,5,10,20")
    p.add_argument("--alpha-bar", required=True, type=float)
    add_workers(p)
    p.set_defaults(func=cmd_horizon_table)

    p = sub.add_parser("reproduce-paper", help="run the bundled reference checks")
    add_common(p, plant=False)
    add_workers(p)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except MpcCertError as exc:
        print(f"certificate error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
