"""Command-line entry point: ``python -m repro [experiment ...]``.

Runs the named experiments (default: all) and prints their tables.
``python -m repro --list`` shows what is available; ``--workers N``
fans independent experiments out over worker processes (output order
and content are identical to a serial run).

Subcommands short-circuit the experiment runner:
``python -m repro serve`` starts the rebalancing server,
``python -m repro router`` starts the cluster-tier coordinator,
``python -m repro loadgen`` drives either (see :mod:`repro.service.cli`),
and ``python -m repro reproduce`` regenerates and drift-checks every
result through the scenario catalog (see :mod:`repro.scenarios`).
"""

from __future__ import annotations

import argparse
import sys
import time

from . import telemetry
from .analysis.ablations import ALL_ABLATIONS
from .analysis.experiments import ALL_EXPERIMENTS
from .parallel import run_sweep

ALL_RUNNABLE = {**ALL_EXPERIMENTS, **ALL_ABLATIONS}

SERVICE_COMMANDS = ("serve", "loadgen", "router")


def _runnable_span() -> str:
    """Compact id summary for ``--help``, derived from the registry so
    it never goes stale: contiguous runs collapse and gaps show, as in
    ``"E1..E15, E17, A1..A3"``."""
    runs: list[list] = []  # [prefix, first, last]
    for key in ALL_RUNNABLE:
        prefix = key.rstrip("0123456789")
        number = int(key[len(prefix):])
        if runs and runs[-1][0] == prefix and runs[-1][2] + 1 == number:
            runs[-1][2] = number
        else:
            runs.append([prefix, number, number])
    return ", ".join(
        f"{prefix}{first}" if first == last
        else f"{prefix}{first}..{prefix}{last}"
        for prefix, first, last in runs
    )


def _run_one_experiment(payload: tuple[str, bool]) -> tuple:
    """Run one experiment; module-level so worker processes can run it.

    Telemetry is collected *inside* the payload (not via the sweep
    runner's merge) so per-experiment breakdowns survive fan-out.
    """
    key, profile = payload
    fn = ALL_RUNNABLE[key]
    start = time.perf_counter()
    if profile:
        with telemetry.collect() as collector:
            report = fn()
        tel = collector.as_dict()
    else:
        report = fn()
        tel = None
    return key, report, time.perf_counter() - start, tel


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "reproduce":
        from .scenarios.reproduce import main as reproduce_main

        return reproduce_main(argv[1:])
    if argv and argv[0] in SERVICE_COMMANDS:
        from .service.cli import loadgen_main, router_main, serve_main

        handler = {
            "serve": serve_main,
            "loadgen": loadgen_main,
            "router": router_main,
        }[argv[0]]
        return handler(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the load-rebalancing reproduction "
        "experiments.  Subcommands 'serve' and 'loadgen' run the "
        "rebalancing service, and 'reproduce' regenerates and "
        "drift-checks every result through the scenario catalog "
        "(each has its own --help).",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help=f"experiment ids ({_runnable_span()}); default: all",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiments and exit"
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="collect solver telemetry and print a per-phase timing "
        "table after each experiment",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="run the selected experiments across N worker processes "
        "(0 = one per CPU core); tables print in the order given, "
        "identical to a serial run",
    )
    args = parser.parse_args(argv)

    if args.list:
        for key, fn in ALL_RUNNABLE.items():
            doc = (fn.__doc__ or "").strip().splitlines()
            print(f"{key}: {doc[0] if doc else fn.__name__}")
        return 0

    chosen = args.experiments or list(ALL_RUNNABLE)
    unknown = [e for e in chosen if e.upper() not in ALL_RUNNABLE]
    if unknown:
        parser.error(f"unknown experiments {unknown}; try --list")

    workers = args.workers if args.workers > 0 else None
    payloads = [(key.upper(), args.profile) for key in chosen]
    for key, report, elapsed, tel in run_sweep(
        _run_one_experiment, payloads, workers=workers
    ):
        print(report.render())
        print(f"  ({elapsed:.2f}s)\n")
        if tel is not None:
            print(
                telemetry.render_table(
                    tel, title=f"telemetry — {key} per-phase breakdown"
                )
            )
            print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
