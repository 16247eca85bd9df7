"""Command-line entry point: run, campaign, and validate subcommands."""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import List, Optional, Sequence

from .engine import RunSpec, run_and_write, run_campaign
from .errors import CdssError, ConfigurationError
from .scenario import (
    CASES,
    ScenarioConfig,
    default_scenario,
    load_scenario,
    serialize_scenario,
    validate_scenario,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _parse_int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ConfigurationError(f"{what} {token.strip()!r} is not an integer") from None


def _parse_seeds(text: str) -> List[int]:
    """Accept '3', '1,2,5', or '1..10' (inclusive range)."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo_i, hi_i = _parse_int(lo, "seed"), _parse_int(hi, "seed")
        if hi_i < lo_i:
            raise ConfigurationError(f"seed range {text!r} is empty")
        return list(range(lo_i, hi_i + 1))
    return [_parse_int(tok, "seed") for tok in text.split(",") if tok.strip()]


def _parse_cases(text: str) -> List[int]:
    return [_parse_int(tok, "case") for tok in text.split(",") if tok.strip()]


def _load(args: argparse.Namespace) -> ScenarioConfig:
    if args.scenario:
        cfg = load_scenario(args.scenario)
    else:
        cfg = default_scenario()
    if args.epoch_ms is not None:
        cfg = replace(cfg, sim=replace(cfg.sim, epoch_ms=args.epoch_ms))
        validate_scenario(cfg)
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdss-sim",
        description="Deterministic TN/NTN coordinated spectrum-sharing simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scenario", type=Path, default=None, help="scenario file")
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        p.add_argument("--epoch-ms", type=float, default=None, help="epoch length override")
        p.add_argument("--quiet", action="store_true", help="suppress the summary table")

    p_run = sub.add_parser("run", help="run a single case and seed")
    common(p_run)
    p_run.add_argument("--case", type=int, required=True, help="case id (1..4)")
    p_run.add_argument("--seed", type=int, default=1, help="master RNG seed")

    p_camp = sub.add_parser("campaign", help="run a cases x seeds grid")
    common(p_camp)
    p_camp.add_argument("--case", type=str, default="1,2,3,4", help="cases, e.g. 1,2,3,4")
    p_camp.add_argument("--seeds", type=str, default="1..10", help="seeds, e.g. 1..10")
    p_camp.add_argument("--jobs", type=int, default=1, help="parallel run processes")

    p_val = sub.add_parser("validate", help="parse and validate a scenario file")
    common(p_val)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    spec = RunSpec(_load(args), args.case, args.seed)
    started = time.perf_counter()
    store, files = run_and_write(spec, args.out)
    elapsed = time.perf_counter() - started
    if not args.quiet:
        tputs = store.throughputs_bps()
        zero = store.zero_throughput_ues()
        print(f"case {store.case_id} ({CASES[store.case_id].name}) seed {store.seed}")
        print(f"  runtime          {elapsed:8.2f} s")
        print(f"  total RX bytes   {store.total_rx_bytes():14.0f}")
        print(f"  TN / NTN share   {store.tn_share:6.3f} / {store.ntn_share:6.3f}")
        print(f"  zero-throughput  {zero} of {len(tputs)} UEs")
        print(f"  reports in       {args.out}")
        for name in sorted(files):
            print(f"    {name}: {files[name].name}")
    return EXIT_OK


def _cmd_campaign(args: argparse.Namespace) -> int:
    scenario = _load(args)
    cases = _parse_cases(args.case)
    seeds = _parse_seeds(args.seeds)
    started = time.perf_counter()
    result = run_campaign(scenario, cases, seeds, args.out, jobs=args.jobs)
    elapsed = time.perf_counter() - started
    failures = [r for r in result.records if not r.ok]
    if not args.quiet:
        print(f"{len(result.records)} runs in {elapsed:.1f} s -> {args.out}")
        header = (
            f"{'case':>4} {'runs':>4} {'mean RX bytes':>14} {'stderr':>12} "
            f"{'TN share':>9} {'NTN share':>9} {'zero-tput':>9}"
        )
        print(header)
        for cid in sorted(result.aggregates):
            a = result.aggregates[cid]
            if a.get("runs", 0) == 0:
                print(f"{cid:>4} {0:>4} {'-':>14}")
                continue
            print(
                f"{cid:>4} {int(a['runs']):>4} {a['mean_total_rx_bytes']:>14.0f} "
                f"{a['stderr_total_rx_bytes']:>12.1f} {a['mean_tn_share']:>9.3f} "
                f"{a['mean_ntn_share']:>9.3f} {a['zero_throughput_fraction']:>9.3f}"
            )
        for rec in failures:
            print(f"FAILED case {rec.case_id} seed {rec.seed}: {rec.error}")
    return EXIT_RUNTIME if failures else EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    scenario = _load(args)
    if not args.quiet:
        print("scenario OK")
        print(serialize_scenario(scenario), end="")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "campaign":
            return _cmd_campaign(args)
        return _cmd_validate(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - the CLI never prints a raw traceback
        what = exc if isinstance(exc, CdssError) else f"{type(exc).__name__}: {exc}"
        print(f"runtime error: {what}", file=sys.stderr)
        return EXIT_RUNTIME


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
