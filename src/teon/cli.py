"""Command-line front end: run / sweep / check / construct-maxgain.

All failures surface as a single `error: ...` line on stderr with exit
status 1; success output is key=value text on stdout. `sweep` also exits 1
when any of its runs failed, after printing `sweep.failed=N` and writing the
summary. `check` exits 1 when any check fails.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .checks import run_all_checks
from .config import parse_config
from .norms import build_max_gain_tensor, norm
from .runner import format_value, run, sweep

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="teon",
        description="Tensorized cross-layer orthogonalized optimizer harness.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured experiment")
    p_run.add_argument("--config", required=True, help="path to an INI run config")

    p_sweep = sub.add_parser("sweep", help="run every *.ini config in a directory")
    p_sweep.add_argument("--config-dir", required=True)
    p_sweep.add_argument(
        "--out", default=None, help="output directory (default: <config-dir>/sweep)"
    )

    p_check = sub.add_parser("check", help="run the library invariant battery")
    p_check.add_argument("--seed", type=int, default=0)

    p_mg = sub.add_parser(
        "construct-maxgain",
        help="build a rank-1 aligned stack and print its norm ratios",
    )
    p_mg.add_argument("--m", type=int, required=True)
    p_mg.add_argument("--n", type=int, required=True)
    p_mg.add_argument("--K", type=int, required=True)
    p_mg.add_argument("--mode", type=int, required=True, choices=(1, 2))
    p_mg.add_argument("--seed", type=int, default=0)
    return p


def _cmd_run(args) -> int:
    res = run(parse_config(args.config))
    print(f"run.metrics_path={res.metrics_path}")
    print(f"run.alignment_path={res.alignment_path}")
    for key, val in res.summary.items():
        print(f"summary.{key}={format_value(val)}")
    return 0


def _cmd_sweep(args) -> int:
    cfg_dir = Path(args.config_dir)
    paths = sorted(cfg_dir.glob("*.ini"))
    if not paths:
        raise ValueError(f"no *.ini configs under {cfg_dir}")
    configs = [parse_config(p) for p in paths]
    out = Path(args.out) if args.out else cfg_dir / "sweep"
    summary_path, rows = sweep(configs, out)
    print(f"sweep.summary_path={summary_path}")
    print(f"sweep.runs={len(rows)}")
    failed = sum(",failed," in row for row in rows)
    print(f"sweep.failed={failed}")
    return 1 if failed else 0


def _cmd_check(args) -> int:
    lines = run_all_checks(seed=args.seed)
    print("\n".join(lines))
    return 0 if lines[-1].startswith("check.summary=pass") else 1


def _cmd_maxgain(args) -> int:
    t = build_max_gain_tensor(args.m, args.n, args.K, args.mode, seed=args.seed)
    muon = norm(t)
    teon = norm(t, args.mode)
    print(f"maxgain.m={args.m}")
    print(f"maxgain.n={args.n}")
    print(f"maxgain.K={args.K}")
    print(f"maxgain.mode={args.mode}")
    print(f"maxgain.muon_norm={format_value(muon)}")
    print(f"maxgain.teon_norm={format_value(teon)}")
    print(f"maxgain.ratio={format_value(teon / muon)}")
    print(f"maxgain.sqrt_K={format_value(float(args.K) ** 0.5)}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "check": _cmd_check,
    "construct-maxgain": _cmd_maxgain,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, RuntimeError, FloatingPointError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
