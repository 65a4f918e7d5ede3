"""Command line front end: sweep, single, keyrate and selftest subcommands.

Configuration is a JSON key-value file (see README for the schema); every
field can be omitted and individual flags override file values.  All
randomness is controlled by one seed, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from typing import NoReturn, Optional

import numpy as np

from .channel import SCHEMES
from .detection import NoiseConfig, simulate_session
from .harness import DEFAULT_SEED, ExperimentConfig, emit, from_json, run_sweep, selftest
from .protocol import TallyCounts
from .security import report


def _fail(message: str) -> NoReturn:
    """End the run on bad input with a one-line message and exit code 2."""
    print(f"rfqkd: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _load_config(args) -> ExperimentConfig:
    """The config file, the preset and the flags, merged and validated."""
    try:
        data = {}
        if args.config:
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
        cfg = ExperimentConfig.from_dict(data)
        updates = {}
        if args.preset:
            updates["noise"] = (
                NoiseConfig.one_km() if args.preset == "1km" else NoiseConfig.four_meter())
        if args.seed is not None:
            updates["seed"] = args.seed
        if args.scheme:
            updates["schemes"] = tuple(args.scheme)
        if args.duration_scale is not None:
            updates["duration_s"] = cfg.duration_s * args.duration_scale
        cfg = dataclasses.replace(cfg, **updates)
        cfg.validate()
    except (OSError, ValueError) as exc:  # json.JSONDecodeError included
        _fail(f"bad configuration: {exc}")
    return cfg


def _write(path: str, text: str, mode: str = "w") -> str:
    """Write text to path, or exit with code 2; mode "a" with no text checks
    the path before any run and keeps an existing file."""
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        _fail(f"cannot write output: {exc}")
    return path


def _print_rows(rows) -> None:
    header = "idx scheme     conclusive_hz  norm_coinc   qber      p_S     key_rate"
    print(header)
    for r in rows:
        print(
            f"{r.setting_index:>3} {r.scheme:<10} {r.conclusive_rate_hz:>12.4f} "
            f"{r.normalized_coincidence:>10.4f} {r.qber:>8.4f} {r.p_S:>8.4f} "
            f"{r.key_rate_fraction:>9.4f}"
        )


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    path = _write(args.out or "sweep_results." + args.format, "", "a")
    rows = run_sweep(cfg)
    _write(path, emit(rows, format=args.format, config=cfg))
    _print_rows(rows)
    print(f"wrote {path}")
    return 0


def _cmd_single(args) -> int:
    if args.scheme and len(args.scheme) > 1:
        _fail("single runs one session: give --scheme at most once")
    cfg = _load_config(args)
    if not 0 <= args.setting < len(cfg.settings):
        _fail(f"setting index {args.setting} out of range (0..{len(cfg.settings) - 1})")
    setting = cfg.settings[args.setting]
    scheme = cfg.schemes[0]
    path = _write(args.out or "session_tally.json", "", "a")
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    tally = simulate_session(cfg.noise, setting, scheme, cfg.duration_s, rng)
    payload = {"config": cfg.to_dict(), "setting_index": args.setting,
               "scheme": scheme, "tally": dataclasses.asdict(tally)}
    _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"setting {args.setting} scheme {scheme}: "
          f"{tally.conclusive} conclusive, {tally.sifted} sifted, {tally.errors} errors")
    _print_report(tally)
    print(f"wrote {path}")
    return 0


def _print_report(tally: TallyCounts) -> None:
    try:
        rep = report(tally)
    except ValueError as exc:
        print(f"security report unavailable: {exc}")
        return
    print(
        f"p_S = {rep.p_S:.4f}  e_x = {rep.e_x:.4f}  e_x_S <= {rep.e_x_S:.4f}  "
        f"key fraction = {rep.rate_fraction:.4f}  secret bits/s = {rep.secret_bits_per_s:.4f}"
    )


def _cmd_keyrate(args) -> int:
    try:
        with open(args.tally, encoding="utf-8") as fh:
            payload = json.load(fh)
        data = payload.get("tally", payload) if isinstance(payload, dict) else payload
        tally = from_json(TallyCounts, data, "tally")
    except (OSError, ValueError) as exc:  # json.JSONDecodeError included
        _fail(f"bad tally file {args.tally}: {exc}")
    _print_report(tally)
    return 0


def _cmd_selftest(args) -> int:
    if args.seed < 0:
        _fail(f"--seed must be nonnegative, got {args.seed}")
    return 0 if selftest(seed=args.seed) else 1


@functools.cache  # one parser per process; parse_args leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfqkd",
        description="Simulator for reference-frame-free entangled-photon QKD",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="master seed")
        p.add_argument("--preset", choices=("4m", "1km"),
                       help="noise preset overriding the config file")
        p.add_argument("--duration-scale", type=float, default=None,
                       help="multiply the configured per-setting duration")

    p_sweep = sub.add_parser("sweep", help="run the rotator sweep and emit a table")
    common(p_sweep)
    p_sweep.add_argument("--scheme", action="append", choices=SCHEMES,
                         help="compensation scheme(s); repeatable")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--out", help="output path (default sweep_results.<fmt>)")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_single = sub.add_parser("single", help="run one session and write its tally")
    common(p_single)
    p_single.add_argument("--scheme", action="append", choices=SCHEMES,
                          help="compensation scheme, at most once "
                               "(default: the first scheme of the config)")
    p_single.add_argument("--setting", type=int, default=0, help="sweep setting index")
    p_single.add_argument("--out", help="output path (default session_tally.json)")
    p_single.set_defaults(fn=_cmd_single)

    p_rate = sub.add_parser("keyrate", help="evaluate the key-rate bound on a tally file")
    p_rate.add_argument("tally", help="JSON tally file produced by `single`")
    p_rate.set_defaults(fn=_cmd_keyrate)

    p_self = sub.add_parser("selftest", help="run the invariant suites")
    p_self.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master seed")
    p_self.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
