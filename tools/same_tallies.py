"""Count the session tallies that differ between this tree and another checkout.

Usage, from the root of a checkout:

    python3 tools/same_tallies.py OTHER_SRC [--sessions N] [--seed SEED]

OTHER_SRC is the `src` directory of the other checkout.  Each side runs in
its own subprocess, with its own `src` first on the path, and simulates N
sessions for every scheme, preset (4m, 1km) and sweep setting, each from
its own seed.  Durations cycle through 1-8 s at 4 m and 100-800 s at 1 km,
so a `haar` session spans one to five 256-row groups and the 1 km
sessions see accidentals.  The script prints how many tallies differ per
scheme and exits with 1 if any does: a change that claims to keep every
random draw must read 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SCHEMES = ("none", "flip_half", "haar")
PRESETS = {"4m": 1.0, "1km": 100.0}  # seconds per duration step


def emit(sessions: int, seed: int) -> None:
    """Print one JSON list of tallies per scheme (the child's side)."""
    import dataclasses

    import numpy as np

    from rfqkd.channel import sweep_settings
    from rfqkd.detection import NoiseConfig, simulate_session

    configs = {"4m": NoiseConfig.four_meter(), "1km": NoiseConfig.one_km()}
    for s, scheme in enumerate(SCHEMES):
        tallies = []
        for p, (preset, step) in enumerate(PRESETS.items()):
            for k, setting in enumerate(sweep_settings()):
                for i in range(sessions):
                    rng = np.random.default_rng(np.random.SeedSequence((seed, s, p, k, i)))
                    tally = simulate_session(configs[preset], setting, scheme,
                                             step * (1 + i % 8), rng)
                    tallies.append(dataclasses.astuple(tally))
        print(json.dumps([scheme, tallies]), flush=True)


def run_side(src: Path, sessions: int, seed: int) -> dict[str, list]:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, __file__, "--emit", str(src), "--sessions",
                          str(sessions), "--seed", str(seed)],
                         env=env, check=True, capture_output=True, text=True).stdout
    return dict(json.loads(line) for line in out.splitlines())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src", type=Path, help="the src directory of the other checkout")
    parser.add_argument("--sessions", type=int, default=200,
                        help="sessions per scheme, preset and setting (default 200)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        emit(args.sessions, args.seed)
        return 0
    here = run_side(SRC, args.sessions, args.seed)
    other = run_side(args.other_src.resolve(), args.sessions, args.seed)
    differing = 0
    for scheme in SCHEMES:
        n = sum(a != b for a, b in zip(here[scheme], other[scheme]))
        print(f"{scheme}: {n} of {len(here[scheme])} tallies differ")
        differing += n
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
