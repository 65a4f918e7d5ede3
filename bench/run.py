"""rfqkd benchmark: end-to-end and per-layer metrics for three workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload haar-rounds --seed 1 --seconds 30 --trace 0

Workloads: haar-rounds, fixed-sweep, selftest (see workloads.py).  One
process, one closed-loop client: each pass starts when the previous one
ends.  Every pass's output is checked (checks.py).

--trace 0 times untraced passes and reports the end-to-end metrics.
--trace 1 alternates untraced and traced cycles of the same passes and
reports the per-layer metrics of tracer.py, per pass.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Lines before it, starting with '#', give
the machine, every metric with its unit and the extra figures named in
README.md; the full record goes to .bench_run/<workload>-trace<n>.json and
the spans of a traced run's first traced cycle to
.bench_run/<workload>.spans.csv.
"""

from __future__ import annotations

import os

# Keep BLAS single-threaded (nproc is 2 on the reference machine): set before
# numpy is imported here and inherited by the set-up probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from calibration import SpeedScale, scale_elsewhere  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

SETUP_REPEATS = 7  # timed fresh interpreters per run, after one untimed that warms caches
SUITES = ("delta_norm", "expansion", "dfs_preservation", "haar_mean", "dephasing",
          "oracle_agreement")

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s.p50", "s"),
    ("pass_s.tail", "s"),
    ("pairs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every metric a traced run reports."""
    from tracer import TARGETS

    names = []
    for target in TARGETS:
        names += [(f"{target}.calls", "count"), (f"{target}.self_s", "s")]
    names += [("hilbert.PairState.inits", "count"), ("hilbert.PairState.init_self_s", "s")]
    names += [(f"harness.suite_{s}.self_s", "s") for s in SUITES]
    names += [
        ("protocol.pipeline_evals_per_pair", "count/pair"),
        ("hilbert.states_per_pair", "count/pair"),
        ("protocol.measure.conclusive_frac", "ratio"),
        ("detection.sifted_per_pair", "count/pair"),
        ("emit.nonfinite_values", "count"),
        ("trace.overhead_frac", "ratio"),
        ("trace.span_coverage_frac", "ratio"),
    ]
    return names


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _blas_threads() -> int | str:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import ctypes
    import glob

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


class Ledger:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, fails: list[str]) -> None:
        self.attempted += 1
        if fails:
            self.failed += 1
            self.messages += fails[: max(0, 20 - len(self.messages))]


def run_pass(wl, p, ledger: Ledger, scale: SpeedScale | None = None) -> None:
    """Run one pass (timed by `scale` when given), then check its output."""
    try:
        out = scale.measure(wl.run, p) if scale is not None else wl.run(p)
    except Exception as exc:  # a failing pass is counted, and the run goes on
        ledger.record([f"{p.label}: {type(exc).__name__}: {exc}"])
        return
    try:
        fails = wl.check(p, out)
    except Exception as exc:
        fails = [f"{p.label}: check raised {type(exc).__name__}: {exc}"]
    ledger.record(fails)


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """(scaled, raw) set-up times of SETUP_REPEATS fresh interpreters."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)]
    subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=60, check=True)  # warm caches
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        seconds, unit = map(float, done.stdout.split()[-2:])
        raw.append(seconds)
        scaled.append(scale_elsewhere(seconds, unit))
    return scaled, raw


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten passes above it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_untraced(wl, seed: int, seconds: float, ledger: Ledger) -> tuple[dict, dict]:
    setup, setup_raw = measure_setup(wl.name, seed)
    run_pass(wl, wl.make_pass(0), ledger)  # warm-up: checked, not timed
    scale = SpeedScale()
    deadline = time.perf_counter() + seconds
    i = 1
    while True:
        run_pass(wl, wl.make_pass(i), ledger, scale)
        i += 1
        if time.perf_counter() >= deadline:
            break
    times = scale.scaled
    tail_s, tail_pct = tail(times)
    p50 = statistics.median(times)
    # every pass of one input cycle, so presets with different pair counts weigh equally
    pairs_per_pass = statistics.fmean(wl.make_pass(j).pairs for j in range(wl.cycle))
    metrics = {
        "setup_s": statistics.median(setup),
        "pass_s.p50": p50,
        "pass_s.tail": tail_s,
        "pairs_per_s": pairs_per_pass / p50,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "passes": len(times),
        "pass_s.tail_percentile": tail_pct,
        "raw.setup_s": statistics.median(setup_raw),
        "raw.pass_s.p50": statistics.median(scale.raw),
        "raw.pass_s.tail": tail(scale.raw)[0],
        "setup_s.samples": setup,
        "pass_s.samples": times,
        "raw.setup_s.samples": setup_raw,
        "raw.pass_s.samples": scale.raw,
        "wall.pass_s.samples": scale.wall,
    }
    return metrics, extra


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def run_cycle(wl, ledger: Ledger, scale: SpeedScale, tracer=None) -> tuple[float, float, list]:
    """Passes 0..cycle-1 (the same inputs every cycle).

    Returns (scaled seconds, wall seconds, passes) summed over the cycle.
    """
    from rfqkd import harness

    marks: list[int] = []
    if tracer is not None and hasattr(wl, "on_line"):
        wl.on_line = lambda line: marks.append(time.perf_counter_ns())
    first_sample, passes = len(scale.scaled), []
    try:
        for j in range(wl.cycle):
            p = wl.make_pass(j)
            first = tracer.span_count() if tracer is not None else 0
            run_pass(wl, p, ledger, scale)
            passes.append(p)
            if marks:
                # selftest reaches its suites through the SELFTEST_SUITES tuple, which
                # the patch cannot reach; its `out` line after each suite bounds them
                bounds = [tracer.span_start[first]] + marks
                names = [f"harness.suite_{name}" for name, _ in harness.SELFTEST_SUITES]
                tracer.split_span(first, list(zip(names, bounds[:-1], bounds[1:])))
                marks.clear()
    finally:
        if hasattr(wl, "on_line"):
            wl.on_line = None
    return sum(scale.scaled[first_sample:]), sum(scale.wall[first_sample:]), passes


def cycle_stats(tracer, summary: dict, passes: list, wall_s: float, factor: float) -> dict:
    """Per-pass figures of one traced cycle.  Self times are scaled by
    `factor`, the cycle's scaled over wall time, to the reference host speed;
    this also takes out the speed samples' share, which lands in whichever
    span they interrupt."""
    import checks
    from tracer import PAIRSTATE_INIT

    calls = summary["calls"]
    self_ns = {name: ns * factor for name, ns in summary["self_ns"].items()}
    k = len(passes)
    detected = sum(p.detected_pairs for p in passes)

    def per_pair(count: float) -> float:
        return count / detected if detected else 0.0

    outcomes = tracer.results["protocol.measure"]
    tallies = tracer.results["detection.simulate_session"]
    nonfinite = bare_nan = 0
    for text in tracer.results["harness.emit"]:
        fmt = "json" if text.lstrip()[:1] in ("{", "[") else "csv"
        n, bare = checks.count_nonfinite(text, fmt)
        nonfinite += n
        bare_nan += bare
    stats = {name: 0.0 for name, _ in per_layer_metrics()}
    for name in tracer.names:
        if name.startswith("harness.suite_"):
            stats[f"{name}.self_s"] = self_ns[name] / k / 1e9
        elif name == PAIRSTATE_INIT:
            stats["hilbert.PairState.inits"] = calls[name] / k
            stats["hilbert.PairState.init_self_s"] = self_ns[name] / k / 1e9
        else:
            stats[f"{name}.calls"] = calls[name] / k
            stats[f"{name}.self_s"] = self_ns[name] / k / 1e9
    stats.update({
        "protocol.pipeline_evals_per_pair": per_pair(calls["protocol.bob_pipeline"]),
        "hilbert.states_per_pair": per_pair(calls[PAIRSTATE_INIT]),
        "protocol.measure.conclusive_frac": (
            sum(o.conclusive for o in outcomes) / len(outcomes) if outcomes else 0.0),
        "detection.sifted_per_pair": per_pair(sum(t.sifted for t in tallies)),
        "emit.nonfinite_values": nonfinite / k,
        "emit.json_bare_nan_tokens": bare_nan / k,
        "trace.span_coverage_frac": summary["root_ns"] / 1e9 / wall_s,
        "detected_pairs_per_pass": detected / k,
    })
    for values in tracer.results.values():
        values.clear()
    return stats


def run_traced(wl, seconds: float, ledger: Ledger) -> tuple[dict, dict]:
    from rfqkd import harness
    from tracer import Tracer, escaping_bindings

    suites = tuple(name for name, _ in harness.SELFTEST_SUITES)
    if suites != SUITES:
        raise SystemExit(f"selftest suites changed: {suites}; update SUITES and BENCHMARK.json")
    tracer = Tracer()
    run_pass(wl, wl.make_pass(0), ledger)  # warm-up: checked, not timed
    scale = SpeedScale()
    untraced, traced, cycles = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        t_iter = time.perf_counter()
        untraced.append(run_cycle(wl, ledger, scale)[0])
        first = tracer.span_count()
        tracer.install()
        try:
            traced_s, wall_s, passes = run_cycle(wl, ledger, scale, tracer)
        finally:
            tracer.uninstall()
        traced.append(traced_s)
        summary = tracer.summarize(first, tracer.span_count())
        stats = cycle_stats(tracer, summary, passes, wall_s, traced_s / wall_s)
        fails = wl.check_counts(summary["calls"], len(passes))
        if cycles and summary["calls"] != cycles[0]["calls"]:
            fails.append("span counts differ between traced cycles of the same inputs")
        ledger.record(fails)
        cycles.append({"calls": summary["calls"], "stats": stats})
        if len(cycles) > 1:
            tracer.truncate(first)  # keep the spans of the first traced cycle only
        now = time.perf_counter()
        if now + (now - t_iter) > deadline:
            break
    WORK.mkdir(exist_ok=True)
    tracer.write_csv(WORK / f"{wl.name}.spans.csv")

    metrics = {}
    for name, unit in per_layer_metrics():
        if name == "trace.overhead_frac":
            metrics[name] = statistics.median(traced) / statistics.median(untraced) - 1.0
        elif unit == "s" or name.startswith("trace."):
            metrics[name] = statistics.median(c["stats"][name] for c in cycles)
        else:
            metrics[name] = cycles[0]["stats"][name]  # counts repeat exactly every cycle
    extra = {
        "cycles": len(cycles),
        "passes_per_cycle": wl.cycle,
        "emit.json_bare_nan_tokens": cycles[0]["stats"]["emit.json_bare_nan_tokens"],
        "detected_pairs_per_pass": cycles[0]["stats"]["detected_pairs_per_pass"],
        "untraced_cycle_s": untraced,
        "traced_cycle_s": traced,
        "raw.pass_s.samples": scale.raw,
        "escaping_bindings": escaping_bindings(),
        "spans_written": tracer.span_count(),
    }
    return metrics, extra


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("haar-rounds", "fixed-sweep", "selftest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rfqkd" / "__init__.py").is_file():
        print(f"error: no rfqkd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import rfqkd

    if Path(rfqkd.__file__).resolve().parent != (SRC / "rfqkd").resolve():
        print(f"error: imported rfqkd from {rfqkd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    WORK.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, WORK)
    ledger = Ledger()
    if args.trace:
        metrics, extra = run_traced(wl, args.seconds, ledger)
        units = dict(per_layer_metrics())
    else:
        metrics, extra = run_untraced(wl, args.seed, args.seconds, ledger)
        units = dict(END_TO_END)
    facts = machine_facts()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts, "metrics": metrics, "extra": extra,
        "attempted": ledger.attempted, "failed": ledger.failed, "failures": ledger.messages,
    }
    with open(WORK / f"{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    for message in ledger.messages:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"# machine: {json.dumps(facts)}")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    for name, value in extra.items():
        if not isinstance(value, list):
            print(f"# {name} = {value}")
    if not args.trace:
        print(f"# pass_s.tail is p{extra['pass_s.tail_percentile']:.1f} of n = {extra['passes']} passes")
    else:
        for line in extra["escaping_bindings"]:
            print(f"# escaping binding: {line}")
    print(f"# failed_frac = {ledger.failed / ledger.attempted:.6g} ratio "
          f"({ledger.failed} failed of {ledger.attempted} attempted)")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
