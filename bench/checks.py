"""Output checks behind the benchmark's `failed` count.

Each check returns a list of failure messages; an empty list means the
output is correct.  The checks use only the program's public closed forms
(`expected_conclusive_rate`, `expected_qber`, `expected_sifted_rate`), so a
change that reorders random draws still passes while a change that alters
the statistics does not.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

from rfqkd import channel, detection, harness

# Two-sided z-bound on the conclusive count and the QBER of one session.
# Over every session the workloads run, the exact Poisson / binomial tails
# give at most 9.3e-6 false failures per session at 5.0 (worst case: the
# 4 m `none` session at the bit-flip setting, 29 expected accidentals), so a
# correct program fails fewer than 1 in 10^4 sessions.
Z_BOUND = 5.0
# a non-finite QBER (no sifted bits) is accepted only when that is plausible
EMPTY_SIFT_PLAUSIBLE = 1e-6


@dataclass(frozen=True)
class SessionExpectation:
    """Closed-form means of one session at a (noise, setting, scheme, duration)."""

    conclusive: float
    qber: float
    sifted: float
    detected_pairs: float


def expect_session(noise, setting, scheme: str, duration_s: float) -> SessionExpectation:
    survival = channel.randomized_survival(channel.from_waveplates(setting), scheme)
    return SessionExpectation(
        conclusive=detection.expected_conclusive_rate(noise, survival) * duration_s,
        qber=detection.expected_qber(noise, survival),
        sifted=detection.expected_sifted_rate(noise, survival) * duration_s,
        detected_pairs=expected_detected_pairs(noise, duration_s),
    )


def expected_detected_pairs(noise, duration_s: float) -> float:
    """pair_rate * duration * apparatus_efficiency * transmittance^2, from the inputs only."""
    return (noise.pair_rate_hz * duration_s * noise.apparatus_efficiency
            * detection.transmittance(noise) ** 2)


def check_session(exp: SessionExpectation, conclusive: float, qber: float, label: str) -> list[str]:
    """Conclusive count (Poisson) and QBER (binomial) within Z_BOUND of the closed forms."""
    fails = []
    z = (conclusive - exp.conclusive) / math.sqrt(exp.conclusive)
    if not abs(z) <= Z_BOUND:
        fails.append(f"{label}: conclusive {conclusive:g} vs expected {exp.conclusive:.1f} (z = {z:.2f})")
    if math.isfinite(qber):
        zq = (qber - exp.qber) / math.sqrt(exp.qber * (1.0 - exp.qber) / exp.sifted)
        if not abs(zq) <= Z_BOUND:
            fails.append(f"{label}: qber {qber:.6g} vs expected {exp.qber:.6g} (z = {zq:.2f})")
    elif math.exp(-exp.sifted) < EMPTY_SIFT_PLAUSIBLE:
        fails.append(f"{label}: qber is not finite with {exp.sifted:.1f} sifted bits expected")
    return fails


def check_tally(exp: SessionExpectation, tally, duration_s: float, label: str) -> list[str]:
    if tally.duration_s != duration_s:
        return [f"{label}: tally duration {tally.duration_s} != {duration_s}"]
    qber = tally.errors / tally.sifted if tally.sifted else math.nan
    return check_session(exp, tally.conclusive, qber, label)


# ---------------------------------------------------------------------------
# emitted sweep files

def _as_float(value) -> float:
    """JSON value to float; `null` and NaN are both read as non-finite."""
    return math.nan if value is None else float(value)


def parse_emitted(text: str, fmt: str) -> tuple[dict, list[dict]]:
    """Parse a `sweep` output file with embedded config into (config, rows).

    Raises ValueError on any structural defect.
    """
    if fmt == "csv":
        lines = text.splitlines()
        prefix = "# config: "
        if not lines or not lines[0].startswith(prefix):
            raise ValueError("CSV has no '# config:' provenance line")
        config = json.loads(lines[0][len(prefix):])
        reader = csv.reader(io.StringIO("\n".join(lines[1:])))
        header = next(reader, None)
        if tuple(header or ()) != harness.CSV_COLUMNS:
            raise ValueError(f"CSV header {header} != {harness.CSV_COLUMNS}")
        rows = []
        for fields in reader:
            if len(fields) != len(header):
                raise ValueError(f"CSV row has {len(fields)} fields")
            row = dict(zip(header, fields))
            rows.append({
                name: (row[name] if name == "scheme"
                       else int(row[name]) if name == "setting_index"
                       else float(row[name]))
                for name in header
            })
        return config, rows
    if fmt == "json":
        obj = json.loads(text)
        if not isinstance(obj, dict) or set(obj) != {"config", "rows"}:
            raise ValueError("JSON is not a {config, rows} object")
        rows = []
        for raw in obj["rows"]:
            if tuple(sorted(raw)) != tuple(sorted(harness.CSV_COLUMNS)):
                raise ValueError(f"JSON row keys {sorted(raw)}")
            rows.append({
                name: (raw[name] if name in ("scheme", "setting_index") else _as_float(raw[name]))
                for name in harness.CSV_COLUMNS
            })
        return obj["config"], rows
    raise ValueError(f"unknown format {fmt!r}")


def count_nonfinite(text: str, fmt: str) -> tuple[int, int]:
    """(non-finite values written, bare NaN/Infinity tokens that make JSON invalid)."""
    _, rows = parse_emitted(text, fmt)
    nonfinite = sum(
        1 for row in rows for name, v in row.items()
        if isinstance(v, float) and not math.isfinite(v)
    )
    tokens: list[str] = []
    if fmt == "json":
        json.loads(text, parse_constant=lambda token: tokens.append(token) or float(token))
    return nonfinite, len(tokens)


def same_to_6_digits(a: float, b: float) -> bool:
    if not (math.isfinite(a) and math.isfinite(b)):
        return not math.isfinite(a) and not math.isfinite(b)
    return f"{a:.6g}" == f"{b:.6g}"


def compare_rows(rows_a: list[dict], rows_b: list[dict], label: str) -> list[str]:
    if len(rows_a) != len(rows_b):
        return [f"{label}: {len(rows_a)} rows vs {len(rows_b)}"]
    fails = []
    for i, (a, b) in enumerate(zip(rows_a, rows_b)):
        for name in harness.CSV_COLUMNS:
            va, vb = a[name], b[name]
            same = same_to_6_digits(va, vb) if isinstance(va, float) else va == vb
            if not same:
                fails.append(f"{label}: row {i} {name} {va!r} != {vb!r}")
    return fails


def check_sweep_rows(rows: list[dict], config: dict, expectations: list[SessionExpectation],
                     label: str) -> list[str]:
    """Row order, then the session z-checks on each row."""
    keys = [(scheme, index) for scheme in config["schemes"]
            for index in range(len(config["settings"]))]
    got = [(row["scheme"], row["setting_index"]) for row in rows]
    if got != keys:
        return [f"{label}: rows {got} != {keys}"]
    duration = config["duration_s"]
    fails = []
    for row, exp in zip(rows, expectations):
        fails += check_session(exp, row["conclusive_rate_hz"] * duration, row["qber"],
                               f"{label} {row['scheme']}[{row['setting_index']}]")
    return fails


# ---------------------------------------------------------------------------
# selftest

def check_selftest(ok: bool, lines: list[str]) -> list[str]:
    """Every suite printed one PASS line and selftest returned True."""
    names = [name for name, _ in harness.SELFTEST_SUITES]
    fails = [] if ok else ["selftest returned False"]
    if len(lines) != len(names):
        return fails + [f"selftest printed {len(lines)} lines for {len(names)} suites"]
    for name, line in zip(names, lines):
        fields = line.split()
        if fields[:2] != ["PASS", name]:
            fails.append(f"selftest line {line!r} is not a PASS of {name}")
    return fails
