"""Asymptotic secret-key-rate bound from session tallies.

Rounds projected outside the protected subspace S are conservatively
granted to the eavesdropper in full, and their error rate is taken as 1/2
(the dephased outside-S blocks produce uniformly random bits).  The key
fraction per sifted bit is then

    r = p_S - H(e_x) - p_S * H(e_x_S)

with e_x_S recovered from the identity e_x = p_S e_x_S + (1 - p_S) / 2.
Negative rates are reported as-is so sweeps show the security boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .protocol import TallyCounts


@dataclass(frozen=True)
class SecurityReport:
    p_S: float
    e_x: float
    e_x_S: float
    rate_fraction: float
    secret_bits_per_s: float


def binary_entropy(p: float) -> float:
    """Shannon entropy of a bit, -p log2 p - (1-p) log2 (1-p), for p in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p!r} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def bound_exS(p_S: float, e_x: float) -> float:
    """Upper bound on the inside-S error rate, assuming outside-S errors are 1/2."""
    if not 0.0 < p_S <= 1.0:
        raise ValueError("p_S must be in (0, 1]; no inside-S population otherwise")
    if not 0.0 <= e_x <= 0.5:
        raise ValueError(f"e_x {e_x!r} outside [0, 0.5]")
    raw = (e_x - (1.0 - p_S) * 0.5) / p_S
    return min(max(raw, 0.0), 0.5)


def key_rate(p_S: float, e_x: float) -> float:
    """Secret fraction per sifted bit; may be negative (caller aborts)."""
    return p_S - binary_entropy(e_x) - p_S * binary_entropy(bound_exS(p_S, e_x))


def report(t: TallyCounts) -> SecurityReport:
    """Evaluate the bound on measured tallies.

    Requires sifted bits and a nonempty inside-S sample; secret_bits_per_s
    is NaN when the tally carries no duration (e.g. list-based sifting).
    """
    if t.sifted <= 0:
        raise ValueError("no sifted bits to evaluate")
    if t.pS_sample_total <= 0:
        raise ValueError("empty inside-S test sample")
    e_x = t.errors / t.sifted
    p_S = t.pS_sample_inS / t.pS_sample_total
    e_x_S = bound_exS(p_S, e_x)
    rate = key_rate(p_S, e_x)
    per_second = rate * t.sifted / t.duration_s if t.duration_s > 0 else math.nan
    return SecurityReport(
        p_S=p_S, e_x=e_x, e_x_S=e_x_S, rate_fraction=rate, secret_bits_per_s=per_second
    )
