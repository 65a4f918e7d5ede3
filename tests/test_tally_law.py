"""Exact counting law of a session tally.

Every emitted pair and every accidental is sorted independently of the
others over the round outcomes (for 'none' and 'flip_half' by one
multinomial draw over the mean odds of their equally likely round
configurations, for 'haar' by its own Haar rotation and a draw over that
row's odds), so by Poisson splitting the five disjoint
tally categories are independent Poisson counts.  Their means follow from
the public closed forms.  A defect that keeps the means but shares a draw
between pairs, or sorts with the wrong odds, shows here as
over-dispersion, correlation or a shifted mean.
"""

import numpy as np
import pytest

from rfqkd.channel import from_waveplates, randomized_survival, sweep_settings
from rfqkd.detection import (
    NoiseConfig,
    accidental_rate,
    expected_conclusive_rate,
    expected_qber,
    expected_sifted_rate,
    simulate_session,
)

CATEGORIES = ("sifted wrong", "sifted right", "test inside S", "test outside S", "unsifted key")

# A bright background and an even test split populate every category, the
# accidental-only "test outside S" included.
NOISY = NoiseConfig.four_meter(singles_rate_hz=80000.0, ps_sample_fraction=0.5)

# scheme, sweep setting (conclusive probability below 1 for each), session
# seconds, sessions; 'haar' costs time per detected pair, so its sessions are short
CASES = [("none", 1, 300.0, 100), ("flip_half", 3, 300.0, 100), ("haar", 0, 0.4, 60)]

# |z| bound for each of the 20 statistics per case.  The dispersion of the
# small 'haar' counts is skewed, so the bound sits above a Gaussian 5 sigma:
# a million sets of independent Poisson counts at these means per case put
# the chance that any of the 60 statistics crosses it near 1e-5.
Z_BOUND = 6.5


def category_means(cfg: NoiseConfig, scheme: str, setting_index: int, duration_s: float):
    """Closed-form mean of each category in CATEGORIES."""
    survival = randomized_survival(from_waveplates(sweep_settings()[setting_index]), scheme)
    conclusive = expected_conclusive_rate(cfg, survival) * duration_s
    sifted = expected_sifted_rate(cfg, survival) * duration_s
    wrong = sifted * expected_qber(cfg, survival)
    test = cfg.ps_sample_fraction * conclusive
    # true pairs always land inside S; accidentals do with probability 1/2
    test_out = cfg.ps_sample_fraction * accidental_rate(cfg) * duration_s / 2.0
    return np.array([wrong, sifted - wrong, test - test_out, test_out,
                     conclusive - test - sifted])


def category_counts(tally) -> list[int]:
    """The five categories of one tally, in CATEGORIES order."""
    return [tally.errors, tally.sifted - tally.errors, tally.pS_sample_inS,
            tally.pS_sample_total - tally.pS_sample_inS,
            tally.conclusive - tally.pS_sample_total - tally.sifted]


def law_z_scores(counts: np.ndarray, means: np.ndarray) -> dict[str, np.ndarray]:
    """z-scores of mean, dispersion and pairwise correlation of n sessions
    (rows of counts) against independent Poisson laws with the given means.

    With the means known, the dispersion sum((x - mu)^2) / (n mu) has mean 1
    and variance (2 + 1/mu) / n, and the scaled cross moment of two
    independent categories has mean 0 and variance 1 / n.
    """
    n = len(counts)
    dev = counts - means
    scaled = dev / np.sqrt(means)
    dispersion = (scaled**2).mean(axis=0)
    i, j = np.triu_indices(len(means), 1)
    return {
        "mean": scaled.sum(axis=0) / np.sqrt(n),
        "dispersion": (dispersion - 1.0) / np.sqrt((2.0 + 1.0 / means) / n),
        "correlation": (scaled[:, i] * scaled[:, j]).sum(axis=0) / np.sqrt(n),
    }


@pytest.mark.parametrize("scheme, setting_index, duration_s, sessions", CASES,
                         ids=[c[0] for c in CASES])
def test_categories_are_independent_poisson(scheme, setting_index, duration_s, sessions):
    means = category_means(NOISY, scheme, setting_index, duration_s)
    assert means.min() > 3.0  # every category is populated
    setting = sweep_settings()[setting_index]
    streams = np.random.SeedSequence(2024).spawn(sessions)
    counts = np.array([
        category_counts(simulate_session(NOISY, setting, scheme, duration_s,
                                         np.random.default_rng(s)))
        for s in streams
    ])
    pairs = [f"{CATEGORIES[a]} / {CATEGORIES[b]}"
             for a, b in zip(*np.triu_indices(len(CATEGORIES), 1))]
    for kind, z in law_z_scores(counts, means).items():
        labels = pairs if kind == "correlation" else CATEGORIES
        bad = {label: round(float(v), 2) for label, v in zip(labels, z) if abs(v) > Z_BOUND}
        assert not bad, f"{scheme}: {kind} z-scores beyond {Z_BOUND}: {bad}"
