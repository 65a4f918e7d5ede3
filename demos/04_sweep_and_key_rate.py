"""
Full sweeps and the secret key rate
===================================

Runs desk-scaled Monte Carlo sweeps for the 4 m and 1 km configurations,
with and without the compensation rotation, then evaluates the key-rate
bound on a full session and on the two measured operating points.
"""

import numpy as np

from rfqkd.channel import sweep_settings
from rfqkd.detection import NoiseConfig, simulate_session
from rfqkd.harness import ExperimentConfig, emit, run_sweep
from rfqkd.security import bound_exS, key_rate, report

# --- 4 m bench sweep, 1 minute per setting (desk scale) --------------------
cfg_4m = ExperimentConfig(
    noise=NoiseConfig.four_meter(), schemes=("none", "flip_half"),
    duration_s=60.0, seed=1,
)
rows = run_sweep(cfg_4m)
print("4 m sweep (60 s per setting):")
print("  idx scheme      rate_hz  normalized   qber")
for r in rows:
    print(f"  {r.setting_index:>3} {r.scheme:<10} {r.conclusive_rate_hz:8.2f} "
          f"{r.normalized_coincidence:10.3f} {r.qber:7.4f}")

# --- 1 km sweep, 2 hours per setting ----------------------------------------
cfg_1km = ExperimentConfig(
    noise=NoiseConfig.one_km(), schemes=("none", "flip_half"),
    duration_s=7200.0, seed=2,
)
rows = run_sweep(cfg_1km)
print("\n1 km sweep (2 h per setting):")
print("  idx scheme      rate_hz  normalized   qber     p_S   key_rate")
for r in rows:
    print(f"  {r.setting_index:>3} {r.scheme:<10} {r.conclusive_rate_hz:8.3f} "
          f"{r.normalized_coincidence:10.3f} {r.qber:7.4f} {r.p_S:7.4f} "
          f"{r.key_rate_fraction:8.4f}")

flip_rows = [r for r in rows if r.scheme == "flip_half"]
print(f"\n1 km flip_half average QBER: {np.mean([r.qber for r in flip_rows])*100:.2f} % "
      f"(compare the measured 10.2 %)")

text = emit(rows, "csv", config=cfg_1km)
with open("demo_sweep_1km.csv", "w", encoding="utf-8") as fh:
    fh.write(text)
print(f"wrote demo_sweep_1km.csv ({len(text.splitlines())} lines)")

# --- a single long session and its security report --------------------------
tally = simulate_session(
    NoiseConfig.one_km(), sweep_settings()[1], "flip_half", 10800.0,
    np.random.default_rng(3),
)
rep = report(tally)
print(f"\n3 h session at setting 1: {tally.conclusive} conclusive, "
      f"{tally.sifted} sifted, {tally.errors} errors")
print(f"  p_S = {rep.p_S:.4f}, e_x = {rep.e_x:.4f}, e_x_S <= {rep.e_x_S:.4f}")
print(f"  key fraction = {rep.rate_fraction:.4f}, "
      f"secret bits per second = {rep.secret_bits_per_s:.4f}")

# --- the bound at the two measured operating points --------------------------
print("\nkey-rate bound at the measured operating points:")
for label, p_s, e_x in (("1 km", 0.91, 0.102), ("4 m", 0.97, 0.068)):
    print(f"  {label}: p_S = {p_s:.2f}, e_x = {e_x:.3f} -> e_x_S <= "
          f"{bound_exS(p_s, e_x):.4f}, key fraction {key_rate(p_s, e_x):.4f}")

print("\nsecurity boundary in e_x at p_S = 0.91:")
for e_x in (0.06, 0.08, 0.10, 0.12, 0.14):
    print(f"  e_x = {e_x:.2f}: key fraction {key_rate(0.91, e_x):+.4f}")
