"""Objective landscape geometry and noise robustness.

Scans the multi-patient misfit on a coarse grid (the valley is steep in d_Ci
and flat in d_Ca), then repeats the inversion on targets perturbed by 5%
multiplicative noise for two disjoint sub-cohorts.
"""

import numpy as np

from fiberdialysis import (CohortTable, MultiCostConfig, NoiseSpec,
                           add_measurement_noise, derive_seed, generate_cohort,
                           identify_multi, landscape_scan, make_reference_targets)
from fiberdialysis.config import load_profile, packaged_data_path
from fiberdialysis.inverse import context_from_profile, default_weights

BETA_STAR = np.array([0.8, 0.4])

profile = load_profile()
ctx = context_from_profile(profile, jobs=4, mesh_res=(40, 6, 4, 5))
real = CohortTable.from_csv(packaged_data_path("sample_cohort.csv"))
cohort = generate_cohort(real, ns=10, seed=7)
patients = make_reference_targets(cohort, ctx, BETA_STAR)

cfg = MultiCostConfig(weights=default_weights(patients[:4]))
grid = landscape_scan(patients[:4], ((0.02, 1.0), (0.02, 1.0)), 11, 11, cfg, ctx)
i1, i2 = grid.argmin_index
print("log10 J landscape (rows: d_Ca, cols: d_Ci):")
with np.printoptions(precision=1, suppress=True, linewidth=150):
    print(np.log10(grid.values))
print(f"argmin = {np.round(grid.argmin_point, 3)}")
row_range = grid.values[i1, :].max() - grid.values[i1, :].min()
col_range = grid.values[:, i2].max() - grid.values[:, i2].min()
print(f"value range through argmin: d_Ci direction {row_range:.3g} vs "
      f"d_Ca direction {col_range:.3g} (ratio {row_range / col_range:.1f})")

print("\n5% target noise, two disjoint 5-patient sub-cohorts:")
noisy = add_measurement_noise(patients, NoiseSpec(sigma=0.05, seed=derive_seed(7, "demo")))
for k in range(2):
    sub = noisy[5 * k:5 * (k + 1)]
    sub_cfg = MultiCostConfig(weights=default_weights(sub))
    res = identify_multi(sub, np.array([0.3, 0.8]), sub_cfg, ctx, tol=1e-6)
    rel = 100 * (res.best_point - BETA_STAR) / BETA_STAR
    print(f"  sub-cohort {k + 1}: beta = {np.round(res.best_point, 4)} "
          f"(rel. err {rel[0]:+.1f}%, {rel[1]:+.1f}%)")
print("dispersion concentrates along d_Ca, the flat valley direction")
ctx.close()
