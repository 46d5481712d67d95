"""Multi-patient exact-data identifiability.

Synthesizes a small cohort from the sample statistics, builds self-consistent
targets at the ground truth (0.8, 0.4), and recovers the pair from a remote
start with Levenberg-Marquardt in log-parameters, on each patient's exact
outlet Jacobian.
"""

import numpy as np

from fiberdialysis import (CohortTable, MultiCostConfig, generate_cohort,
                           identify_multi, make_reference_targets)
from fiberdialysis.config import load_profile, packaged_data_path
from fiberdialysis.inverse import context_from_profile, default_weights

BETA_STAR = np.array([0.8, 0.4])

profile = load_profile()
ctx = context_from_profile(profile, jobs=4, mesh_res=(40, 6, 4, 5))

real = CohortTable.from_csv(packaged_data_path("sample_cohort.csv"))
cohort = generate_cohort(real, ns=4, seed=7)
patients = make_reference_targets(cohort, ctx, BETA_STAR)
print(f"cohort: {len(patients)} calibrated patients with exact targets at {BETA_STAR}")

cfg = MultiCostConfig(weights=default_weights(patients))
result = identify_multi(patients, np.array([0.3, 0.8]), cfg, ctx, tol=1e-10)

print("\noptimizer iterates (d_Ca, d_Ci, J, |beta - beta*|):")
for k, (point, value) in enumerate(result.trace):
    err = np.linalg.norm(point - BETA_STAR)
    print(f"  {k:3d}  {point[0]:.6f}  {point[1]:.6f}  {value:.3e}  {err:.3e}")

print(f"\nrecovered beta = {result.best_point}")
print(f"max abs error  = {np.abs(result.best_point - BETA_STAR).max():.2e}")
print(f"final J        = {result.best_value:.3e} ({result.n_evals} evaluations, "
      f"{result.n_jacobians} Jacobians)")
ctx.close()
