"""Estimate tail probabilities of the rescaled deviation field.

In the moderate-deviation regime the rescaled field Z_eps stays tight: the
probability that its running norm exceeds a level rho falls off in rho,
uniformly over the noise intensities.  A small coupled ensemble per eps
gives Wilson-interval estimates of those exceedance probabilities, and the
nesting of the events guarantees monotonicity in rho exactly.
"""

from sgbh.deviation import SpeedFunction
from sgbh.model import ModelParams, NoiseCoefficient
from sgbh.montecarlo import EnsembleSpec, run_mdp_tail
from sgbh.noise import NoiseSpec
from sgbh.solvers import SolverConfig

params = ModelParams(nu=0.1, alpha=1.0, beta=1.0, gamma=0.5, delta=1, p_norm=8)
g = NoiseCoefficient("affine", 1.0, 0.5)
cfg = SolverConfig(dt=1e-3, t_end=0.1, n_modes=16, n_points=128)

spec = EnsembleSpec(
    n_paths=96,
    base_seed=7,
    eps_list=(1e-2, 1e-4),
)
report = run_mdp_tail(
    spec,
    params,
    g,
    cfg,
    SpeedFunction(0.25),
    rho_list=(0.05, 0.08, 0.12, 0.2),
    noise_spec=NoiseSpec(16, 0.3),
    tail_p=2,
)

print("P(sup_t |Z_eps|_2 > rho), Wilson 95% intervals, speed eps^-0.25\n")
print("eps       " + "".join(f"rho={r:<14g}" for r in report["rho"]))
for row in report["per_eps"]:
    cells = [
        f"{p:.3f} ({lo:.2f},{hi:.2f})"
        for p, lo, hi in zip(row["p_hat"], row["wilson_lo"], row["wilson_hi"])
    ]
    print(f"{row['eps']:<8g}  " + "  ".join(cells))

print(f"\nmonotone non-increasing in rho: {report['pass_details']['monotone_in_rho']}")
