"""Watch the rescaled deviation field converge to its Gaussian limit.

The field v_eps = (u_eps - u0)/sqrt(eps) solves a perturbed linearization
whose remainder shrinks like sqrt(eps).  Driving v_eps and the limit field v
with the same increments turns that remainder into a directly measurable
per-path statistic, so a modest ensemble resolves the convergence order.
"""

from sgbh.model import ModelParams, NoiseCoefficient
from sgbh.montecarlo import EnsembleSpec, run_clt
from sgbh.noise import NoiseSpec
from sgbh.solvers import SolverConfig

params = ModelParams(nu=0.1, alpha=1.0, beta=1.0, gamma=0.5, delta=1, p_norm=8)
g = NoiseCoefficient("affine", 1.0, 0.5)
cfg = SolverConfig(dt=1e-3, t_end=0.25, n_modes=32, n_points=256)

spec = EnsembleSpec(
    n_paths=64,
    base_seed=2024,
    eps_list=(1e-1, 1e-2, 1e-3),
)
report = run_clt(spec, params, g, cfg, noise_spec=NoiseSpec(32, 0.3))

print("eps       E[sup_t |v_eps - v|_8]   stderr")
for eps, mean, se in zip(report["eps"], report["mean"], report["stderr"]):
    print(f"{eps:<8g}  {mean:<23.6e}  {se:.2e}")
print(f"\nfitted order {report['slope']:.3f} (leading remainder is order 1/2)")
print(f"r^2 = {report['r_squared']:.5f}, verdict: {'pass' if report['passed'] else 'fail'}")
