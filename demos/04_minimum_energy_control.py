"""Price a deviation with the rate function, then verify by steering.

The cost of pushing the rescaled deviation field to a target endpoint is
half the squared Cameron-Martin norm of the cheapest control reproducing
it through the linearized dynamics.  The minimizer is the minimum-norm
solution from an SVD of the control-to-endpoint map; feeding that control
back through the skeleton equation must land on the target, and no other
control reaching the target can cost less.
"""

import numpy as np

from sgbh.deviation import rate_function_endpoint
from sgbh.model import ModelParams, NoiseCoefficient
from sgbh.montecarlo import default_initial
from sgbh.noise import NoiseSpec
from sgbh.solvers import SolverConfig, solve_deterministic, solve_skeleton
from sgbh.spectral import Grid1D

params = ModelParams(nu=0.1, alpha=1.0, beta=1.0, gamma=0.5, delta=1, p_norm=8)
g = NoiseCoefficient("affine", 1.0, 0.5)
cfg = SolverConfig(dt=1e-3, t_end=0.05, n_modes=8, n_points=64)
spec = NoiseSpec(n_modes=8, eta=0.3)

u0 = solve_deterministic(default_initial(Grid1D(cfg.n_points)), params, cfg)

# target: a low-mode bump in the deviation field at the final time
target = np.zeros(cfg.n_modes)
target[0], target[2] = 0.02, -0.01

res, control = rate_function_endpoint(target, u0, params, g, cfg, noise_spec=spec)
print(f"rate function value   I(psi) = {res['value']:.8f}")
print(
    f"endpoint residual     {res['endpoint_residual']:.2e} "
    f"using {res['iterations']} reachable directions"
)
print(f"converged             {res['converged']}")

# steer the skeleton with the optimal control and check where it lands
steered = solve_skeleton(u0, params, g, control, cfg, noise_spec=spec)
gap = np.max(np.abs(steered.coeffs[-1] - target))
print(f"replay endpoint gap   {gap:.2e}")
print(f"control action        {control.action():.8f} (equals the value by construction)")

# doubling the target quadruples the price: the action is quadratic
double, _ = rate_function_endpoint(2 * target, u0, params, g, cfg, noise_spec=spec)
print(f"\nI(2 psi) / I(psi) = {double['value'] / res['value']:.6f} (exactly 4 in the limit)")
