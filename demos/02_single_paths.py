"""Run one deterministic and one stochastic trajectory of the full model.

The equation combines diffusion, a degree-(delta+1) advection term, and a
bistable reaction with zeros at 0, gamma^(1/delta), and 1.  Starting from a
parabolic bump the deterministic flow relaxes; adding multiplicative noise
at intensity sqrt(eps) perturbs the path around that profile.
"""

import numpy as np

from sgbh.model import ModelParams, NoiseCoefficient
from sgbh.montecarlo import default_initial
from sgbh.noise import NoiseSpec, sample_noise
from sgbh.solvers import SolverConfig, solve_deterministic, solve_spde
from sgbh.spectral import Grid1D

params = ModelParams(nu=0.1, alpha=1.0, beta=1.0, gamma=0.5, delta=1, p_norm=8)
g = NoiseCoefficient("affine", 1.0, 0.5)
cfg = SolverConfig(dt=1e-3, t_end=0.25, n_modes=32, n_points=256)
spec = NoiseSpec(n_modes=32, eta=0.3)

grid = Grid1D(cfg.n_points)
u0 = default_initial(grid)  # the x(1-x) bump

det = solve_deterministic(u0, params, cfg)
noise = sample_noise(spec, cfg.dt, cfg.n_steps, seed=42, path_index=0)
sto = solve_spde(u0, params, g, 0.01, noise, cfg)

print("time    |u0|_2 (deterministic)   |u_eps|_2 (eps = 0.01)   gap sup-norm")
for k in range(0, cfg.n_steps + 1, cfg.n_steps // 5):
    du = det.grid_values(k)
    su = sto.grid_values(k)
    print(
        f"{k * det.dt:<6.2f}  {grid.lp_norm(du, 2):<24.6f} "
        f"{grid.lp_norm(su, 2):<24.6f} {np.max(np.abs(du - su)):.4f}"
    )

# the recorded running norms match recomputing them from the coefficients
p = params.p_norm
recomputed = max(grid.lp_norm(sto.grid_values(k), p) for k in range(cfg.n_steps + 1))
print(f"\nsup_t |u_eps|_{p} recorded {np.max(sto.norms):.6f}, recomputed {recomputed:.6f}")
