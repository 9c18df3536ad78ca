"""Cross-validate the Dirichlet heat kernel construction.

The kernel on (0,1) can be tabulated two independent ways: reflecting the
free-space Gaussian (method of images) or summing the sine eigenmode series.
They converge from opposite ends: images converge fast for small t, the
eigen series for large t.  Agreement across a time sweep is a strong check
on both, and the decay estimates behind the moment bounds can be verified
numerically against the tabulated kernels.
"""

import numpy as np

from sgbh.spectral import Grid1D, heat_kernel, validate_kernel_estimates

grid = Grid1D(64)
h = grid.spacing

print("time      max|images - eigen|   min value     row mass max")
for t in (0.01, 0.05, 0.1, 0.25, 0.5):
    images = heat_kernel(t, grid, method="images")
    eigen = heat_kernel(t, grid, method="eigen")
    gap = np.max(np.abs(images - eigen))
    mass = np.max(h * images.sum(axis=1))  # sub-stochastic: <= 1
    print(f"{t:<8}  {gap:.3e}             {images.min():+.2e}    {mass:.6f}")

print()
print("fitting the sup, gradient, and L^p decay estimates on a time sweep:")
fits = validate_kernel_estimates(np.linspace(0.01, 0.5, 8), grid)
for fit in fits:
    print(
        f"  {fit['estimate_id']:<16} C = {fit['fitted_C']:.4f}  exponent a = {fit['fitted_a']:g}"
        f"  worst violation = {fit['max_violation']:+.2e}  pass = {fit['pass']}"
    )
print("all estimates hold:", all(fit["pass"] for fit in fits))
