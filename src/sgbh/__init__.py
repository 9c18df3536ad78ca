"""Spectral simulation and deviation analysis for the stochastic generalized
Burgers-Huxley equation on (0,1) with Dirichlet boundary conditions.

Modules by capability:

spectral    sine basis, heat kernel (images and eigen), semigroup, kernel-estimate fits
model       parameters, polynomial nonlinearities and derivatives, noise coefficient family
noise       Q-Wiener sampling, Cameron-Martin controls and their binary files
solvers     exponential-Euler mild-form integrators for all five evolution problems
deviation   speed functions, minimum-energy rate function, Gramian, tail estimates
montecarlo  coupled-epsilon ensembles, convergence-rate fits, OU oracle
cli         configuration files and the command-line entry point

numpy is the only runtime dependency.
"""

import os

# One OpenBLAS thread per process unless the user chose a count: the per-step
# matrix products are too small to share, and pool workers inherit the variable.
# OpenBLAS reads it when numpy loads, so a program that imported numpy first
# keeps numpy's thread count.
if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import cli, deviation, model, montecarlo, noise, solvers, spectral  # noqa: E402

__version__ = "0.1.0"
