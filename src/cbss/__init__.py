"""Complex-valued blind source separation of weakly stationary series.

The estimator whitens the sample covariance and diagonalizes one
symmetrized lagged autocovariance, recovering latent components up to
row phases.  The package bundles the estimator, a generator for
Gaussian-subordinated (short- and long-range dependent) latent
processes, a Monte-Carlo lab for convergence-rate experiments, a
minimum-distance performance score, and an RGB image separation
pipeline that works through the complex plane.

Public names are reached through their submodule, as in
``from cbss import unmixing``; ``import cbss`` binds only ``__version__``.
"""

__version__ = "0.1.0"
