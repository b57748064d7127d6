"""Qubit trajectories and conditional state correlators under simultaneous
continuous measurement of two non-commuting observables.

Backends: Ito Monte Carlo (``sde``), exact path-integral closed forms
(``analytic``), Fokker-Planck kernels (``fpe``), tree-level perturbation
theory (``perturb``), plus Bayesian reconstruction from readouts (``bayes``)
and statistical estimation (``estimator``).
"""

__version__ = "0.1.0"

from .core import (
    BlochState,
    ChannelConfig,
    QubitEnvironment,
    SimConfig,
    measurement_time,
    polar_to_bloch,
)

__all__ = [
    "BlochState",
    "ChannelConfig",
    "QubitEnvironment",
    "SimConfig",
    "measurement_time",
    "polar_to_bloch",
    "__version__",
]
