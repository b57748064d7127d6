import math

import numpy as np
import pytest

from xzmeas import analytic, sde
from xzmeas.core import ChannelConfig, QubitEnvironment, SimConfig, polar_to_bloch


def ideal_xz_config(gamma=0.5, dt=0.01, t_final=2.0, theta_in=math.pi / 4, seed=0):
    """Equal-strength, unit-efficiency XZ measurement (tau_m = 1/(2*gamma))."""
    return SimConfig(
        channels=(
            ChannelConfig(0.0, gamma, 1.0),
            ChannelConfig(math.pi / 2, gamma, 1.0),
        ),
        dt=dt,
        t_final=t_final,
        initial_state=polar_to_bloch(theta_in),
        environment=QubitEnvironment(),
        rng_seed=seed,
    )


def kernel_run(cfg, q0, xi):
    """States (n + 1, 3, m) and readouts (n, 2, m) of the fused step kernel
    from initial states q0 (3, m) and draws xi (n, 2, m)."""
    n, _, m = xi.shape
    states = np.empty((n + 1, 3, m))
    readouts = np.empty((n, 2, m))
    sde._propagate(np.array(q0, dtype=float), xi, cfg, states, readouts)
    return states, readouts


def source_average(src, bc, resummed=None):
    """``analytic._source_average`` on one row of (sign, time) pairs."""
    signs, times = np.array(src, dtype=float).T
    return complex(analytic._source_average(signs[None], times[None], bc, resummed)[0, 0])


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)
