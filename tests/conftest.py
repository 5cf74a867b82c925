import numpy as np
import pytest
from scipy.special import gammaln

from nltomo.evolve import _amplitude_cascade
from nltomo.presets import preset_names, run_preset


@pytest.fixture(scope="session")
def preset_results(tmp_path_factory):
    """Run the full preset catalog once; shared by the acceptance tests."""
    root = tmp_path_factory.mktemp("presets")
    results = {}
    for name in preset_names():
        results[name] = run_preset(name, root / name)
    return results


@pytest.fixture()
def rng():
    return np.random.default_rng(20260825)


def amplitude_damping_factorial_variant(rho0, medium, gamma, t):
    """Amplitude-damping cascade with an extra 1/k! inside the sum.

    This variant of the series is easy to write down by analogy with a
    Poisson kernel but does not preserve the trace (for a Fock state
    |q><q| the ground-state population comes out as (1-e^{-gamma t})^q/q!
    instead of (1-e^{-gamma t})^q).  It returns a bare array so tests can
    demonstrate the violation explicitly.
    """
    w = -np.expm1(-gamma * t)

    def weights(d, J):
        k = np.arange(J)
        return w**k * np.exp(-gammaln(k + 1.0))

    phi = medium.phase_exponents(rho0.dim)
    return _amplitude_cascade(rho0.elements, phi, medium.chi, gamma, t, weights)
