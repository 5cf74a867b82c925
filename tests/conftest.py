import numpy as np
import pytest
from scipy.special import gammaln

from nltomo.evolve import _cascade_block, _from_blocks
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
    dim = rho0.dim
    phi = medium.phase_exponents(dim)
    blocks = []
    for d in range(dim):
        j = np.arange(dim - d)
        k = np.maximum(j[None, :] - j[:, None], 0)
        weights = w**k * np.exp(-gammaln(k + 1.0))
        a = -1j * medium.chi * (phi[j + d] - phi[j]) - 0.5 * gamma * (2 * j + d)
        x0 = np.diagonal(rho0.elements, -d)
        blocks.append(np.exp(a * t) * ((_cascade_block(dim, d) * weights) @ x0))
    return _from_blocks(np.concatenate(blocks), dim)
