import math

import numpy as np
import pytest
from scipy.special import gammaln

from nltomo.errors import NumericalInvariantError, ValidationError
from nltomo.states import (
    DensityMatrix,
    FockVector,
    InitialStateSpec,
    StateKind,
    build_state,
    density_from_pure,
    ladder_expectations,
    log_factorials,
    tail_mass,
)

from conftest import family_amplitudes, laguerre_value


def coherent(alpha, dim):
    return build_state(InitialStateSpec(StateKind.COHERENT, alpha), dim)


def photon_added(alpha, p, dim):
    return build_state(InitialStateSpec(StateKind.PHOTON_ADDED, alpha, p), dim)


def even_coherent(alpha, dim):
    return build_state(InitialStateSpec(StateKind.EVEN_COHERENT, alpha), dim)


def test_coherent_matches_direct_formula():
    alpha = 1.2 - 0.7j
    dim = 25
    state = coherent(alpha, dim)
    direct = np.array(
        [
            math.exp(-abs(alpha) ** 2 / 2) * alpha**n / math.sqrt(math.factorial(n))
            for n in range(dim)
        ]
    )
    direct /= np.linalg.norm(direct)
    assert np.max(np.abs(state.amplitudes - direct)) < 1e-13


def test_log_factorials_equal_gammaln_bit_for_bit():
    # k = 0..2000 spans all three branches of cephes lgam: x = k + 1 < 13,
    # 13 <= x < 1000 and x >= 1000
    table = log_factorials(2001)
    reference = gammaln(np.arange(2001) + 1.0)
    assert np.array_equal(table, reference)
    assert not table.flags.writeable
    assert np.array_equal(log_factorials(5), table[:5])


def test_builders_are_normalized():
    for state in (
        coherent(math.sqrt(20), 90),
        photon_added(math.sqrt(40) * np.exp(0.25j * math.pi), 3, 110),
        even_coherent(math.sqrt(40), 100),
    ):
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12


@pytest.mark.parametrize("alpha_sq,p", [(1.0, 1), (3.0, 2), (5.0, 3)])
def test_photon_added_base_amplitude_closed_form(alpha_sq, p):
    # |C_p|^2 = e^{-|alpha|^2} / L_p(-|alpha|^2); for alpha_sq=1, p=1
    # this is e^{-1}/2
    state = photon_added(math.sqrt(alpha_sq), p, 60)
    expected = math.exp(-alpha_sq) / laguerre_value(p, -alpha_sq)
    assert abs(abs(state.amplitudes[p]) ** 2 - expected) < 1e-13
    assert np.max(np.abs(state.amplitudes[:p])) == 0.0


def test_photon_added_mean_photon_number_laguerre_identity():
    alpha_sq, p, dim = 5.0, 3, 60
    rho = density_from_pure(photon_added(math.sqrt(alpha_sq), p, dim))
    mom = ladder_expectations(rho)
    expected = (p + 1) * laguerre_value(p + 1, -alpha_sq) / laguerre_value(p, -alpha_sq) - 1.0
    assert abs(mom.n - expected) < 1e-10


def test_even_coherent_structure():
    alpha = math.sqrt(10.0)
    state = even_coherent(alpha, 60)
    assert np.max(np.abs(state.amplitudes[1::2])) == 0.0
    rho = density_from_pure(state)
    mom = ladder_expectations(rho)
    assert abs(mom.a) < 1e-15  # parity forbids <a>
    assert abs(mom.n - 10.0 * math.tanh(10.0)) < 1e-9
    # eigenstate of a^2: <a^2> = alpha^2
    assert abs(mom.a_squared - alpha**2) < 1e-9


def test_even_coherent_base_normalization_constant():
    # |C_0|^2 = e^{-|alpha|^2} / [2 (1 + e^{-2|alpha|^2})] * 4
    alpha_sq = 3.0
    state = even_coherent(math.sqrt(alpha_sq), 50)
    n_plus_sq = 1.0 / (2.0 * (1.0 + math.exp(-2.0 * alpha_sq)))
    expected_c0_sq = 4.0 * n_plus_sq * math.exp(-alpha_sq)
    assert abs(abs(state.amplitudes[0]) ** 2 - expected_c0_sq) < 1e-13


def test_coherent_ladder_expectations():
    alpha = math.sqrt(10.0) * np.exp(0.25j * math.pi)
    rho = density_from_pure(coherent(alpha, 60))
    mom = ladder_expectations(rho)
    assert abs(mom.a - alpha) < 1e-10
    assert abs(mom.a_squared - alpha**2) < 1e-9
    assert abs(mom.n - 10.0) < 1e-9


@pytest.mark.parametrize(
    "amps, expected",
    [([1.0], (0, 0, 0)), ([0.0, 1.0], (0, 0, 1)), ([0.6, 0.8], (0.48, 0, 0.64))],
    ids=["vacuum-dim1", "fock1-dim2", "superposition-dim2"],
)
def test_ladder_expectations_below_dim_three(amps, expected):
    # the diagonals d >= dim are empty and sum to 0
    mom = ladder_expectations(density_from_pure(FockVector(len(amps), np.array(amps))))
    assert np.allclose(mom, expected, rtol=0.0, atol=1e-15)


def test_vacuum_limits():
    vac = coherent(0.0, 10)
    assert vac.amplitudes[0] == 1.0
    assert np.max(np.abs(vac.amplitudes[1:])) == 0.0
    fock_p = photon_added(0.0, 3, 10)
    assert fock_p.amplitudes[3] == 1.0
    assert tail_mass(fock_p, 4) == 0.0
    even_vac = even_coherent(0.0, 10)
    assert even_vac.amplitudes[0] == 1.0


def test_build_state_equals_each_family_formula_bit_for_bit(rng):
    # one formula for the three families, against each family's own
    # expression; |alpha|^2 up to 45, alpha = 0, both parities of dim, p = 1..4
    for _ in range(600):
        kind = list(StateKind)[rng.integers(3)]
        p = int(rng.integers(1, 5)) if kind is StateKind.PHOTON_ADDED else 0
        dim = int(rng.integers(p + 1, 141))
        alpha_sq = 0.0 if rng.random() < 0.05 else rng.uniform(0.0, 45.0)
        alpha = math.sqrt(alpha_sq) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        got = build_state(InitialStateSpec(kind, alpha, p), dim).amplitudes
        want = family_amplitudes(kind, alpha, p, dim)
        assert np.array_equal(got.view(np.float64), want.view(np.float64)), (kind, alpha, p, dim)


def test_build_state_refuses_a_dim_that_cannot_hold_the_state():
    with pytest.raises(ValidationError, match="dim must be >= 1, got 0"):
        coherent(1.0, 0)
    with pytest.raises(ValidationError, match="p=3 needs dim > p, got dim=3"):
        photon_added(1.0, 3, 3)


def test_build_state_dispatch():
    spec = InitialStateSpec(StateKind.PHOTON_ADDED, 2.0, p=2)
    state = build_state(spec, 40)
    assert state.amplitudes[0] == 0.0 and state.amplitudes[1] == 0.0
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12
    assert spec.build(40).dim == 40


def test_initial_state_spec_validation():
    with pytest.raises(ValidationError):
        InitialStateSpec(StateKind.PHOTON_ADDED, 1.0)  # needs p >= 1
    with pytest.raises(ValidationError):
        InitialStateSpec(StateKind.PHOTON_ADDED, 1.0, p=0)
    with pytest.raises(ValidationError):
        InitialStateSpec(StateKind.COHERENT, 1.0, p=2)  # p meaningless here
    with pytest.raises(ValidationError):
        InitialStateSpec(StateKind.COHERENT, complex("inf"))
    with pytest.raises(ValidationError):
        InitialStateSpec("coherent", 1.0)  # not a StateKind


def test_fock_vector_validation():
    with pytest.raises(NumericalInvariantError):
        FockVector(3, np.array([1.0, 1.0, 0.0]))  # not normalized
    with pytest.raises(ValidationError):
        FockVector(3, np.array([1.0, 0.0]))  # shape mismatch
    with pytest.raises(ValidationError):
        FockVector(2, np.array([np.nan, 0.0]))
    vec = FockVector(2, np.array([1.0, 0.0]))
    assert not vec.amplitudes.flags.writeable


def test_density_matrix_validation():
    good = np.diag([0.5, 0.5]).astype(complex)
    DensityMatrix(2, good)
    bad_herm = good.copy()
    bad_herm[0, 1] = 0.1
    with pytest.raises(NumericalInvariantError):
        DensityMatrix(2, bad_herm)
    with pytest.raises(NumericalInvariantError):
        DensityMatrix(2, np.diag([0.7, 0.5]).astype(complex))  # trace 1.2
    with pytest.raises(ValidationError):
        DensityMatrix(3, good)


def test_density_from_pure_is_projector():
    rho = density_from_pure(coherent(1.5, 30))
    assert abs(rho.trace() - 1.0) < 1e-12
    assert abs(rho.purity() - 1.0) < 1e-12


def test_tail_mass():
    state = coherent(math.sqrt(5.0), 40)
    assert tail_mass(state, 0) == pytest.approx(1.0, abs=1e-12)
    assert tail_mass(state, 35) < 1e-12
    assert tail_mass(state, 100) == 0.0
    with pytest.raises(ValidationError):
        tail_mass(state, -1)
    # the strongest field the presets use still fits comfortably in dim=100
    assert tail_mass(coherent(math.sqrt(40.0), 100), 90) < 1e-8


def test_laguerre_recurrence_against_explicit_polynomials():
    for x in (-4.0, -1.0, 0.0, 2.5):
        assert laguerre_value(0, x) == 1.0
        assert abs(laguerre_value(1, x) - (1.0 - x)) < 1e-14
        assert abs(laguerre_value(2, x) - (1.0 - 2.0 * x + 0.5 * x * x)) < 1e-13
        l3 = 1.0 - 3.0 * x + 1.5 * x * x - x**3 / 6.0
        assert abs(laguerre_value(3, x) - l3) < 1e-12
