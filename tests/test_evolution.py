import math

import numpy as np
import pytest

from nltomo.errors import NumericalInvariantError, ValidationError
from nltomo.evolve import (
    DampingChannel,
    DampingSpec,
    MediumKind,
    MediumSpec,
    TimeGrid,
    amplitude_exact_states,
    coherence_block_solve,
    integrate_master,
    lindblad_rhs,
    propagate_amplitude_damping_closed,
    propagate_phase_damping,
    propagate_unitary,
    revival_time,
)
from nltomo.states import (
    FockVector,
    InitialStateSpec,
    StateKind,
    density_from_pure,
)

from conftest import amplitude_damping_factorial_variant

KERR = MediumSpec(MediumKind.KERR, 5.0)
CUBIC = MediumSpec(MediumKind.CUBIC, 5.0)
NO_DAMP = DampingSpec(DampingChannel.NONE, 0.0)


def padded_rho(dim=15, alpha_sq=3.0, p=3, delta=0.25 * math.pi):
    alpha = math.sqrt(alpha_sq) * np.exp(1j * delta)
    return density_from_pure(
        InitialStateSpec(StateKind.PHOTON_ADDED, alpha, p=p).build(dim)
    )


def coherent_rho(dim=12, alpha_sq=2.0):
    return density_from_pure(
        InitialStateSpec(StateKind.COHERENT, math.sqrt(alpha_sq)).build(dim)
    )


# --- spec types -------------------------------------------------------------


def test_medium_spec_validation():
    assert KERR.phase_exponents(4).tolist() == [0.0, 0.0, 2.0, 6.0]
    assert CUBIC.phase_exponents(5).tolist() == [0.0, 0.0, 0.0, 6.0, 24.0]
    with pytest.raises(ValidationError):
        MediumSpec(MediumKind.KERR, 0.0)
    with pytest.raises(ValidationError):
        MediumSpec(MediumKind.KERR, -1.0)
    with pytest.raises(ValidationError):
        MediumSpec("kerr", 5.0)


def test_damping_spec_gamma_channel_consistency():
    DampingSpec(DampingChannel.NONE, 0.0)
    DampingSpec(DampingChannel.AMPLITUDE, 0.1)
    with pytest.raises(ValidationError):
        DampingSpec(DampingChannel.NONE, 0.1)
    with pytest.raises(ValidationError):
        DampingSpec(DampingChannel.AMPLITUDE, 0.0)
    with pytest.raises(ValidationError):
        DampingSpec(DampingChannel.PHASE, -0.5)


def test_time_grid():
    grid = TimeGrid(0.0, 1.0, 5)
    assert np.allclose(grid.values, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert grid.dt == 0.25
    with pytest.raises(ValidationError):
        TimeGrid(-0.1, 1.0, 5)
    with pytest.raises(ValidationError):
        TimeGrid(1.0, 1.0, 5)
    with pytest.raises(ValidationError):
        TimeGrid(0.0, 1.0, 1)


def test_revival_time():
    assert revival_time(KERR) == pytest.approx(math.pi / 5.0, rel=1e-15)
    assert revival_time(MediumSpec(MediumKind.CUBIC, 2.0)) == pytest.approx(
        math.pi / 2.0, rel=1e-15
    )


# --- revival algebra --------------------------------------------------------


def test_kerr_full_revival_is_exact():
    rho0 = padded_rho(dim=40)
    rho_t = propagate_unitary(rho0, KERR, revival_time(KERR))
    assert np.max(np.abs(rho_t.elements - rho0.elements)) < 1e-12


def test_cubic_revives_at_one_third_period():
    rho0 = padded_rho(dim=40)
    t_rev = revival_time(CUBIC)
    rho_t = propagate_unitary(rho0, CUBIC, t_rev / 3.0)
    assert np.max(np.abs(rho_t.elements - rho0.elements)) < 1e-12
    rho_full = propagate_unitary(rho0, CUBIC, t_rev)
    assert np.max(np.abs(rho_full.elements - rho0.elements)) < 1e-12


def test_cubic_evolution_mirror_symmetry():
    # for a real initial matrix, rho(T - t) = conj(rho(t))
    rho0 = density_from_pure(
        InitialStateSpec(StateKind.EVEN_COHERENT, math.sqrt(3.0)).build(30)
    )
    t_rev = revival_time(CUBIC)
    t = 0.3 * t_rev
    late = propagate_unitary(rho0, CUBIC, t_rev - t)
    early = propagate_unitary(rho0, CUBIC, t)
    assert np.max(np.abs(late.elements - early.elements.conj())) < 1e-12


# --- phase damping ----------------------------------------------------------


def test_phase_damping_preserves_populations_exactly():
    rho0 = coherent_rho()
    rho_t = propagate_phase_damping(rho0, KERR, 0.1, 0.37)
    assert np.array_equal(
        np.real(np.diagonal(rho_t.elements)), np.real(np.diagonal(rho0.elements))
    )


def test_phase_damping_offdiagonal_factor():
    gamma, t = 0.1, 0.37
    rho0 = coherent_rho()
    rho_t = propagate_phase_damping(rho0, KERR, gamma, t)
    n = np.arange(rho0.dim)
    phi = KERR.phase_exponents(rho0.dim)
    expected = rho0.elements * np.exp(
        -1j * KERR.chi * (phi[:, None] - phi[None, :]) * t
        - 0.5 * gamma * (n[:, None] - n[None, :]) ** 2 * t
    )
    assert np.max(np.abs(rho_t.elements - expected)) < 1e-15


# --- closed forms vs the reference integrator -------------------------------


def test_unitary_matches_reference():
    rho0 = padded_rho()
    t = revival_time(KERR) / 3.0
    ref = integrate_master(rho0, KERR, NO_DAMP, t)
    cand = propagate_unitary(rho0, KERR, t)
    assert np.max(np.abs(cand.elements - ref.elements)) < 1e-10


def test_phase_damping_matches_reference():
    rho0 = padded_rho()
    t = revival_time(KERR) / 3.0
    ref = integrate_master(rho0, KERR, DampingSpec(DampingChannel.PHASE, 0.1), t)
    cand = propagate_phase_damping(rho0, KERR, 0.1, t)
    assert np.max(np.abs(cand.elements - ref.elements)) < 1e-10


def test_kerr_exact_amplitude_matches_reference():
    rho0 = padded_rho()
    t = revival_time(KERR) / 2.0
    ref = integrate_master(rho0, KERR, DampingSpec(DampingChannel.AMPLITUDE, 0.1), t)
    cand = coherence_block_solve(rho0, KERR, 0.1, t)
    assert np.max(np.abs(cand.elements - ref.elements)) < 1e-10


def test_cubic_exact_amplitude_matches_reference():
    rho0 = coherent_rho(dim=12)
    t = revival_time(CUBIC) / 8.0
    ref = integrate_master(rho0, CUBIC, DampingSpec(DampingChannel.AMPLITUDE, 0.1), t)
    cand = coherence_block_solve(rho0, CUBIC, 0.1, t)
    assert np.max(np.abs(cand.elements - ref.elements)) < 1e-10


def test_closed_form_amplitude_is_exact_on_populations_only():
    rho0 = padded_rho()
    t = revival_time(KERR) / 2.0
    ref = integrate_master(rho0, KERR, DampingSpec(DampingChannel.AMPLITUDE, 0.1), t)
    closed = propagate_amplitude_damping_closed(rho0, KERR, 0.1, t)
    diag_dev = np.max(np.abs(np.diag(closed.elements) - np.diag(ref.elements)))
    assert diag_dev < 1e-10
    # the single real weight ignores the d-dependent phase in the
    # off-diagonal cascade; the discrepancy is structural, not noise
    off_dev = np.max(np.abs(closed.elements - ref.elements))
    assert off_dev > 1e-3


def test_closed_form_reduces_to_unitary_without_damping():
    rho0 = padded_rho()
    t = 0.123
    a = propagate_amplitude_damping_closed(rho0, KERR, 0.0, t)
    b = propagate_unitary(rho0, KERR, t)
    assert np.max(np.abs(a.elements - b.elements)) < 1e-14


def test_factorial_variant_breaks_trace():
    amps = np.zeros(6)
    amps[2] = 1.0
    fock2 = density_from_pure(FockVector(6, amps))
    raw = amplitude_damping_factorial_variant(fock2, KERR, 1.0, 1.0)
    w = 1.0 - math.exp(-1.0)
    # ground-state population comes out w^2/2 instead of w^2
    assert abs(raw[0, 0].real - w**2 / 2.0) < 1e-12
    trace_dev = abs(np.trace(raw).real - 1.0)
    assert abs(trace_dev - w**2 / 2.0) < 1e-12
    assert trace_dev > 1e-2
    exact = coherence_block_solve(fock2, KERR, 1.0, 1.0)
    assert abs(exact.elements[0, 0].real - w**2) < 1e-12


def test_exact_solver_small_time_expansion():
    # exercises the cancellation-safe small-|z| branch of the Kerr weights
    rho0 = padded_rho()
    damping = DampingSpec(DampingChannel.AMPLITUDE, 0.1)
    t = 1e-12
    rho_t = coherence_block_solve(rho0, KERR, 0.1, t)
    first_order = rho0.elements + t * lindblad_rhs(rho0, KERR, damping)
    assert np.max(np.abs(rho_t.elements - first_order)) < 1e-13


def test_amplitude_asymptote_reaches_vacuum():
    rho0 = padded_rho(dim=20)
    rho_inf = coherence_block_solve(rho0, KERR, 0.5, 60.0)
    assert rho_inf.elements[0, 0].real > 1.0 - 1e-9
    assert abs(rho_inf.trace() - 1.0) < 1e-12


@pytest.mark.parametrize("medium", [KERR, CUBIC], ids=["kerr", "cubic"])
def test_evolved_states_stay_positive_semidefinite(medium):
    rho0 = padded_rho(dim=25, alpha_sq=4.0)
    evolved = [
        propagate_unitary(rho0, medium, 0.37),
        propagate_phase_damping(rho0, medium, 0.2, 0.9),
        coherence_block_solve(rho0, medium, 0.2, 0.9),
    ]
    for rho_t in evolved:
        smallest = float(np.linalg.eigvalsh(rho_t.elements)[0])
        assert smallest > -1e-10
        assert rho_t.purity() <= 1.0 + 1e-10


@pytest.mark.parametrize("medium", [KERR, CUBIC], ids=["kerr", "cubic"])
def test_propagators_compose_as_semigroups(medium):
    rho0 = padded_rho(dim=20, alpha_sq=4.0)
    t1, t2 = 0.23, 0.41

    once = propagate_unitary(rho0, medium, t1 + t2)
    twice = propagate_unitary(propagate_unitary(rho0, medium, t1), medium, t2)
    assert np.max(np.abs(once.elements - twice.elements)) < 1e-12

    once = propagate_phase_damping(rho0, medium, 0.3, t1 + t2)
    twice = propagate_phase_damping(
        propagate_phase_damping(rho0, medium, 0.3, t1), medium, 0.3, t2
    )
    assert np.max(np.abs(once.elements - twice.elements)) < 1e-12

    once = coherence_block_solve(rho0, medium, 0.3, t1 + t2)
    twice = coherence_block_solve(
        coherence_block_solve(rho0, medium, 0.3, t1), medium, 0.3, t2
    )
    assert np.max(np.abs(once.elements - twice.elements)) < 1e-12


def test_unitary_recurrence_from_any_start():
    # periodicity holds along the whole orbit, not just from t=0
    for medium in (KERR, CUBIC):
        rho0 = coherent_rho(dim=20)
        t_rev = revival_time(medium)
        later = propagate_unitary(rho0, medium, 0.37 + t_rev)
        early = propagate_unitary(rho0, medium, 0.37)
        assert np.max(np.abs(later.elements - early.elements)) < 1e-10


def test_amplitude_exact_states_stepping_matches_per_time():
    rho0 = coherent_rho(dim=12)
    times = np.linspace(0.0, 0.2, 6)
    stepped = amplitude_exact_states(rho0, CUBIC, 0.1, times)
    for t, rho_step in zip(times, stepped):
        direct = coherence_block_solve(rho0, CUBIC, 0.1, float(t))
        assert np.max(np.abs(rho_step.elements - direct.elements)) < 1e-10


def test_amplitude_exact_states_stepping_matches_per_time_at_production_size():
    # the dim and damping rate of the cubic amplitude-damping presets, out
    # to gamma*t = 10 over 200 steps
    rho0 = padded_rho(dim=60, alpha_sq=5.0, p=3)
    times = np.linspace(0.0, 100.0, 201)
    states = amplitude_exact_states(rho0, CUBIC, 0.1, times)
    assert iter(states) is states  # produced lazily, not held as a list
    checked = 0
    for t, rho_step in zip(times, states):
        if t in (1.0, 10.0, 100.0):
            direct = coherence_block_solve(rho0, CUBIC, 0.1, float(t))
            assert np.max(np.abs(rho_step.elements - direct.elements)) < 1e-12
            checked += 1
    assert checked == 3


def test_amplitude_exact_states_validation():
    rho0 = coherent_rho(dim=8)
    with pytest.raises(ValidationError):
        amplitude_exact_states(rho0, KERR, 0.1, np.array([-1.0, 0.0]))
    with pytest.raises(ValidationError):
        amplitude_exact_states(rho0, KERR, 0.1, np.array([]))


# --- generator and reference integrator -------------------------------------


def test_lindblad_rhs_is_traceless():
    rho0 = padded_rho(dim=12)
    for damping in (
        NO_DAMP,
        DampingSpec(DampingChannel.AMPLITUDE, 0.3),
        DampingSpec(DampingChannel.PHASE, 0.3),
    ):
        rhs = lindblad_rhs(rho0, KERR, damping)
        assert abs(np.trace(rhs)) < 1e-13
        # generator maps hermitian to hermitian
        assert np.max(np.abs(rhs - rhs.conj().T)) < 1e-14


def test_integrate_master_guards():
    rho_big = coherent_rho(dim=41)
    with pytest.raises(ValidationError):
        integrate_master(rho_big, KERR, NO_DAMP, 0.1)
    rho0 = coherent_rho(dim=8)
    with pytest.raises(ValidationError):
        integrate_master(rho0, KERR, NO_DAMP, 0.1, substeps=0)
    same = integrate_master(rho0, KERR, NO_DAMP, 0.0)
    assert np.array_equal(same.elements, rho0.elements)


def test_integrate_master_trace_drift_is_tiny():
    rho0 = padded_rho(dim=12)
    out = integrate_master(rho0, KERR, DampingSpec(DampingChannel.AMPLITUDE, 0.1), 0.3)
    assert abs(out.trace() - 1.0) < 1e-12


def test_propagator_time_validation():
    rho0 = coherent_rho(dim=8)
    with pytest.raises(ValidationError):
        propagate_phase_damping(rho0, KERR, 0.1, -0.1)
    with pytest.raises(ValidationError):
        coherence_block_solve(rho0, KERR, -0.1, 0.1)
    # unitary evolution may run backwards
    back = propagate_unitary(rho0, KERR, -0.2)
    fwd = propagate_unitary(back, KERR, 0.2)
    assert np.max(np.abs(fwd.elements - rho0.elements)) < 1e-14
