import math

import numpy as np
import pytest
import scipy.linalg

from nltomo.errors import NumericalInvariantError, ValidationError
from nltomo.evolve import (
    DampingChannel,
    DampingSpec,
    MediumKind,
    MediumSpec,
    TimeGrid,
    _CASCADE_TAIL,
    _block_generator,
    _cascade_bounds,
    _cascade_hankel,
    _cascade_lengths,
    _cubic_eigenbases,
    _eigenbasis,
    _from_blocks,
    coherence_block_solve,
    coherence_diagonals,
    expm,
    integrate_master,
    propagate_phase_damping,
    propagate_unitary,
    revival_time,
)
from nltomo.presets import preset_configs
from nltomo.states import (
    DensityMatrix,
    FockVector,
    InitialStateSpec,
    StateKind,
    density_from_pure,
)

from conftest import amplitude_damping_factorial_variant, evolved_states, lindblad_rhs

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
    # the cascade weight gamma * expm1(delta t) / delta needs no small-|z|
    # branch: it is first-order accurate at t = 1e-12 and exactly 0 at t = 0
    rho0 = padded_rho()
    damping = DampingSpec(DampingChannel.AMPLITUDE, 0.1)
    t = 1e-12
    first_order = rho0.elements + t * lindblad_rhs(rho0, KERR, damping)
    exact_0, exact_t = evolved_states(rho0, KERR, damping, np.array([0.0, t]))
    for rho_t in (coherence_block_solve(rho0, KERR, 0.1, t), exact_t):
        assert np.max(np.abs(rho_t.elements - first_order)) < 1e-13
    # the states are assembled from the lower triangle, with real
    # populations; rho0 is hermitian only to round-off
    lower = np.tril(rho0.elements, -1)
    expected = lower + lower.conj().T + np.diag(rho0.elements.diagonal().real)
    assert np.array_equal(exact_0.elements, expected)


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
    stepped = evolved_states(rho0, CUBIC, DampingSpec(DampingChannel.AMPLITUDE, 0.1), times)
    for t, rho_step in zip(times, stepped):
        direct = coherence_block_solve(rho0, CUBIC, 0.1, float(t))
        assert np.max(np.abs(rho_step.elements - direct.elements)) < 1e-10


_TO_GAMMA_T_10 = np.linspace(0.0, 100.0, 201)
_UNSORTED = np.array([100.0, 0.1, 10.0, 1.0])


@pytest.mark.parametrize(
    "medium, times",
    [
        pytest.param(KERR, _TO_GAMMA_T_10, id="kerr"),
        pytest.param(CUBIC, _TO_GAMMA_T_10, id="cubic"),
        pytest.param(KERR, _UNSORTED, id="kerr-unsorted"),
        pytest.param(CUBIC, _UNSORTED, id="cubic-unsorted"),
    ],
)
def test_amplitude_exact_states_stepping_matches_per_time_at_production_size(medium, times):
    # the dim and damping rate of the cubic amplitude-damping presets, in
    # both media, out to gamma*t = 10 over 200 steps, and on an unsorted,
    # non-uniform time list
    rho0 = padded_rho(dim=60, alpha_sq=5.0, p=3)
    states = evolved_states(rho0, medium, DampingSpec(DampingChannel.AMPLITUDE, 0.1), times)
    assert iter(states) is states  # produced lazily, not held as a list
    checked = 0
    for t, rho_step in zip(times, states):
        if t in (1.0, 10.0, 100.0):
            direct = coherence_block_solve(rho0, medium, 0.1, float(t))
            assert np.max(np.abs(rho_step.elements - direct.elements)) < 1e-12
            checked += 1
    assert checked == 3


def test_amplitude_exact_states_ill_conditioned_cubic_blocks():
    # at chi/gamma = 0.001 the eigenvectors of the cubic blocks are far too
    # ill-conditioned to expand in (an unguarded expansion is off by 23);
    # those blocks must take the dense exponential instead
    medium = MediumSpec(MediumKind.CUBIC, 0.001)
    rho0 = padded_rho(dim=70, alpha_sq=20.0, p=3)
    times = (0.01, 0.1, 0.5, 2.0)
    damping = DampingSpec(DampingChannel.AMPLITUDE, 1.0)
    for t, rho_t in zip(times, evolved_states(rho0, medium, damping, np.array(times))):
        direct = coherence_block_solve(rho0, medium, 1.0, t)
        assert np.max(np.abs(rho_t.elements - direct.elements)) < 1e-12


@pytest.mark.parametrize("preset", ["fig12", "fig13", "fig19"])
def test_closed_form_eigenbasis_of_the_cubic_blocks(preset):
    # every cubic block of the amplitude-damping presets, at their dim and rate
    cfg = preset_configs(preset)[0]
    assert cfg.medium.kind is MediumKind.CUBIC
    phi = cfg.medium.phase_exponents(cfg.dim)
    for d in range(1, cfg.dim):
        a, b = _block_generator(cfg.medium, phi, cfg.damping.gamma, d)
        V, V_inv = _eigenbasis(a, b)
        A = np.diag(a) + np.diag(b, 1)
        assert np.max(np.abs(A @ V - V * a)) < 1e-12
        assert np.max(np.abs(V @ V_inv - np.eye(a.size))) < 1e-12


def test_cubic_eigenbases_are_packed_read_only_and_kept_per_key():
    # one entry per block d >= 1: V in the upper triangle, V^{-1} transposed
    # strictly below, bit for bit those of _eigenbasis
    _cubic_eigenbases.cache_clear()
    packed = _cubic_eigenbases(CUBIC, 0.1, 30)
    assert len(packed) == 29
    phi = CUBIC.phase_exponents(30)
    for d, P in enumerate(packed, start=1):
        V, V_inv = _eigenbasis(*_block_generator(CUBIC, phi, 0.1, d))
        assert P.shape == (30 - d, 30 - d)
        assert np.array_equal(np.triu(P), V) and np.array_equal(np.triu(P.T), V_inv)
        assert not P.flags.writeable
        with pytest.raises(ValueError):
            P[0, 0] = 2.0
    # the ill-conditioned blocks of the fallback test are kept as None
    assert None in _cubic_eigenbases(MediumSpec(MediumKind.CUBIC, 0.001), 1.0, 70)

    # two keys are kept; a third evicts the least recently used
    _cubic_eigenbases.cache_clear()
    keys = [(CUBIC, 0.1, 12), (CUBIC, 0.2, 12), (MediumSpec(MediumKind.CUBIC, 4.0), 0.1, 12)]
    kept = [_cubic_eigenbases(*key) for key in keys]
    assert _cubic_eigenbases.cache_info().currsize == 2
    assert _cubic_eigenbases(*keys[2]) is kept[2]
    assert _cubic_eigenbases(*keys[1]) is kept[1]
    assert _cubic_eigenbases(*keys[0]) is not kept[0]
    assert all(np.array_equal(P, Q) for P, Q in zip(_cubic_eigenbases(*keys[0]), kept[0]))


def test_cubic_diagonals_do_not_depend_on_the_state_before():
    # state B after state A at the same (medium, gamma, dim) reads A's
    # eigenbases, and gets B's diagonals bit for bit as on a cleared cache
    damping = DampingSpec(DampingChannel.AMPLITUDE, 0.1)
    state_a = padded_rho(dim=30, alpha_sq=3.0, p=3)
    state_b = padded_rho(dim=30, alpha_sq=2.0, p=1, delta=1.1)
    times = np.linspace(0.0, 2.0, 70)

    def diagonal_bytes(rho):
        chunks = coherence_diagonals(rho, CUBIC, damping, times)
        return [x.tobytes() for _, diagonals in chunks for x in diagonals]

    _cubic_eigenbases.cache_clear()
    fresh = diagonal_bytes(state_b)
    _cubic_eigenbases.cache_clear()
    diagonal_bytes(state_a)
    assert diagonal_bytes(state_b) == fresh
    assert _cubic_eigenbases.cache_info().misses == 1  # built once, for A


def test_amplitude_exact_states_stepping_keeps_trace():
    # fig8 size: the trace holds to round-off over all 700 states of the
    # Kerr cascade at dim 100
    rho0 = padded_rho(dim=100, alpha_sq=40.0, p=3)
    times = np.linspace(0.0, 0.55 * revival_time(KERR), 700)
    damping = DampingSpec(DampingChannel.AMPLITUDE, 0.05)
    drift = max(abs(rho_t.trace() - 1.0) for rho_t in evolved_states(rho0, KERR, damping, times))
    assert drift < 1e-13


def test_amplitude_exact_states_matches_reference_at_fig8_size():
    # the Kerr cascade at dim 100 against the dense per-block exponential,
    # at three times of the fig8 grid up to its end at 0.55 T_rev
    rho0 = padded_rho(dim=100, alpha_sq=40.0, p=3)
    times = np.linspace(0.0, 0.55 * revival_time(KERR), 700)[[233, 466, 699]]
    damping = DampingSpec(DampingChannel.AMPLITUDE, 0.05)
    for t, rho_t in zip(times, evolved_states(rho0, KERR, damping, times)):
        direct = coherence_block_solve(rho0, KERR, 0.05, float(t))
        assert np.max(np.abs(rho_t.elements - direct.elements)) < 1e-12


@pytest.mark.parametrize(
    "medium, dim, gamma, alpha_sq, times",
    [
        pytest.param(KERR, 100, 0.05, 40.0, np.array([0.1, 0.3, 0.55]) * math.pi / 5.0, id="fig8"),
        pytest.param(CUBIC, 60, 0.1, 5.0, np.array([0.1, 1.0, 10.0, 100.0]), id="fig13"),
        pytest.param(CUBIC, 70, 0.05, 5.0, np.array([0.1, 0.2, 0.35]) * math.pi / 5.0, id="fig19"),
    ],
)
def test_phase_table_matches_block_reference_at_preset_size(medium, dim, gamma, alpha_sq, times):
    # every amplitude-damping block reads e^{t a} from one Fock phase table
    # per chunk; at the presets' dim, rate and times (the fig13 dump times
    # reach gamma*t = 10) the states stay within 1e-13 of the dense per-block
    # exponential
    rho0 = padded_rho(dim=dim, alpha_sq=alpha_sq, p=3)
    damping = DampingSpec(DampingChannel.AMPLITUDE, gamma)
    for t, rho_t in zip(times, evolved_states(rho0, medium, damping, times)):
        direct = coherence_block_solve(rho0, medium, gamma, float(t))
        assert np.max(np.abs(rho_t.elements - direct.elements)) < 1e-13


# --- truncated binomial cascade ---------------------------------------------


def padded_diagonals(rho0, blocks):
    """The first ``blocks`` diagonals x_d(0), each followed by dim - d - 1 zeros."""
    return [
        np.append(np.diagonal(rho0.elements, -d), np.zeros(rho0.dim - d - 1, complex))
        for d in range(blocks)
    ]


def cascade_weights(medium, gamma, times, blocks):
    """w_d(t) = gamma (e^{delta_d t} - 1) / delta_d, delta_d = -(gamma + 2i chi d), (T, blocks)."""
    delta = -(gamma + 2j * medium.chi * np.arange(blocks))
    return gamma * np.expm1(np.multiply.outer(times, delta)) / delta


def cascade_coefficients(x0, d):
    """C[k, j] = H[k, j] x_{j+k}(0) of block d, zero where j + k >= J, all J rows."""
    hankel = np.array([np.append(x0[k:], np.zeros(k)) for k in range(x0.size)])
    return _cascade_hankel(x0.size + d, d) * hankel


def cascade_terms(x0, d, w):
    """Term k of the cascade sum of block d, w^k H[k, j] x_{j+k}(0), as (J, T, J)."""
    powers = np.power.outer(w, np.arange(x0.size)).T
    return powers[:, :, None] * cascade_coefficients(x0, d)[:, None, :]


def test_truncated_cascade_equals_the_full_sum_at_fig8_size():
    # every Kerr block over the full fig8 grid (3 x 700 times per preset,
    # dim 100) against the cascade summed over all J = dim - d powers with the
    # same e^{t a} table: the summed terms stop where the dropped ones are
    # bounded by 2^-60, so the two agree to round-off
    rho0 = padded_rho(dim=100, alpha_sq=40.0, p=3)
    dim, gamma = rho0.dim, 0.05
    times = np.linspace(0.0, 0.55 * revival_time(KERR), 700)
    rate = -1j * KERR.chi * KERR.phase_exponents(dim) - 0.5 * gamma * np.arange(dim)
    damping = DampingSpec(DampingChannel.AMPLITUDE, gamma)
    worst = 0.0
    for chunk, diagonals in coherence_diagonals(rho0, KERR, damping, times):
        table = np.exp(np.multiply.outer(chunk, rate))
        w = cascade_weights(KERR, gamma, chunk, dim)
        for d, x_d in enumerate(diagonals):
            J = dim - d
            C = cascade_coefficients(np.diagonal(rho0.elements, -d), d)
            full = table[:, d:] * table[:, :J].conj() * (np.vander(w[:, d], J, increasing=True) @ C)
            worst = max(worst, float(np.max(np.abs(x_d - full))))
    assert worst <= 1e-15


def test_cascade_bound_covers_the_dropped_tail(rng):
    # on random mixed states, rates and times, sum_{k >= K} max|w|^k B[d, k]
    # bounds every entry's dropped tail for every K, and the chosen length is
    # the smallest K whose bound meets 2^-60
    for trial in range(4):
        dim = int(rng.integers(8, 25))
        A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho0 = DensityMatrix(dim, (A @ A.conj().T) / np.trace(A @ A.conj().T).real)
        medium = MediumSpec(MediumKind.KERR, float(rng.uniform(0.1, 5.0)))
        gamma = float(rng.uniform(0.01, 1.0))
        times = rng.uniform(0.0, 3.0 / gamma, size=5)
        w = cascade_weights(medium, gamma, times, dim)
        w_max = np.abs(w).max(axis=0)
        assert np.all(w_max < 1.0)
        bounds = _cascade_bounds(padded_diagonals(rho0, dim), dim)
        lengths = _cascade_lengths(w_max, bounds)
        for d in range(dim):
            J = dim - d
            terms = cascade_terms(np.diagonal(rho0.elements, -d), d, w[:, d])
            dropped = np.abs(np.cumsum(terms[::-1], axis=0)[::-1]).max(axis=(1, 2))  # k >= K
            bound = np.cumsum((w_max[d] ** np.arange(J) * bounds[d, :J])[::-1])[::-1]
            assert np.all(dropped <= bound * (1.0 + 1e-12)), (trial, d)
            K = int(lengths[d])
            assert 1 <= K <= J
            assert K == J or bound[K] <= _CASCADE_TAIL
            assert K == 1 or bound[K - 1] > _CASCADE_TAIL


def test_fig13_population_block_lengths_follow_gamma_t_and_the_state():
    # at the fig13 dump times the weight of the population block is
    # 1 - e^{-gamma t}, and the summed length grows with it; at gamma*t = 10
    # (w = 1 - e^{-10}) the cut falls where the populations of the
    # 3-photon-added state vanish, and a state with half its weight in the
    # top Fock level meets no shorter bound, so it takes all J = dim terms
    cfg = preset_configs("fig13")[0]
    rho0 = density_from_pure(cfg.initial_state.build(cfg.dim))
    top = 0.5 * rho0.elements
    top[-1, -1] += 0.5
    gamma = cfg.damping.gamma

    def length(rho, gamma_t):
        w = cascade_weights(cfg.medium, gamma, np.array([0.0, gamma_t / gamma]), 1)
        bounds = _cascade_bounds(padded_diagonals(rho, 1), cfg.dim)
        return int(_cascade_lengths(np.abs(w).max(axis=0), bounds)[0])

    lengths = [length(rho0, gamma_t) for gamma_t in (0.01, 0.1, 1.0, 10.0)]
    assert lengths == sorted(lengths) and lengths[0] < lengths[-1] < cfg.dim
    assert length(DensityMatrix(cfg.dim, top), 10.0) == cfg.dim


@pytest.mark.parametrize("medium, blocks", [(KERR, 40), (CUBIC, 1)])
def test_a_chunk_of_only_t_zero_returns_the_initial_diagonals_exactly(medium, blocks):
    # the cascades: every Kerr block and the cubic population block
    rho0 = padded_rho(dim=40, alpha_sq=5.0, p=3)
    damping = DampingSpec(DampingChannel.AMPLITUDE, 0.1)
    ((chunk, diagonals),) = coherence_diagonals(rho0, medium, damping, np.array([0.0]))
    for d, x_d in zip(range(blocks), diagonals):
        assert np.array_equal(x_d, np.diagonal(rho0.elements, -d)[None]), d


def test_amplitude_exact_states_validation():
    rho0 = coherent_rho(dim=8)
    damping = DampingSpec(DampingChannel.AMPLITUDE, 0.1)
    with pytest.raises(ValidationError):
        evolved_states(rho0, KERR, damping, np.array([-1.0, 0.0]))
    with pytest.raises(ValidationError):
        evolved_states(rho0, KERR, damping, np.array([]))


# --- matrix exponential -----------------------------------------------------


@pytest.mark.parametrize(
    "dim, gamma, t",
    [(60, 0.1, 0.1), (60, 0.1, 1.0), (60, 0.1, 10.0), (60, 0.1, 100.0), (70, 0.05, 1.0)],
)
def test_expm_matches_scipy_on_cubic_blocks(dim, gamma, t):
    # the bidiagonal generators of every cubic block d >= 1 at the settings
    # of the cubic amplitude-damping presets; without the diagonal reset
    # after each squaring, plain Taylor scaling and squaring is off by up
    # to 9.5e-11 here
    phi = CUBIC.phase_exponents(dim)
    worst = 0.0
    for d in range(1, dim):
        j = np.arange(dim - d)
        a = -1j * CUBIC.chi * (phi[j + d] - phi[j]) - 0.5 * gamma * (2 * j + d)
        b = gamma * np.sqrt((j[:-1] + d + 1.0) * (j[:-1] + 1.0))
        M = (np.diag(a) + np.diag(b, 1)) * t
        worst = max(worst, float(np.max(np.abs(expm(M) - scipy.linalg.expm(M)))))
    assert worst < 1e-14


@pytest.mark.parametrize("norm", [0.5, 5.0, 50.0])
def test_expm_matches_scipy_on_dense_complex_matrix(norm):
    rng = np.random.default_rng(8)
    M = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    M *= norm / np.linalg.norm(M, 1)
    ref = scipy.linalg.expm(M)
    assert np.linalg.norm(expm(M) - ref, 1) < 1e-12 * np.linalg.norm(ref, 1)


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


def test_unitary_propagation_is_undamped_dephasing_bit_for_bit(rng):
    # both run one elementwise body; gamma = 0 must leave the unitary factor
    # e^{-i chi [f(n)-f(m)] t} as that one term gives it, and only the
    # unitary propagator runs backwards
    for _ in range(60):
        medium = (KERR, CUBIC)[rng.integers(2)]
        dim = int(rng.integers(2, 111))
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        rho0 = density_from_pure(FockVector(dim, psi / np.linalg.norm(psi)))
        t = float(rng.uniform(0.0, 2.0))
        phi = medium.phase_exponents(dim)
        for s in (t, -t):
            one_term = rho0.elements * np.exp(-1j * medium.chi * (phi[:, None] - phi[None, :]) * s)
            unitary = propagate_unitary(rho0, medium, s).elements
            assert np.array_equal(unitary.view(np.float64), one_term.view(np.float64))
        dephased = propagate_phase_damping(rho0, medium, 0.0, t).elements
        assert np.array_equal(
            propagate_unitary(rho0, medium, t).elements.view(np.float64), dephased.view(np.float64)
        )
        with pytest.raises(ValidationError, match="time must be >= 0"):
            propagate_phase_damping(rho0, medium, 0.0, -t - 1e-3)


@pytest.mark.parametrize(
    "damping",
    [NO_DAMP, DampingSpec(DampingChannel.PHASE, 0.3), DampingSpec(DampingChannel.AMPLITUDE, 0.3)],
    ids=["none", "phase", "amplitude"],
)
@pytest.mark.parametrize("medium", [KERR, CUBIC], ids=["kerr", "cubic"])
def test_coherence_diagonals_are_those_of_the_states(medium, damping):
    rho0 = padded_rho(dim=12)
    times = np.linspace(0.0, 0.4, 70)
    amplitude = damping.channel is DampingChannel.AMPLITUDE
    if amplitude:
        states = [coherence_block_solve(rho0, medium, damping.gamma, t) for t in times]
    elif damping.channel is DampingChannel.PHASE:
        states = [propagate_phase_damping(rho0, medium, damping.gamma, t) for t in times]
    else:
        states = [propagate_unitary(rho0, medium, t) for t in times]
    chunks = list(coherence_diagonals(rho0, medium, damping, times))
    assert [chunk.size for chunk, _ in chunks] == [64, 6]
    start = 0
    for chunk, diagonals in chunks:
        assert np.array_equal(chunk, times[start : start + chunk.size])
        for d, x_d in enumerate(diagonals):
            want = np.array([np.diagonal(s.elements, -d) for s in states[start : start + chunk.size]])
            if amplitude:
                # the block series against the dense per-block exponential
                assert np.max(np.abs(x_d - want)) < 1e-13
            else:
                # bit for bit: the same elementwise factor
                assert np.array_equal(x_d, want)
        start += chunk.size
    with pytest.raises(ValidationError):
        coherence_diagonals(rho0, medium, damping, [])

    # the whole states assembled from those diagonals
    evolved = list(evolved_states(rho0, medium, damping, times))
    assert len(evolved) == times.size
    for rho_t, want in zip(evolved, states):
        if amplitude:
            assert np.max(np.abs(rho_t.elements - want.elements)) < 1e-13
            continue
        # the lower triangle bit for bit, the populations by their real
        # part; the upper triangle is assembled as the conjugate of the
        # lower one, so it differs from the reference by round-off only
        assert np.array_equal(np.tril(rho_t.elements, -1), np.tril(want.elements, -1))
        assert np.array_equal(np.diagonal(rho_t.elements), np.diagonal(want.elements).real)
        assert np.max(np.abs(rho_t.elements - want.elements)) <= 1e-15


def test_from_blocks_index_order_is_unchanged():
    dim = 7
    packed = np.arange(dim * (dim + 1) // 2) * (1.0 + 0.5j)
    first = _from_blocks(packed, dim)
    expected = np.zeros((dim, dim), dtype=np.complex128)
    start = 0
    for d in range(dim):
        seg = packed[start : start + dim - d]
        expected += np.diag(seg, -d) + (np.diag(seg.conj(), d) if d else 0)
        start += dim - d
    np.fill_diagonal(expected, packed[:dim].real)
    assert np.array_equal(first, expected)
    assert np.array_equal(_from_blocks(packed, dim), first)
