import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from nltomo.errors import NumericalInvariantError, ValidationError
from nltomo.evolve import (
    DampingChannel,
    DampingSpec,
    MediumKind,
    MediumSpec,
    _from_blocks,
    coherence_diagonals,
    propagate_phase_damping,
    propagate_unitary,
    revival_time,
)
from nltomo.presets import preset_configs
from nltomo.quantifiers import find_local_minima
from nltomo.runner import _records, _resolve_window
from nltomo.states import DensityMatrix, FockVector, InitialStateSpec, StateKind, density_from_pure
from nltomo.tomography import (
    QuadratureGrid,
    Tomogram,
    check_tomograms,
    conjugate_thetas,
    hermite_basis,
    suggested_grid,
    symmetric_grid,
    tomogram_of_density,
    tomograms_of_diagonals,
    uniform_thetas,
)

from conftest import (
    dense_tomogram,
    f_string_dump_text,
    laguerre_value,
    parse_dump,
    rotate_first_tomograms,
)

KERR = MediumSpec(MediumKind.KERR, 5.0)


def coherent_rho(alpha, dim):
    return density_from_pure(InitialStateSpec(StateKind.COHERENT, alpha).build(dim))


# --- grids -------------------------------------------------------------------


def test_quadrature_grid_validation():
    with pytest.raises(ValidationError):
        QuadratureGrid(1.0, -1.0, 100, (0.0,))
    with pytest.raises(ValidationError):
        QuadratureGrid(-1.0, 1.0, 1, (0.0,))
    with pytest.raises(ValidationError):
        QuadratureGrid(-1.0, 1.0, 100, ())
    with pytest.raises(ValidationError):
        QuadratureGrid(-1.0, 1.0, 100, (0.5, 0.5))  # not strictly increasing
    with pytest.raises(ValidationError):
        QuadratureGrid(-1.0, 1.0, 100, (0.0, 7.0))  # beyond 2*pi
    grid = QuadratureGrid(-2.0, 2.0, 5, (0.0, 1.0))
    assert np.allclose(grid.x, [-2, -1, 0, 1, 2])


def test_uniform_and_conjugate_thetas():
    thetas = uniform_thetas(4)
    assert np.allclose(thetas, [0.0, math.pi / 2, math.pi, 1.5 * math.pi])
    assert conjugate_thetas(0.0) == (0.0, math.pi / 2)
    a, b = conjugate_thetas(1.5 * math.pi)
    assert a == pytest.approx(1.5 * math.pi)
    assert b == pytest.approx(0.0, abs=1e-15)


def test_suggested_grid_rule():
    small = suggested_grid(0.0, (0.0,))
    assert (small.x_max, small.n_x) == (10.0, 200)
    ten = suggested_grid(10.0, (0.0,))
    assert (ten.x_max, ten.n_x) == (10.0, 200)
    forty = suggested_grid(40.0, (0.0,))
    assert (forty.x_max, forty.n_x) == (13.5, 271)
    heavy = suggested_grid(45.8, (0.0,))
    assert (heavy.x_max, heavy.n_x) == (14.5, 291)
    with pytest.raises(ValidationError):
        suggested_grid(-1.0, (0.0,))


# --- hermite functions -------------------------------------------------------


def test_hermite_basis_low_orders_explicit():
    x = np.linspace(-3, 3, 61)
    psi = hermite_basis(3, x)
    g = math.pi**-0.25 * np.exp(-0.5 * x * x)
    assert np.max(np.abs(psi[:, 0] - g)) < 1e-14
    assert np.max(np.abs(psi[:, 1] - math.sqrt(2.0) * x * g)) < 1e-14
    psi2 = (2.0 * x * x - 1.0) / math.sqrt(2.0) * g
    assert np.max(np.abs(psi[:, 2] - psi2)) < 1e-13


def test_hermite_orthonormality_default_window():
    # the default [-10, 10] x 200 window resolves modes up to n ~ 35;
    # higher modes leak measurable mass past the window edge
    x = np.linspace(-10, 10, 200)
    psi = hermite_basis(36, x)
    gram = np.trapezoid(psi[:, :, None] * psi[:, None, :], x, axis=0)
    assert np.max(np.abs(gram - np.eye(36))) < 1e-6


def test_hermite_orthonormality_wide_window_to_n100():
    x = np.linspace(-18, 18, 721)
    psi = hermite_basis(101, x)
    gram = np.trapezoid(psi[:, :, None] * psi[:, None, :], x, axis=0)
    assert np.max(np.abs(gram - np.eye(101))) < 1e-12


def test_hermite_stays_bounded_at_high_order():
    x = np.linspace(-20, 20, 801)
    psi = hermite_basis(150, x)
    assert np.all(np.isfinite(psi))
    assert np.max(np.abs(psi)) < 1.0  # oscillator functions peak below 1


# --- tomograms ---------------------------------------------------------------


def test_vacuum_tomogram_is_squared_gaussian():
    rho = coherent_rho(0.0, 10)
    grid = symmetric_grid(8.0, 161, uniform_thetas(8))
    tomo = tomogram_of_density(rho, grid)
    expected = np.exp(-grid.x**2) / math.sqrt(math.pi)
    for i in range(grid.n_theta):
        assert np.max(np.abs(tomo.values[i] - expected)) < 1e-10


def test_coherent_tomogram_is_shifted_gaussian():
    alpha_sq, delta = 4.0, 0.7
    alpha = math.sqrt(alpha_sq) * np.exp(1j * delta)
    rho = coherent_rho(alpha, 40)
    thetas = (0.0, 0.4, 1.1, 2.0)
    grid = symmetric_grid(10.0, 401, thetas)
    tomo = tomogram_of_density(rho, grid)
    for i, theta in enumerate(thetas):
        center = math.sqrt(2.0 * alpha_sq) * math.cos(delta - theta)
        expected = np.exp(-((grid.x - center) ** 2)) / math.sqrt(math.pi)
        assert np.max(np.abs(tomo.values[i] - expected)) < 1e-10


def test_fock_one_tomogram_closed_form():
    amps = np.zeros(12)
    amps[1] = 1.0
    rho = density_from_pure(FockVector(12, amps))
    grid = symmetric_grid(9.0, 301, (0.0, 1.3))
    tomo = tomogram_of_density(rho, grid)
    expected = 2.0 * grid.x**2 * np.exp(-grid.x**2) / math.sqrt(math.pi)
    for i in range(2):  # theta-independent for a Fock state
        assert np.max(np.abs(tomo.values[i] - expected)) < 1e-12


def _even_coherent_case():
    psi = InitialStateSpec(StateKind.EVEN_COHERENT, math.sqrt(10.0)).build(60)
    return psi.amplitudes, density_from_pure(psi), symmetric_grid(10.0, 200, uniform_thetas(6))


def _kerr_photon_added_case():
    # production size with a complex rho: a real-part-only slice misses by ~0.1
    alpha = math.sqrt(40.0) * np.exp(0.25j * math.pi)
    psi = InitialStateSpec(StateKind.PHOTON_ADDED, alpha, p=3).build(100)
    t = 0.13 * revival_time(KERR)
    rho = propagate_unitary(density_from_pure(psi), KERR, t)
    c = psi.amplitudes * np.exp(-1j * KERR.chi * KERR.phase_exponents(100) * t)
    return c, rho, symmetric_grid(13.5, 271, uniform_thetas(6))


@pytest.mark.parametrize(
    "case", [_even_coherent_case, _kerr_photon_added_case], ids=["even_d60", "kerr_photon_added_d100"]
)
def test_pure_and_density_paths_agree(case):
    c, rho, grid = case()
    basis = hermite_basis(rho.dim, grid.x)
    n = np.arange(rho.dim)
    pure = np.array([np.abs(basis @ (c * np.exp(-1j * th * n))) ** 2 for th in grid.thetas])
    tomo = tomogram_of_density(rho, grid)
    assert np.max(np.abs(pure - tomo.values)) < 1e-12


def test_reflection_symmetry_after_evolution():
    rho0 = coherent_rho(math.sqrt(5.0) * np.exp(0.25j * math.pi), 40)
    rho = propagate_unitary(rho0, KERR, 0.31 * revival_time(KERR))
    theta = 0.3
    grid = symmetric_grid(10.0, 201, (theta, theta + math.pi))
    tomo = tomogram_of_density(rho, grid)
    assert np.max(np.abs(tomo.values[1] - tomo.values[0][::-1])) < 1e-12


def test_even_state_tomogram_has_x_parity():
    # even superpositions give even quadrature distributions at every phase
    psi = InitialStateSpec(StateKind.EVEN_COHERENT, math.sqrt(10.0) * np.exp(0.25j * math.pi)).build(60)
    grid = symmetric_grid(10.0, 201, uniform_thetas(6))
    tomo = tomogram_of_density(density_from_pure(psi), grid)
    assert np.max(np.abs(tomo.values - tomo.values[:, ::-1])) < 1e-12


def test_slice_normalization_on_adequate_grid():
    rho = density_from_pure(
        InitialStateSpec(StateKind.EVEN_COHERENT, math.sqrt(10.0)).build(60)
    )
    grid = symmetric_grid(10.0, 200, uniform_thetas(16))
    tomo = tomogram_of_density(rho, grid)
    assert np.max(np.abs(np.trapezoid(tomo.values, tomo.grid.x, axis=1) - 1.0)) < 1e-10


def test_narrow_window_raises():
    rho = coherent_rho(math.sqrt(20.0), 80)
    grid = symmetric_grid(4.0, 81, (0.0,))
    with pytest.raises(NumericalInvariantError):
        tomogram_of_density(rho, grid)


def test_marginal_window_warns():
    # coherent |alpha|^2=20 at delta=0: the theta=0 slice sits 5.2 sigma
    # from the edge of the default window, leaving ~1e-7 mass outside
    rho = coherent_rho(math.sqrt(20.0), 80)
    grid = symmetric_grid(10.0, 200, (0.0,))
    with pytest.warns(RuntimeWarning, match="off-grid"):
        tomogram_of_density(rho, grid)


def test_tomogram_negativity_guard():
    grid = symmetric_grid(1.0, 11, (0.0,))
    values = np.full((1, 11), 0.5)
    values[0, 5] = -1e-6
    with pytest.raises(NumericalInvariantError):
        Tomogram(grid, values)
    with pytest.raises(ValidationError):
        Tomogram(grid, np.ones((2, 11)))


def test_grid_points_and_thetas_are_cached_read_only():
    x = QuadratureGrid(-5.0, 5.0, 101).x
    assert x is QuadratureGrid(-5.0, 5.0, 101, (1.0,)).x
    assert not x.flags.writeable
    assert np.array_equal(x, np.linspace(-5.0, 5.0, 101))
    assert uniform_thetas(3) is uniform_thetas(3)
    # the argument is checked before the cache is consulted
    with pytest.raises(ValidationError):
        uniform_thetas(3.0)


def test_tomograms_of_diagonals_match_tomogram_of_density():
    # both branches of the kernel (rotate first on two phases, contract the
    # basis first on more), on one and on five mixed states, on a symmetric
    # and on a user grid, against the dense formula
    rho0 = density_from_pure(InitialStateSpec(StateKind.PHOTON_ADDED, 1.2 + 0.7j, 2).build(30))
    for thetas in (conjugate_thetas(0.0), uniform_thetas(128)):
        for window in ((-9.0, 9.0, 181), (-7.5, 9.0, 170)):
            grid = QuadratureGrid(*window, thetas)
            for T in (1, 5):
                states = [propagate_phase_damping(rho0, KERR, 0.3, 0.05 * k) for k in range(T)]
                diagonals = (np.array([np.diagonal(r.elements, -d) for r in states]) for d in range(30))
                values = tomograms_of_diagonals(diagonals, grid)
                assert values.shape == (len(thetas), T, grid.n_x)
                for k, rho in enumerate(states):
                    want = dense_tomogram(rho, grid)
                    assert np.max(np.abs(values[:, k] - want)) < 1e-13
                    assert np.max(np.abs(tomogram_of_density(rho, grid).values - want)) < 1e-13


@pytest.mark.parametrize(
    "thetas, window, mirrored",
    [
        (uniform_thetas(128), (-9.0, 9.0, 181), True),
        (uniform_thetas(16), (-6.0, 6.0, 120), True),
        (uniform_thetas(127), (-9.0, 9.0, 181), False),
        (uniform_thetas(128), (-7.5, 9.0, 170), False),
        ((0.0, 1.0, 2.0, math.pi + 1e-9, math.pi + 1.0, math.pi + 2.0), (-9.0, 9.0, 181), False),
    ],
    ids=["even128", "even16", "odd127", "asymmetric", "not_pi_closed"],
)
def test_pi_closed_grids_compute_half_the_phases_and_mirror_the_rest(thetas, window, mirrored):
    # omega(x, theta + pi) = omega(-x, theta): on an even grid closed under
    # theta -> theta + pi and a symmetric window, the second half of the slices
    # is the first reversed in x, bit for bit; every slice, mirrored or not,
    # matches the dense formula
    rho0 = density_from_pure(InitialStateSpec(StateKind.PHOTON_ADDED, 1.2 + 0.7j, 2).build(30))
    states = [propagate_phase_damping(rho0, KERR, 0.3, 0.05 * k) for k in range(3)]
    grid = QuadratureGrid(*window, thetas)
    diagonals = (np.array([np.diagonal(r.elements, -d) for r in states]) for d in range(30))
    values = tomograms_of_diagonals(diagonals, grid)
    h = grid.n_theta // 2
    if grid.n_theta % 2 == 0:
        assert np.array_equal(values[h:], values[:h, :, ::-1]) == mirrored
    for k, rho in enumerate(states):
        assert np.max(np.abs(values[:, k] - dense_tomogram(rho, grid))) < 1e-13


@pytest.mark.parametrize("thetas", [conjugate_thetas(0.3), uniform_thetas(128)], ids=["two", "pi_closed128"])
@pytest.mark.parametrize(
    "window",
    [(-10.0, 10.0, 200), (-13.5, 13.5, 271), (-14.5, 14.5, 291), (-7.5, 9.0, 170)],
    ids=["even200", "odd271", "odd291", "asymmetric"],
)
def test_parity_split_kernel_matches_the_dense_formula(thetas, window):
    # psi_{j+d} psi_j has the parity of d: on a symmetric window the kernel forms it on
    # x >= 0 only (x = 0 included when n_x is odd) and writes omega(-x) = E - O; the
    # asymmetric window takes the same loop on every column.  Mixed amplitude-damped
    # states, with and without the pi-mirror of the 128 phases
    rho0 = density_from_pure(InitialStateSpec(StateKind.PHOTON_ADDED, 2.0 * np.exp(0.4j), 2).build(40))
    times = 0.07 * np.arange(5) * revival_time(KERR)
    _, diagonals = next(coherence_diagonals(rho0, KERR, DampingSpec(DampingChannel.AMPLITUDE, 0.3), times))
    diagonals = list(diagonals)
    states = [DensityMatrix(40, _from_blocks(row, 40)) for row in np.concatenate(diagonals, axis=1)]
    grid = QuadratureGrid(*window, thetas)
    values = tomograms_of_diagonals(diagonals, grid)
    assert values.shape == (grid.n_theta, len(states), grid.n_x)
    assert values.min() > -1e-14
    for k, rho in enumerate(states):
        assert np.max(np.abs(values[:, k] - dense_tomogram(rho, grid))) < 1e-13


@pytest.mark.parametrize("preset", ["fig1", "fig9"])
def test_two_phase_kernel_matches_the_rotate_first_loop(preset):
    """The sweeps' two-slice tomograms agree with the rotate-first loop on the full window.

    Checked on the first chunk of the fig1 (unitary, dim 60, 200 points) and
    fig9 (dephased, dim 100, 291 points) photon-added sweeps, to 1e-13 of the
    largest value.
    """
    cfg = next(c for c in preset_configs(preset) if c.name.endswith("photon_added"))
    rho0 = density_from_pure(cfg.initial_state.build(cfg.dim))
    grid = symmetric_grid(*_resolve_window(cfg, rho0), conjugate_thetas(0.0))
    _, diagonals = next(coherence_diagonals(rho0, cfg.medium, cfg.damping, cfg.time_grid.values))
    diagonals = list(diagonals)
    assert diagonals[0].shape[0] == 64
    values = tomograms_of_diagonals(diagonals, grid)
    want = rotate_first_tomograms(diagonals, grid)
    assert np.max(np.abs(values - want)) < 1e-13 * want.max()


# of the twin rows k = (steps - 1) // 2 and k + 1 about T_rev/2, the one each fig1 series names
# as its minimum, (area, entropy_sum): at 60 steps as the benchmark runs fig1, and at 500
TWIN_PICKS = {
    60: {"coherent": (30, 29), "even": (30, 29), "photon_added": (29, 30)},
    500: {"coherent": (249, 249), "even": (249, 249), "photon_added": (249, 250)},
}


@pytest.mark.parametrize("steps", [60, 500])
def test_fig1_twin_minima_picks(steps, preset_results):
    """The unitary fig1 series are mirror-symmetric about T_rev/2, so their rows k and
    k + 1 there print alike, and the minimum names one of them by round-off.  The
    picks are those of the shipped outputs, which the benchmark's references record."""
    if steps == 500:
        runs = [(r.config, r.records) for r in preset_results["fig1"]]
    else:
        runs = []
        for cfg in preset_configs("fig1"):
            cfg = dataclasses.replace(cfg, steps=steps)
            rho0 = density_from_pure(cfg.initial_state.build(cfg.dim))
            records = _records(cfg, rho0, cfg.time_grid.values, _resolve_window(cfg, rho0))
            runs.append((cfg, records))
    k = (steps - 1) // 2
    for cfg, records in runs:
        times = np.array([r.t for r in records])
        picks = []
        for series in ([r.nonclassical_area for r in records], [r.entropy_sum for r in records]):
            hits = np.searchsorted(times, find_local_minima(times, np.array(series), cfg.minima_prominence))
            (pick,) = hits[(hits == k) | (hits == k + 1)]
            picks.append(int(pick))
        assert tuple(picks) == TWIN_PICKS[steps][cfg.name.removeprefix("fig1_")], cfg.name


# --- closed-form tomograms at fractional revivals -------------------------------


def hermite_e(p, z):
    """Probabilists' Hermite polynomial He_p(z): He_{k+1} = z He_k - k He_{k-1}."""
    prev, cur = np.zeros_like(z), np.ones_like(z)
    for k in range(p):
        prev, cur = cur, z * cur - k * prev
    return cur


def revival_tomogram(spec, kerr, u, x, thetas):
    """omega(x, theta) of the unitary state at t = u T_rev, u = p/q, in closed form.

    chi T_rev = pi, so the phase g_n = exp(-i pi u f(n)) has period N = 2q
    in n, and U(t) = sum_k c_k exp(-2 pi i k n / N) is a sum of N rotations,
    c_k = N^-1 sum_n g_n exp(2 pi i k n / N) (Averbukh & Perelman, Phys.
    Lett. A 139, 449 (1989)).  Each rotated coherent component |b> has the
    quadrature wavefunction
        phi_b(x) = pi^-1/4 exp(-(x - sqrt2 Re b)^2 / 2 + i sqrt2 Im b x - i Re b Im b),
    and its slice at theta is that of b e^{-i theta}; the even family adds
    the components of -alpha.  The photon-added family, m = spec.p photons,
    has <x|a^dag^m|b> = He_m(sqrt2 x - b) phi_b(x), with He_m the probabilists'
    Hermite polynomial, and a rotation by phi gives e^{-i phi N} a^dag^m|alpha> =
    e^{-i m phi} a^dag^m|alpha e^{-i phi}>; its norm is m! L_m(-|alpha|^2).  No
    Fock basis is used, so nothing is truncated.
    """
    alpha, added = spec.alpha, spec.p
    even = spec.kind is StateKind.EVEN_COHERENT
    n = np.arange(2 * u.denominator)
    f = n * (n - 1) if kerr else n * (n - 1) * (n - 2)
    g = np.exp(-1j * math.pi * float(u) * f)
    c = np.exp(2j * math.pi * np.outer(n, n) / n.size) @ g / n.size
    signs = (1, -1) if even else (1,)
    if even:
        norm = 2.0 * (1.0 + math.exp(-2.0 * abs(alpha) ** 2))
    else:
        norm = math.factorial(added) * laguerre_value(added, -abs(alpha) ** 2)
    slices = []
    for theta in thetas:
        angle = theta + 2.0 * math.pi * n / n.size
        beta = alpha * np.exp(-1j * angle)
        psi = 0.0
        for b in (s * beta[:, None] for s in signs):
            phi = math.pi**-0.25 * np.exp(
                -((x - math.sqrt(2.0) * b.real) ** 2) / 2.0
                + 1j * math.sqrt(2.0) * b.imag * x
                - 1j * b.real * b.imag
            )
            if added:
                phi *= np.exp(-1j * added * angle)[:, None] * hermite_e(added, math.sqrt(2.0) * x - b)
            psi = psi + c @ phi
        slices.append(np.abs(psi) ** 2 / norm)
    return np.array(slices)


KERR_REVIVALS = ("1/6", "1/4", "1/3", "1/2", "3/4")
CUBIC_REVIVALS = ("1/12", "1/9", "1/6", "1/4")
# three added photons reach higher Fock levels, which the production dims truncate: measured
# 4.2e-12 on fig1 (dim 60; 5e-15 at dim 80) and 1.9e-7 on fig7 (dim 100), so the dim-100
# presets take photon-added on a dim-120 copy (1.1e-11 on fig7, 1.1e-14 on fig9)
PHOTON_ADDED_TOL = {"fig1": 1e-11, "fig7": 1e-10, "fig9": 1e-10}
PHOTON_ADDED_DIM = {"fig7": 120, "fig9": 120}


def revival_case(preset, family, tol):
    """The preset's config of the family, its initial state, its two-slice grid and its bound."""
    cfg = next(c for c in preset_configs(preset) if c.name.endswith(f"_{family}"))
    if family == "photon_added":
        tol = PHOTON_ADDED_TOL.get(preset, tol)
        cfg = dataclasses.replace(cfg, dim=PHOTON_ADDED_DIM.get(preset, cfg.dim))
    rho0 = density_from_pure(cfg.initial_state.build(cfg.dim))
    grid = symmetric_grid(*_resolve_window(cfg, rho0), conjugate_thetas(0.0))
    return cfg, rho0, grid, tol


@pytest.mark.parametrize(
    "preset, fractions, tol",
    [
        ("fig1", KERR_REVIVALS, 1e-12),
        # dim 100 truncates |alpha|^2 = 40 at the 1e-8 level
        ("fig7", KERR_REVIVALS, 1e-7),
        ("fig18", CUBIC_REVIVALS, 1e-12),
    ],
    ids=["fig1", "fig7", "fig18"],
)
@pytest.mark.parametrize("family", ["coherent", "even", "photon_added"])
def test_tomograms_at_fractional_revivals_match_closed_form(preset, fractions, tol, family):
    cfg, rho0, grid, tol = revival_case(preset, family, tol)
    kerr = cfg.medium.kind is MediumKind.KERR
    for u in map(Fraction, fractions):
        rho = propagate_unitary(rho0, cfg.medium, float(u) * cfg.t_rev)
        want = revival_tomogram(cfg.initial_state, kerr, u, grid.x, grid.thetas)
        assert np.max(np.abs(tomogram_of_density(rho, grid).values - want)) < tol, u


# an 80-node rule is exact to round-off at every case below; 40 nodes left 3e-8 on fig9 at u = 3/4
DEPHASING_NODES = 80


@pytest.mark.parametrize(
    "preset, fractions, tol",
    [
        ("fig5", KERR_REVIVALS, 1e-12),
        # dim 100, as fig7: measured 9.3e-12
        ("fig9", KERR_REVIVALS, 1e-7),
        ("fig15", CUBIC_REVIVALS, 1e-12),
        ("fig20", CUBIC_REVIVALS, 1e-12),
    ],
    ids=["fig5", "fig9", "fig15", "fig20"],
)
@pytest.mark.parametrize("family", ["coherent", "even", "photon_added"])
def test_dephased_tomograms_at_fractional_revivals_match_averaged_closed_form(
    preset, fractions, tol, family
):
    """Phase damping multiplies rho_{n+d,n} by exp(-gamma t d^2 / 2) = E exp(-i d phi) with
    phi ~ N(0, gamma t), a Gaussian average over rotations, so the dephased tomogram is
    E omega_U(x, theta + phi): a Gauss-Hermite sum of closed-form unitary slices."""
    cfg, rho0, grid, tol = revival_case(preset, family, tol)
    kerr = cfg.medium.kind is MediumKind.KERR
    nodes, weights = np.polynomial.hermite_e.hermegauss(DEPHASING_NODES)
    weights = weights / math.sqrt(2.0 * math.pi)
    for u in map(Fraction, fractions):
        t = float(u) * cfg.t_rev
        rho = propagate_phase_damping(rho0, cfg.medium, cfg.damping.gamma, t)
        phases = np.add.outer(grid.thetas, math.sqrt(cfg.damping.gamma * t) * nodes)
        slices = revival_tomogram(cfg.initial_state, kerr, u, grid.x, phases.ravel())
        want = np.einsum("k,skx->sx", weights, slices.reshape(*phases.shape, -1))
        assert np.max(np.abs(tomogram_of_density(rho, grid).values - want)) < tol, u


def gaussian_slices(x, scales):
    """(2, T, n_x) vacuum slices, state k scaled by scales[k]."""
    slice_ = np.exp(-x * x) / math.sqrt(math.pi)
    return np.array([[s * slice_ for s in scales]] * 2)


def test_check_tomograms_goes_state_by_state():
    x = symmetric_grid(8.0, 321, (0.0,)).x
    check_tomograms(gaussian_slices(x, [1.0, 1.0]), x)
    # the warnings of the states before the first failure, then its error
    with pytest.warns(RuntimeWarning, match="off-grid ~ 1.000e-06") as caught:
        with pytest.raises(NumericalInvariantError, match="normalization off by 1.000e-03"):
            check_tomograms(gaussian_slices(x, [1.0, 1.0 + 1e-6, 1.0 + 1e-3, 2.0]), x)
    assert len(caught) == 1
    values = gaussian_slices(x, [1.0 + 1e-6, 1.0, 1.0 + 1e-3])
    values[0, 1, 0] = -1e-6
    with pytest.warns(RuntimeWarning, match="off-grid"):
        with pytest.raises(NumericalInvariantError, match="tomogram negativity -1.000e-06 below -1e-12"):
            check_tomograms(values, x)
    values[1, 1, 3] = np.inf
    with pytest.warns(RuntimeWarning, match="off-grid"):
        with pytest.raises(ValidationError, match="non-finite"):
            check_tomograms(values, x)


# --- dump format -------------------------------------------------------------


def test_dump_format_and_roundtrip(tmp_path):
    rho = coherent_rho(1.0, 15)
    grid = symmetric_grid(6.0, 41, (0.0, 0.5 * math.pi, math.pi))
    tomo = tomogram_of_density(rho, grid)
    text = tomo.to_dump_text()
    lines = text.splitlines()
    assert lines[0] == "# theta x omega"
    assert len(lines) == 1 + 3 * 41
    # row-major over theta then x, single-space separated
    first = lines[1].split(" ")
    assert len(first) == 3
    assert float(first[0]) == 0.0
    assert float(first[1]) == -6.0
    second_block = lines[1 + 41].split(" ")
    assert float(second_block[0]) == pytest.approx(0.5 * math.pi, rel=1e-8)

    path = tomo.write_dump(tmp_path / "t.dat")
    thetas, x, values = parse_dump(path.read_text())
    assert np.allclose(thetas, grid.thetas, atol=1e-9)
    assert np.allclose(x, grid.x, atol=1e-8)
    assert np.max(np.abs(values - tomo.values)) < 1e-10


@pytest.mark.parametrize("window", ["fig13", (-6.0, 6.0, 51)])
def test_dump_text_is_byte_identical_to_the_f_string_formatter(window, rng):
    if window == "fig13":
        cfg = preset_configs("fig13")[0]
        window = _resolve_window(cfg, density_from_pure(cfg.initial_state.build(cfg.dim)))
        grid = symmetric_grid(*window, uniform_thetas(cfg.theta_count))
    else:
        grid = QuadratureGrid(*window, (0.0, 0.5 * math.pi, math.pi))
    values = rng.uniform(0.0, 0.6, (grid.n_theta, grid.n_x))
    edge = [0.0, 5e-324, 1e-300, 1e-5, 123456789012.5, 1.0, 0.1, 1.0 / 3.0]
    values[:, : len(edge)] = edge
    values[-1, -len(edge) :] = edge
    tomo = Tomogram(grid, values)
    assert tomo.to_dump_text() == f_string_dump_text(tomo)


def test_dump_text_formats_a_mirrored_pair_once_and_only_when_bit_equal(rng):
    # a dump on a pi-closed grid: slice i + 64 is slice i reversed, bit for bit
    rho = density_from_pure(InitialStateSpec(StateKind.PHOTON_ADDED, 1.2 + 0.7j, 2).build(30))
    tomo = tomogram_of_density(rho, symmetric_grid(9.0, 181, uniform_thetas(128)))
    assert np.array_equal(tomo.values[64:], tomo.values[:64, ::-1])
    assert tomo.to_dump_text() == f_string_dump_text(tomo)
    # the same pairing one ulp off: the strings may not be reused; the ulp
    # above 0.0 prints as 4.94065645841e-324
    grid = symmetric_grid(6.0, 51, uniform_thetas(8))
    half = rng.uniform(0.0, 0.6, (4, 51))
    half[:, :3] = [0.0, 0.1, 1.0 / 3.0]
    values = np.concatenate([half, half[:, ::-1]])
    assert Tomogram(grid, values).to_dump_text() == f_string_dump_text(Tomogram(grid, values))
    values[-1, -1] = np.nextafter(0.0, 1.0)
    off = Tomogram(grid, values)
    text = off.to_dump_text()
    assert text == f_string_dump_text(off)
    assert text.endswith(" 4.94065645841e-324\n")


def test_parse_dump_rejects_bad_header():
    with pytest.raises(ValidationError):
        parse_dump("theta x omega\n0 0 1\n")
