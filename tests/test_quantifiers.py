import math

import numpy as np
import pytest
import scipy.signal

from nltomo.errors import NumericalInvariantError, ValidationError
from nltomo.evolve import (
    MediumKind,
    MediumSpec,
    propagate_phase_damping,
    propagate_unitary,
    revival_time,
)
from nltomo.quantifiers import (
    COHERENT_AREA_BASELINE,
    ENTROPY_BOUND,
    _moment_mean_variance,
    compute_record,
    entropy_sum,
    find_local_minima,
    nonclassical_area,
    records_of_diagonals,
    tomographic_entropy,
)
from nltomo.states import (
    DensityMatrix,
    FockVector,
    InitialStateSpec,
    StateKind,
    density_from_pure,
    ladder_expectations,
)
from nltomo.tomography import QuadratureGrid, symmetric_grid, tomogram_of_density, uniform_thetas

from conftest import dense_tomogram, quadrature_moments_from_tomogram

# reference values below were frozen from independent adaptive-quadrature
# and refined-grid computations before this module was written
EVEN10_AREA = 14.278159294710  # even coherent, |alpha|^2 = 10
FOCK1_ENTROPY = 1.342727788386  # single-photon Fock state, any theta
EVEN40_ENTROPY_SUM = 3.531024246969  # even coherent, |alpha|^2=40, delta=pi/4


def coherent_rho(alpha, dim):
    return density_from_pure(InitialStateSpec(StateKind.COHERENT, alpha).build(dim))


def even_rho(alpha, dim):
    return density_from_pure(InitialStateSpec(StateKind.EVEN_COHERENT, alpha).build(dim))


# --- quadrature moments -------------------------------------------------------


def test_coherent_variance_is_half_everywhere():
    rho = coherent_rho(math.sqrt(7.0) * np.exp(0.3j), 60)
    thetas = np.linspace(0.0, 2.0 * math.pi, 37, endpoint=False)
    mean, var = _moment_mean_variance(*ladder_expectations(rho), thetas)
    expected_mean = math.sqrt(14.0) * np.cos(0.3 - thetas)
    assert np.max(np.abs(mean - expected_mean)) < 1e-9
    assert np.max(np.abs(var - 0.5)) < 1e-9


def test_tomographic_moments_match_analytic():
    alpha = math.sqrt(4.0) * np.exp(0.7j)
    rho = coherent_rho(alpha, 40)
    thetas = (0.0, 1.1)
    grid = symmetric_grid(10.0, 401, thetas)
    tomo = tomogram_of_density(rho, grid)
    mean, var = _moment_mean_variance(*ladder_expectations(rho), np.asarray(thetas))
    for i in range(2):
        m1 = quadrature_moments_from_tomogram(tomo, i, 1)
        m2 = quadrature_moments_from_tomogram(tomo, i, 2)
        assert abs(m1 - mean[i]) < 1e-9
        assert abs((m2 - m1**2) - var[i]) < 1e-9
    with pytest.raises(ValidationError):
        quadrature_moments_from_tomogram(tomo, 0, -1)


# --- nonclassical area --------------------------------------------------------


def test_coherent_area_is_zero():
    for alpha_sq, dim in ((5.0, 40), (10.0, 60), (20.0, 80)):
        rho = coherent_rho(math.sqrt(alpha_sq) * np.exp(0.25j * math.pi), dim)
        assert abs(nonclassical_area(rho, 128, "analytic")) < 1e-8
        assert abs(nonclassical_area(rho, 128, "tomographic")) < 1e-6


def test_even_coherent_area_frozen_value():
    rho = even_rho(math.sqrt(10.0), 60)
    a = nonclassical_area(rho, 512, "analytic")
    assert abs(a - EVEN10_AREA) < 1e-10
    # the default 128-angle rule agrees to ~2e-11
    a128 = nonclassical_area(rho, 128, "analytic")
    assert abs(a128 - EVEN10_AREA) < 1e-9
    a_tomo = nonclassical_area(rho, 128, "tomographic")
    assert abs(a_tomo - EVEN10_AREA) < 1e-9
    a_tomo_wide = nonclassical_area(rho, 128, "tomographic", x_window=(12.0, 241))
    assert abs(a_tomo_wide - EVEN10_AREA) < 1e-9


def test_area_method_validation():
    rho = coherent_rho(1.0, 20)
    with pytest.raises(ValidationError):
        nonclassical_area(rho, 128, "exact")


def test_area_baseline_constant():
    assert COHERENT_AREA_BASELINE == pytest.approx(math.sqrt(2.0) * math.pi, rel=1e-15)


# --- tomographic entropies ------------------------------------------------------


def test_fock_one_entropy_frozen_value():
    amps = np.zeros(20)
    amps[1] = 1.0
    rho = density_from_pure(FockVector(20, amps))
    fine = QuadratureGrid(-10.0, 10.0, 8001, (0.0,))
    s_fine = tomographic_entropy(tomogram_of_density(rho, fine), 0)
    assert abs(s_fine - FOCK1_ENTROPY) < 5e-9
    # the default-resolution window carries ~1e-4 discretization error
    # from the density zero at x = 0
    coarse = QuadratureGrid(-10.0, 10.0, 200, (0.0,))
    s_coarse = tomographic_entropy(tomogram_of_density(rho, coarse), 0)
    assert abs(s_coarse - FOCK1_ENTROPY) < 2e-4


def test_coherent_entropy_pair_saturates_bound():
    rho = coherent_rho(math.sqrt(2.0), 30)
    s = entropy_sum(rho, 0.0, (10.0, 400))
    assert abs(s - ENTROPY_BOUND) < 1e-9
    rec = compute_record(rho, 0.0, 1.0, x_window=(10.0, 400))
    s0, s90 = rec.entropy_0, rec.entropy_90
    half = 0.5 * (1.0 + math.log(math.pi))
    assert abs(s0 - half) < 1e-9
    assert abs(s90 - half) < 1e-9


def test_even40_entropy_sum_frozen_value():
    alpha = math.sqrt(40.0) * np.exp(0.25j * math.pi)
    rho = even_rho(alpha, 100)
    rec = compute_record(rho, 0.0, 1.0, x_window=(13.5, 271))
    s0, s90 = rec.entropy_0, rec.entropy_90
    assert abs((s0 + s90) - EVEN40_ENTROPY_SUM) < 1e-8
    # delta = pi/4 makes the two conjugate slices mirror images
    assert abs(s0 - s90) < 1e-9


def test_entropy_slice_periodicity():
    rho = even_rho(math.sqrt(6.0) * np.exp(0.25j * math.pi), 50)
    s_a = entropy_sum(rho, 0.5 * math.pi, (10.0, 200))
    s_b = entropy_sum(rho, 1.5 * math.pi, (10.0, 200))  # wraps past 2*pi
    assert abs(s_a - s_b) < 1e-12


def test_entropy_bound_holds_for_assorted_states():
    states = [
        coherent_rho(0.0, 10),
        coherent_rho(math.sqrt(5.0), 40),
        even_rho(math.sqrt(10.0), 60),
        density_from_pure(
            InitialStateSpec(StateKind.PHOTON_ADDED, math.sqrt(5.0), p=3).build(50)
        ),
    ]
    for rho in states:
        assert entropy_sum(rho) >= ENTROPY_BOUND - 1e-6


# --- minima detection -----------------------------------------------------------


def test_find_local_minima_cosine():
    t = np.linspace(0.0, 1.0, 401)
    v = np.cos(4.0 * math.pi * t)
    hits = find_local_minima(t, v, prominence=0.5)
    assert len(hits) == 2
    assert abs(hits[0] - 0.25) < 1e-12
    assert abs(hits[1] - 0.75) < 1e-12


def test_find_local_minima_prominence_filter():
    t = np.linspace(0.0, 1.0, 101)
    v = 0.1 * np.ones_like(t)
    v[30] = 0.0999  # a 1e-4 dip: below the default prominence
    assert find_local_minima(t, v) == []
    v[30] = 0.05
    assert find_local_minima(t, v) == [pytest.approx(0.3)]


def test_find_local_minima_excludes_endpoints():
    t = np.linspace(0.0, 1.0, 51)
    v = t.copy()  # global minimum at the left endpoint only
    assert find_local_minima(t, v, prominence=1e-6) == []
    with pytest.raises(ValidationError):
        find_local_minima(t, v[:-1])
    with pytest.raises(ValidationError):
        find_local_minima(t, v, prominence=0.0)


def _noise(rng, n):
    return rng.standard_normal(n)


def _small_integers(rng, n):  # long plateaus, ties between distant samples
    return rng.integers(0, 4, n).astype(np.float64)


def _rounded_cosine(rng, n):  # flat tops and bottoms of varying width
    t = np.linspace(0.0, 1.0, n)
    return np.round(np.cos(rng.uniform(1.0, 30.0) * t + rng.uniform(0.0, 2.0 * math.pi)), 2)


def _repeated_runs(rng, n):
    levels = rng.standard_normal(n // 4 + 1)
    return np.repeat(levels, rng.integers(1, 5, levels.size))


@pytest.mark.parametrize("series", [_noise, _small_integers, _rounded_cosine, _repeated_runs])
def test_find_local_minima_matches_find_peaks(series):
    # same indices as scipy.signal.find_peaks on the negated series, with
    # its plateau-midpoint and unwindowed prominence rules
    rng = np.random.default_rng(7)
    for _ in range(1000):
        v = series(rng, int(rng.integers(0, 200)))
        # log-uniform over [1e-3, 1], and exactly 1 one time in seven, which
        # the small-integer series meet with equality
        prominence = float(10.0 ** min(rng.uniform(-3.0, 0.5), 0.0))
        t = np.arange(v.size, dtype=np.float64)
        expected, _ = scipy.signal.find_peaks(-v, prominence=prominence)
        assert find_local_minima(t, v, prominence) == t[expected].tolist()


# --- record builder --------------------------------------------------------------


def test_compute_record_consistency():
    rho = even_rho(math.sqrt(10.0), 60)
    rec = compute_record(rho, t=0.1, t_rev=0.4, theta_count=128, x_window=(10.0, 200))
    assert rec.t == pytest.approx(0.1)
    assert rec.t_over_trev == pytest.approx(0.25)
    # one record path: the per-state functions give the same bits
    assert rec.nonclassical_area == nonclassical_area(rho, 128)
    assert rec.entropy_sum == entropy_sum(rho, 0.0, (10.0, 200))
    # each slice on its own: for real alpha S(0) != S(pi/2), so a swap shows
    tomo = tomogram_of_density(rho, symmetric_grid(10.0, 200, (0.0, math.pi / 2)))
    assert rec.entropy_0 == tomographic_entropy(tomo, 0)
    assert rec.entropy_90 == tomographic_entropy(tomo, 1)
    assert abs(rec.entropy_0 - rec.entropy_90) > 1e-3
    assert rec.trace == pytest.approx(1.0, abs=1e-12)
    assert rec.purity == pytest.approx(1.0, abs=1e-12)
    assert rec.as_row() == (
        rec.t,
        rec.t_over_trev,
        rec.nonclassical_area,
        rec.entropy_0,
        rec.entropy_90,
        rec.entropy_sum,
        rec.trace,
        rec.purity,
    )


# --- cross-path and covariance properties -----------------------------------------


@pytest.mark.parametrize("kind", [StateKind.COHERENT, StateKind.PHOTON_ADDED,
                                  StateKind.EVEN_COHERENT])
def test_area_paths_agree_on_evolved_states(kind):
    alpha = math.sqrt(5.0) * complex(math.cos(0.25 * math.pi), math.sin(0.25 * math.pi))
    p = 3 if kind is StateKind.PHOTON_ADDED else 0
    rho = density_from_pure(InitialStateSpec(kind, alpha, p=p).build(40))
    kerr = MediumSpec(MediumKind.KERR, 5.0)
    t_rev = revival_time(kerr)
    for rho_t in (
        propagate_unitary(rho, kerr, 0.23 * t_rev),
        propagate_phase_damping(rho, kerr, 0.1, 0.4 * t_rev),
    ):
        analytic = nonclassical_area(rho_t, method="analytic")
        tomographic = nonclassical_area(rho_t, method="tomographic")
        assert abs(analytic - tomographic) < 1e-6


def test_area_is_invariant_under_phase_rotation():
    # rotating the state shifts the variance profile in theta; the full-period
    # average must not move
    rho = even_rho(math.sqrt(10.0), 60)
    base = nonclassical_area(rho)
    n = np.arange(60)
    for phi in (0.3, 0.7, 2.9):
        phases = np.exp(-1j * phi * n)
        rotated = DensityMatrix(60, phases[:, None] * rho.elements * phases.conj()[None, :])
        assert abs(nonclassical_area(rotated) - base) < 1e-8


# --- batched records -----------------------------------------------------------


def vacuum_with(x1=0.0, x2=0.0, p0=1.0):
    """3-level Hermitian matrix: populations (p0, 0, 0), rho_10 = x1, rho_20 = x2."""
    m = np.zeros((3, 3), dtype=np.complex128)
    m[0, 0] = p0
    m[1, 0], m[0, 1] = x1, np.conj(x1)
    m[2, 0], m[0, 2] = x2, np.conj(x2)
    return m


GOOD = vacuum_with()
BAD_VARIANCE = vacuum_with(x2=1.0)  # Var X_0 = 1/2 - sqrt(2) < 0
BAD_TOMOGRAM = vacuum_with(x2=0.2)  # variances positive, omega(x, pi/2) < 0 at |x| > 1.5
BAD_TRACE = vacuum_with(p0=1.0 + 1e-8)
NON_FINITE = vacuum_with(x1=complex(np.nan, 0.0))
WINDOW = (6.0, 121)


def first_refusal(run):
    try:
        run()
    except (ValidationError, NumericalInvariantError) as exc:
        return type(exc), str(exc)
    return None


def per_state_refusal(mats):
    def run():
        for t, m in enumerate(mats):
            compute_record(DensityMatrix(3, m), float(t), 1.0, 16, WINDOW)

    return first_refusal(run)


def batched_refusal(mats):
    diagonals = (np.array([np.diagonal(m, -d) for m in mats]) for d in range(3))
    times = np.arange(len(mats), dtype=np.float64)
    return first_refusal(lambda: records_of_diagonals(times, diagonals, 1.0, 16, WINDOW))


@pytest.mark.parametrize(
    "mats, expected",
    [
        ([GOOD, BAD_VARIANCE, BAD_TRACE], "non-positive quadrature variance"),
        ([GOOD, BAD_TRACE, BAD_VARIANCE], "trace deviates from 1 by 1.000e-08 (tol 1e-10)"),
        ([BAD_TOMOGRAM, BAD_VARIANCE], "tomogram negativity"),
        ([BAD_VARIANCE, BAD_TOMOGRAM], "non-positive quadrature variance"),
        ([GOOD, NON_FINITE, BAD_VARIANCE], "density matrix contains non-finite entries"),
        ([GOOD, GOOD, BAD_TOMOGRAM], "tomogram negativity"),
    ],
)
def test_records_of_diagonals_refuse_as_the_per_state_path(mats, expected):
    # the first state that fails any check decides, with the check order of
    # the density matrix, the variance and the tomogram within a state.  The
    # per-state side is the same code at T = 1; what each matrix breaks is
    # read independently in the test below
    want = per_state_refusal(mats)
    assert want is not None and expected in want[1]
    assert batched_refusal(mats) == want


def test_each_refused_matrix_breaks_its_own_check():
    # Var X_theta from 3x3 operator products and omega from the dense formula
    a = np.diag(np.sqrt([1.0, 2.0]), 1)

    def min_variance(m):
        out = []
        for theta in uniform_thetas(16):
            x = (a * np.exp(-1j * theta) + a.T * np.exp(1j * theta)) / math.sqrt(2.0)
            out.append(np.trace(m @ x @ x).real - np.trace(m @ x).real ** 2)
        return min(out)

    def min_omega(m):
        grid = symmetric_grid(*WINDOW, (0.0, math.pi / 2))
        return dense_tomogram(DensityMatrix(3, m), grid).min()

    assert min_variance(GOOD) > 0.0 and min_omega(GOOD) > -1e-12
    assert min_variance(BAD_VARIANCE) < 0.0
    assert min_variance(BAD_TOMOGRAM) > 0.0 and min_omega(BAD_TOMOGRAM) < -1e-3
    for m in (BAD_TRACE, NON_FINITE):
        with pytest.raises((ValidationError, NumericalInvariantError)):
            DensityMatrix(3, m)



def test_purity_tally_on_strided_diagonals_and_non_finite_parts(rng):
    # compute_record hands the tally strided views of the matrix diagonals;
    # their re^2 + im^2 sums give Tr rho^2 of a mixed state
    A = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    mixed = A @ A.conj().T
    rho = DensityMatrix(12, mixed / np.trace(mixed).real)
    rec = compute_record(rho, 0.0, 1.0, 16, (8.0, 161))
    assert abs(rec.purity - np.trace(rho.elements @ rho.elements).real) < 1e-14
    # an infinite or nan part, real or imaginary, still refuses its state
    for x1 in (complex(np.inf, 0.0), complex(0.0, -np.inf), complex(np.nan, np.nan)):
        with np.errstate(invalid="ignore", over="ignore"):
            refusal = batched_refusal([GOOD, vacuum_with(x1=x1)])
        assert refusal == (ValidationError, "density matrix contains non-finite entries"), x1
