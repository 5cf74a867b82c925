"""Acceptance gate: one test per shipped correctness criterion.

Each test states its criterion in the name and docstring, prints the
measured numbers, and asserts the advertised tolerance.  Criteria that
need full sweeps consume the session-scoped ``preset_results`` fixture,
so ``pytest -v tests/test_acceptance.py`` yields one pass/fail line per
criterion after a single pass over the preset catalog.
"""

import math
import warnings

import numpy as np
import pytest

from nltomo.evolve import (
    DampingChannel,
    DampingSpec,
    MediumKind,
    MediumSpec,
    coherence_block_solve,
    integrate_master,
    propagate_phase_damping,
    propagate_unitary,
    revival_time,
)
from nltomo.quantifiers import (
    ENTROPY_BOUND,
    entropy_sum,
    find_local_minima,
    nonclassical_area,
    tomographic_entropy,
)
from nltomo.states import (
    FockVector,
    InitialStateSpec,
    StateKind,
    density_from_pure,
)
from nltomo.tomography import (
    QuadratureGrid,
    Tomogram,
    symmetric_grid,
    tomogram_of_density,
    uniform_thetas,
)

from conftest import amplitude_damping_factorial_variant, parse_dump

KERR = MediumSpec(MediumKind.KERR, 5.0)
CUBIC = MediumSpec(MediumKind.CUBIC, 5.0)
DELTA = 0.25 * math.pi


def _alpha(alpha_sq):
    return math.sqrt(alpha_sq) * complex(math.cos(DELTA), math.sin(DELTA))


def coherent_rho(alpha_sq, dim):
    return density_from_pure(InitialStateSpec(StateKind.COHERENT, _alpha(alpha_sq)).build(dim))


def added_rho(alpha_sq, dim, p=3):
    return density_from_pure(
        InitialStateSpec(StateKind.PHOTON_ADDED, _alpha(alpha_sq), p=p).build(dim)
    )


def even_rho(alpha_sq, dim):
    return density_from_pure(
        InitialStateSpec(StateKind.EVEN_COHERENT, _alpha(alpha_sq)).build(dim)
    )


TRIO = (("coherent", coherent_rho), ("photon_added", added_rho), ("even", even_rho))


def test_criterion_01_coherent_area_baseline():
    """Nonclassical area of a coherent state is 0: within 1e-8 via moments,
    within 1e-6 via the tomographic route, for |alpha|^2 in {5, 10, 20}."""
    for alpha_sq, dim in ((5.0, 40), (10.0, 60), (20.0, 80)):
        rho = coherent_rho(alpha_sq, dim)
        analytic = nonclassical_area(rho, method="analytic")
        tomographic = nonclassical_area(rho, method="tomographic")
        print(f"|alpha|^2={alpha_sq:4.0f}: analytic={analytic:+.3e} "
              f"tomographic={tomographic:+.3e}")
        assert abs(analytic) < 1e-8
        assert abs(tomographic) < 1e-6


def test_criterion_02_kerr_revival_restores_area():
    """Kerr medium, gamma=0, |alpha|^2=10, dim=60: the nonclassical area at
    t=T_rev matches its t=0 value within 1e-6 for all three state families."""
    t_rev = revival_time(KERR)
    for label, make in TRIO:
        rho = make(10.0, 60)
        a0 = nonclassical_area(rho)
        a_rev = nonclassical_area(propagate_unitary(rho, KERR, t_rev))
        print(f"{label:13s}: |area(T_rev) - area(0)| = {abs(a_rev - a0):.3e}")
        assert abs(a_rev - a0) < 1e-6


def test_criterion_03_kerr_fractional_revival_minima(preset_results):
    """The minima detector locates the fractional-revival dips of the
    500-sample Kerr sweep within one time-grid step: T_rev/2 for coherent and
    3-photon-added states, {T_rev/4, T_rev/2, 3T_rev/4} for even coherent."""
    targets = {
        "fig1_coherent": (0.5,),
        "fig1_photon_added": (0.5,),
        "fig1_even": (0.25, 0.5, 0.75),
    }
    for result in preset_results["fig1"]:
        cfg = result.config
        times = np.array([rec.t for rec in result.records])
        area = np.array([rec.nonclassical_area for rec in result.records])
        dt = times[1] - times[0]
        hits = find_local_minima(times, area, cfg.minima_prominence)
        t_rev = cfg.t_rev
        for frac in targets[cfg.name]:
            target = frac * t_rev
            off = min(abs(h - target) for h in hits)
            print(f"{cfg.name:18s} target {frac:.2f}*T_rev: "
                  f"{len(hits)} minima, nearest off by {off / dt:.3f} steps")
            assert off <= dt + 1e-12


def test_fig1_initial_areas(preset_results):
    """Companion to criteria 2 and 3: at t=0 the coherent state shows zero
    nonclassical area while the photon-added and even states start positive."""
    start = {
        result.config.name: result.records[0].nonclassical_area
        for result in preset_results["fig1"]
    }
    print(", ".join(f"{k}={v:+.6f}" for k, v in start.items()))
    assert abs(start["fig1_coherent"]) < 1e-8
    assert start["fig1_photon_added"] > 0.1
    assert start["fig1_even"] > 0.1


def test_kerr_area_series_time_symmetry(preset_results):
    """Companion to criterion 4: the undamped Kerr area series over [0, T_rev]
    shares the cubic medium's mirror symmetry about T_rev/2."""
    for result in preset_results["fig1"]:
        area = np.array([rec.nonclassical_area for rec in result.records])
        sym = float(np.max(np.abs(area - area[::-1])))
        print(f"{result.config.name:18s} mirror deviation = {sym:.3e}")
        assert sym < 1e-6


def _kerr_pair_moment(beta, beta_p, k, chi, gamma, amplitude, t):
    """Tr[a^k rho(t)] for rho(0) = |beta><beta'| under H = chi N(N-1), at times t.

    Tr[a^k rho(t)] = beta^k <beta'|beta> e^{-ik(k-1) chi t} p_k
                     exp[beta beta'* (g_k - 1)]
    (Milburn & Holmes, PRL 56, 2237 (1986); Daniel & Milburn, PRA 39, 4628
    (1989)), with g_k = e^{-2ik chi t} and p_k = e^{-k^2 gamma t / 2} under
    phase damping (gamma = 0 without damping), and under amplitude damping
    g_k = (gamma + 2ik chi e^{-zt}) / z, z = gamma + 2ik chi, p_k = e^{-k gamma t / 2}.
    """
    overlap = np.exp(-0.5 * abs(beta) ** 2 - 0.5 * abs(beta_p) ** 2 + np.conj(beta_p) * beta)
    if amplitude:
        z = gamma + 2j * k * chi
        g = (gamma + 2j * k * chi * np.exp(-z * t)) / z
        p = np.exp(-0.5 * k * gamma * t)
    else:
        g = np.exp(-2j * k * chi * t)
        p = np.exp(-0.5 * k * k * gamma * t)
    phase = np.exp(-1j * k * (k - 1) * chi * t)
    return beta**k * overlap * phase * p * np.exp(beta * np.conj(beta_p) * (g - 1.0))


def test_kerr_area_matches_closed_form_moments(preset_results):
    """Independent check at preset size: for the 19 Kerr coherent and even
    coherent sweeps of fig1-fig9, every record's nonclassical area matches,
    within 1e-10, the area from the closed-form moments <a>, <a^2> and <N>
    of the Kerr master equation; only the config is read from nltomo."""
    checked = 0
    for runs in preset_results.values():
        for result in runs:
            cfg = result.config
            kind = cfg.initial_state.kind
            if cfg.medium.kind is not MediumKind.KERR or kind is StateKind.PHOTON_ADDED:
                continue
            alpha = cfg.initial_state.alpha
            chi, gamma = cfg.medium.chi, cfg.damping.gamma
            amplitude = cfg.damping.channel is DampingChannel.AMPLITUDE
            t = np.array([rec.t for rec in result.records])
            x = abs(alpha) ** 2
            if kind is StateKind.COHERENT:
                pairs, norm, n0 = [(alpha, alpha)], 1.0, x
            else:
                signs = [(s, s_p) for s in (1, -1) for s_p in (1, -1)]
                pairs = [(s * alpha, s_p * alpha) for s, s_p in signs]
                norm, n0 = 2.0 * (1.0 + math.exp(-2.0 * x)), x * math.tanh(x)
            a1, a2 = (
                sum(_kerr_pair_moment(b, b_p, k, chi, gamma, amplitude, t) for b, b_p in pairs)
                / norm
                for k in (1, 2)
            )
            n = n0 * np.exp(-gamma * t) if amplitude else np.full(t.shape, n0)
            theta = 2.0 * math.pi * np.arange(cfg.theta_count) / cfg.theta_count
            rot = np.exp(-1j * theta)[:, None]
            var = n + 0.5 + np.real(rot**2 * a2) - 2.0 * np.real(rot * a1) ** 2
            area = 2.0 * math.pi * np.sqrt(var).mean(axis=0) - math.sqrt(2.0) * math.pi
            recorded = np.array([rec.nonclassical_area for rec in result.records])
            dev = float(np.max(np.abs(recorded - area)))
            print(f"{cfg.name:18s} dim={cfg.dim:3d} {cfg.damping.channel.value:9s} "
                  f"max |area - closed form| = {dev:.2e}")
            assert dev < 1e-10, cfg.name
            checked += 1
    assert checked == 19


def test_criterion_04_cubic_revivals_and_symmetry(preset_results):
    """Cubic medium, gamma=0, |alpha|^2=5, dim=60: the area returns to its
    initial value at T_rev/3, 2T_rev/3 and T_rev within 1e-6, and the swept
    series over [0, T_rev] is symmetric about T_rev/2 within 1e-6."""
    t_rev = revival_time(CUBIC)
    for label, make in TRIO:
        rho = make(5.0, 60)
        a0 = nonclassical_area(rho)
        for frac in (1.0 / 3.0, 2.0 / 3.0, 1.0):
            a_t = nonclassical_area(propagate_unitary(rho, CUBIC, frac * t_rev))
            print(f"{label:13s} t={frac:.4f}*T_rev: |area - area(0)| = {abs(a_t - a0):.3e}")
            assert abs(a_t - a0) < 1e-6
    for result in preset_results["fig10"]:
        area = np.array([rec.nonclassical_area for rec in result.records])
        sym = float(np.max(np.abs(area - area[::-1])))
        print(f"{result.config.name:18s} mirror deviation = {sym:.3e}")
        assert sym < 1e-6


def _gaussian_tail_entropy(u0):
    """-integral of w ln w over u > u0 for w(u) = exp(-u^2) / sqrt(pi).

    Closed form: u0 exp(-u0^2) / (2 sqrt(pi)) + (1 + ln pi)/4 erfc(u0);
    at u0 = -inf it is the full entropy (1 + ln pi) / 2 of one slice.
    """
    return u0 * math.exp(-u0 * u0) / (2.0 * math.sqrt(math.pi)) + (
        1.0 + math.log(math.pi)
    ) / 4.0 * math.erfc(u0)


def test_criterion_05_entropy_benchmark_pinned_grid():
    """Coherent state, |alpha|^2=40, dim=100, x in [-10, 10] with 200 points:
    S(0) + S(pi/2) on that window equals its exact value within 1e-6.

    Each slice of a coherent state is the Gaussian exp(-(x - mu)^2)/sqrt(pi)
    with mu = sqrt(2) Re(e^{-i theta} alpha); both centres sit at
    sqrt(2)|alpha|cos(pi/4) = 6.32, 3.68 (5.2 sigma) from the window edge.
    The integral over the window therefore falls short of the full-line
    value 1 + ln(pi) by the entropy of the tails it cuts off, 3.03e-6 in
    total, which the program flags with its off-grid warning.  That term is
    added back here from its closed form, independently of nltomo, so the
    assertion compares the windowed integral with the exact windowed value.

    The deficit is not trapezoid bias: what remains once the tails are
    added back is -1.2e-7 at h ~ 0.1 and scales as h^2 (-3.1e-8 with 400
    points, -1.2e-9 with 2001), the trapezoid endpoint error of an integrand
    that is not yet negligible at the edge.  The tolerance leaves a margin
    of about 8x over that residual.
    """
    rho = coherent_rho(40.0, 100)
    x_max, n_x = 10.0, 200
    with pytest.warns(RuntimeWarning, match="off-grid"):
        measured = entropy_sum(rho, 0.0, (x_max, n_x))
    alpha = _alpha(40.0)
    off_window = 0.0
    for theta in (0.0, 0.5 * math.pi):
        mu = math.sqrt(2.0) * (complex(math.cos(theta), -math.sin(theta)) * alpha).real
        off_window += _gaussian_tail_entropy(x_max - mu) + _gaussian_tail_entropy(x_max + mu)
    residual = measured + off_window - ENTROPY_BOUND
    print(
        f"pinned grid: S(0)+S(pi/2) = {measured:.12f}, off-window entropy "
        f"{off_window:.4e}, residual {residual:+.3e}"
    )
    assert abs(residual) < 1e-6


def test_entropy_benchmark_on_adequate_window():
    """Companion to criterion 5: same state and tolerance on the auto-sized
    window (x_max=13.5, 271 points), where the off-window entropy is ~2e-22,
    meets the full-line value 1 + ln(pi) directly; the measured deviation
    is 4e-14."""
    rho = coherent_rho(40.0, 100)
    measured = entropy_sum(rho, 0.0, (13.5, 271))
    dev = measured - ENTROPY_BOUND
    print(f"auto window: S(0)+S(pi/2) = {measured:.12f}, deviation {dev:+.3e}")
    assert abs(dev) < 1e-6


def test_criterion_06_entropy_bound_across_presets(preset_results):
    """S(theta) + S(theta + pi/2) >= 1 + ln(pi) - 1e-6 for every state the
    preset catalog generates: every sweep record and every dumped tomogram."""
    worst = math.inf
    n_records = 0
    for runs in preset_results.values():
        for result in runs:
            for rec in result.records:
                worst = min(worst, rec.entropy_sum - ENTROPY_BOUND)
                n_records += 1
    n_slices = 0
    for name in ("fig13", "fig16"):
        for result in preset_results[name]:
            for path in result.dump_paths:
                thetas, x, omega = parse_dump(path.read_text())
                grid = QuadratureGrid(x[0], x[-1], len(x), tuple(thetas))
                tomo = Tomogram(grid, omega)
                quarter = len(thetas) // 4
                entropies = np.array(
                    [tomographic_entropy(tomo, i) for i in range(len(thetas))]
                )
                sums = entropies + np.roll(entropies, -quarter)
                worst = min(worst, float(np.min(sums)) - ENTROPY_BOUND)
                n_slices += len(thetas)
    print(f"{n_records} records + {n_slices} dump slices: "
          f"worst margin above bound = {worst:+.3e}")
    assert worst >= -1e-6


def test_criterion_07_trace_preservation_across_presets(preset_results):
    """|trace - 1| < 1e-10 for every record of every preset, and for the
    reference exponential on matching small-dimension problems."""
    worst = 0.0
    n_records = 0
    for runs in preset_results.values():
        for result in runs:
            for rec in result.records:
                worst = max(worst, abs(rec.trace - 1.0))
                n_records += 1
    print(f"{n_records} preset records: max |trace - 1| = {worst:.3e}")
    assert worst < 1e-10

    rho = added_rho(3.0, 15, p=2)
    worst_ref = 0.0
    for medium in (KERR, CUBIC):
        for damping in (
            DampingSpec(DampingChannel.NONE, 0.0),
            DampingSpec(DampingChannel.AMPLITUDE, 0.25),
            DampingSpec(DampingChannel.PHASE, 0.25),
        ):
            out = integrate_master(rho, medium, damping, 0.2)
            worst_ref = max(worst_ref, abs(out.trace() - 1.0))
    print(f"reference exponential: max |trace - 1| = {worst_ref:.3e}")
    assert worst_ref < 1e-10


def test_criterion_08_phase_damping_structure():
    """Phase damping leaves populations bit-identical (bound 1e-14) and
    multiplies each off-diagonal by exp(-gamma (n-m)^2 t / 2) within 1e-12."""
    gamma, t = 0.3, 0.7
    for medium in (KERR, CUBIC):
        rho = even_rho(5.0, 40)
        damped = propagate_phase_damping(rho, medium, gamma, t)
        pop_dev = float(np.max(np.abs(np.diagonal(damped.elements - rho.elements))))
        n = np.arange(40)
        factors = np.exp(-0.5 * gamma * (n[:, None] - n[None, :]) ** 2 * t)
        expected = propagate_unitary(rho, medium, t).elements * factors
        off_dev = float(np.max(np.abs(damped.elements - expected)))
        print(f"{medium.kind.value:5s}: population dev = {pop_dev:.3e}, "
              f"off-diagonal factor dev = {off_dev:.3e}")
        assert pop_dev <= 1e-14
        assert off_dev < 1e-12


def test_criterion_09_amplitude_damping_asymptote():
    """At gamma*t = 10 amplitude damping has emptied the cavity: ground-state
    fidelity >= 1 - 1e-3, nonclassical area <= 1e-3, and the entropy sum is
    within 1e-3 of 1 + ln(pi), for all three states in both media."""
    gamma, t = 0.1, 100.0
    for medium in (KERR, CUBIC):
        for label, make in TRIO:
            rho_t = coherence_block_solve(make(0.5, 30), medium, gamma, t)
            infidelity = 1.0 - float(rho_t.elements[0, 0].real)
            area = nonclassical_area(rho_t)
            entropy_dev = abs(entropy_sum(rho_t) - ENTROPY_BOUND)
            print(f"{medium.kind.value:5s} {label:13s}: 1-fidelity={infidelity:.3e} "
                  f"area={area:+.3e} |entropy sum - bound|={entropy_dev:.3e}")
            assert infidelity <= 1e-3
            assert area <= 1e-3
            assert entropy_dev <= 1e-3


def test_criterion_10_phase_damping_saturation():
    """Under phase damping the area saturates at a positive plateau: values at
    gamma*t = 10 and 20 differ by < 1e-4 yet both exceed 1e-2."""
    gamma = 0.1
    for medium in (KERR, CUBIC):
        for label, make in TRIO:
            rho = make(5.0, 50)
            a10 = nonclassical_area(propagate_phase_damping(rho, medium, gamma, 100.0))
            a20 = nonclassical_area(propagate_phase_damping(rho, medium, gamma, 200.0))
            print(f"{medium.kind.value:5s} {label:13s}: area(10)={a10:.6f} "
                  f"|area(10) - area(20)| = {abs(a10 - a20):.3e}")
            assert abs(a10 - a20) < 1e-4
            assert a10 > 1e-2 and a20 > 1e-2


def test_criterion_11_oracle_equivalence():
    """At dim=15 every fast propagator matches the reference exponential within 1e-8
    element-wise, while the printed-variant amplitude map with the extra 1/k!
    weight breaks trace by more than 1e-2 on |2><2| at gamma*t = 1."""
    rho = added_rho(3.0, 15, p=2)
    gamma = 0.25
    for medium in (KERR, CUBIC):
        for t in (0.07, 0.19):
            ref_u = integrate_master(rho, medium, DampingSpec(DampingChannel.NONE, 0.0), t)
            dev_u = np.max(np.abs(propagate_unitary(rho, medium, t).elements - ref_u.elements))
            ref_p = integrate_master(rho, medium, DampingSpec(DampingChannel.PHASE, gamma), t)
            dev_p = np.max(np.abs(
                propagate_phase_damping(rho, medium, gamma, t).elements - ref_p.elements
            ))
            ref_a = integrate_master(rho, medium, DampingSpec(DampingChannel.AMPLITUDE, gamma), t)
            dev_a = np.max(np.abs(
                coherence_block_solve(rho, medium, gamma, t).elements - ref_a.elements
            ))
            print(f"{medium.kind.value:5s} t={t}: unitary {dev_u:.2e}  phase {dev_p:.2e}  "
                  f"amplitude-exact {dev_a:.2e}")
            for dev in (dev_u, dev_p, dev_a):
                assert dev < 1e-8

    amps = np.zeros(15, dtype=complex)
    amps[2] = 1.0
    fock2 = density_from_pure(FockVector(15, amps))
    variant = amplitude_damping_factorial_variant(fock2, KERR, 0.5, 2.0)
    trace_dev = abs(float(np.trace(variant).real) - 1.0)
    print(f"1/k! variant trace deviation on |2><2| at gamma*t=1: {trace_dev:.6f}")
    assert trace_dev > 1e-2


def test_criterion_12_field_strength_monotonicity():
    """Coherent states in the Kerr medium: at t/T_rev in {0.15, 0.25, 0.35}
    the nonclassical area strictly increases across |alpha|^2 = 10, 15, 20."""
    t_rev = revival_time(KERR)
    for frac in (0.15, 0.25, 0.35):
        areas = [
            nonclassical_area(propagate_unitary(coherent_rho(a2, dim), KERR, frac * t_rev))
            for a2, dim in ((10.0, 60), (15.0, 70), (20.0, 80))
        ]
        print(f"t={frac:.2f}*T_rev: areas = "
              + "  ".join("%.6f" % a for a in areas))
        assert areas[0] < areas[1] < areas[2]


def test_criterion_13_tomogram_properties():
    """Every tomogram slice integrates to 1 within 1e-6, satisfies the
    reflection identity omega(x, theta+pi) = omega(-x, theta) within 1e-12,
    and the vacuum tomogram equals exp(-x^2)/sqrt(pi) within 1e-10."""
    thetas = uniform_thetas(8)
    rho = propagate_unitary(even_rho(10.0, 60), KERR, 0.23 * revival_time(KERR))
    tomo = tomogram_of_density(rho, symmetric_grid(10.0, 200, thetas))
    norm_dev = float(np.max(np.abs(np.trapezoid(tomo.values, tomo.grid.x, axis=1) - 1.0)))
    reflect_dev = 0.0
    half = len(thetas) // 2
    for i in range(half):
        reflect_dev = max(reflect_dev, float(np.max(np.abs(
            tomo.values[i + half] - tomo.values[i][::-1]
        ))))
    print(f"normalization dev = {norm_dev:.3e}, reflection dev = {reflect_dev:.3e}")
    assert norm_dev < 1e-6
    assert reflect_dev < 1e-12

    vac = density_from_pure(InitialStateSpec(StateKind.COHERENT, 0.0 + 0.0j).build(10))
    grid = symmetric_grid(10.0, 200, (0.0, 1.1, 4.0))
    vac_tomo = tomogram_of_density(vac, grid)
    exact = np.exp(-grid.x ** 2) / math.sqrt(math.pi)
    vac_dev = float(np.max(np.abs(vac_tomo.values - exact[None, :])))
    print(f"vacuum dev = {vac_dev:.3e}")
    assert vac_dev < 1e-10
