"""Configuration-driven experiment runner.

Builds the initial state, sweeps the time grid in order with the
propagator selected by the damping channel and solver choice, computes
one :class:`~nltomo.quantifiers.QuantifierRecord` per sample, enforces
the row invariants (trace and the entropic uncertainty bound), and
writes the CSV / tomogram-dump / minima-report products.

The sweep, the tomogram dumps, the convergence sweep and the oracle all
take their states from one generator, so the oracle checks the
propagator the sweep uses.  Outputs are deterministic for a fixed
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .config import AmplitudeSolver, ExperimentConfig, Product, config_to_text
from .errors import NumericalInvariantError, ValidationError
from .evolve import (
    DampingChannel,
    amplitude_exact_states,
    integrate_master,
    propagate_amplitude_damping_closed,
    propagate_phase_damping,
    propagate_unitary,
)
from .quantifiers import (
    ENTROPY_BOUND,
    QuantifierRecord,
    compute_record,
    find_local_minima,
    nonclassical_area,
)
from .states import DensityMatrix, density_from_pure, ladder_expectations, tail_mass
from .tomography import suggested_grid, tomogram_of_density, uniform_thetas, QuadratureGrid

__all__ = [
    "RunResult",
    "ConvergenceReport",
    "OracleReport",
    "run_experiment",
    "convergence_sweep",
    "oracle_report",
    "write_quantifier_csv",
]

_TAIL_TOL = 1e-6
_TRACE_ROW_TOL = 1e-10
_BOUND_ROW_TOL = 1e-6


@dataclass(frozen=True)
class RunResult:
    config: ExperimentConfig
    records: tuple[QuantifierRecord, ...]
    csv_path: Path | None
    dump_paths: tuple[Path, ...]
    minima_path: Path | None
    config_path: Path | None


def _states(
    cfg: ExperimentConfig, rho0: DensityMatrix, times: Sequence[float]
) -> Iterator[DensityMatrix]:
    """The configured propagator's state at each time, in order."""
    medium, damping = cfg.medium, cfg.damping
    if damping.channel is DampingChannel.NONE:
        return (propagate_unitary(rho0, medium, t) for t in times)
    if damping.channel is DampingChannel.PHASE:
        return (propagate_phase_damping(rho0, medium, damping.gamma, t) for t in times)
    if cfg.amplitude_solver is AmplitudeSolver.CLOSED_FORM:
        return (propagate_amplitude_damping_closed(rho0, medium, damping.gamma, t) for t in times)
    return amplitude_exact_states(rho0, medium, damping.gamma, times)


def _resolve_window(cfg: ExperimentConfig, rho0: DensityMatrix) -> tuple[float, int]:
    if cfg.x_max is not None:
        return (cfg.x_max, cfg.n_x)
    # <N> never grows under these channels, so the t=0 window covers the sweep
    grid = suggested_grid(ladder_expectations(rho0).n, (0.0,))
    return (grid.x_max, grid.n_x)


def _check_row_invariants(rec: QuantifierRecord) -> None:
    if abs(rec.trace - 1.0) > _TRACE_ROW_TOL:
        raise NumericalInvariantError(
            f"trace invariant violated at t={rec.t:.6g}: |trace-1|={abs(rec.trace - 1.0):.3e}"
        )
    if rec.entropy_sum < ENTROPY_BOUND - _BOUND_ROW_TOL:
        raise NumericalInvariantError(
            f"entropy bound violated at t={rec.t:.6g}: "
            f"S_sum={rec.entropy_sum:.12g} < {ENTROPY_BOUND:.12g} - 1e-6"
        )


def write_quantifier_csv(path: Path, records: Sequence[QuantifierRecord]) -> Path:
    lines = [",".join(QuantifierRecord.FIELDS)]
    for rec in records:
        lines.append(",".join("%.12g" % v for v in rec.as_row()))
    path.write_text("\n".join(lines) + "\n")
    return path


def _minima_report_text(
    times: np.ndarray,
    t_rev: float,
    series: dict[str, np.ndarray],
    prominence: float,
) -> str:
    lines = [f"# local minima, prominence >= {prominence:g}"]
    for label, values in series.items():
        hits = find_local_minima(times, values, prominence)
        lines.append(f"# series: {label} ({len(hits)} minima)")
        for t in hits:
            idx = int(np.argmin(np.abs(times - t)))
            lines.append(
                f"t={t:.12g} t_over_trev={t / t_rev:.12g} value={values[idx]:.12g}"
            )
    return "\n".join(lines) + "\n"


def run_experiment(cfg: ExperimentConfig, write_config: bool = False) -> RunResult:
    """Execute one configured sweep and write the requested products."""
    psi = cfg.initial_state.build(cfg.dim)
    start = max(0, cfg.dim - 5)
    tail = tail_mass(psi, start)
    if tail > _TAIL_TOL and not cfg.force:
        raise ValidationError(
            f"truncation check failed: mass {tail:.3e} in the top 5 Fock levels "
            f"(tolerance {_TAIL_TOL:.0e}); raise sim.dim or set sim.force = true"
        )
    rho0 = density_from_pure(psi)
    times = cfg.time_grid.values
    t_rev = cfg.t_rev
    window = _resolve_window(cfg, rho0)

    needs_sweep = bool(
        cfg.products & {Product.QUANTIFIERS_CSV, Product.MINIMA_REPORT}
    )
    records: tuple[QuantifierRecord, ...] = ()
    if needs_sweep:
        records = tuple(
            compute_record(rho_t, t, t_rev, cfg.theta_count, window)
            for rho_t, t in zip(_states(cfg, rho0, times), times)
        )
        for rec in records:
            _check_row_invariants(rec)

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = None
    if Product.QUANTIFIERS_CSV in cfg.products:
        csv_path = write_quantifier_csv(cfg.out_dir / f"{cfg.name}.csv", records)

    dump_paths: list[Path] = []
    if Product.TOMOGRAM_DUMP in cfg.products:
        dump_thetas = uniform_thetas(cfg.theta_count)
        x_max, n_x = window
        dump_grid = QuadratureGrid(-x_max, x_max, n_x, dump_thetas)
        dump_times = [u * t_rev for u in cfg.tomograms_at]
        for u, rho_t in zip(cfg.tomograms_at, _states(cfg, rho0, dump_times)):
            tomo = tomogram_of_density(rho_t, dump_grid)
            path = cfg.out_dir / f"{cfg.name}_tomogram_t{('%.6g' % u).replace('.', 'p')}trev.dat"
            dump_paths.append(tomo.write_dump(path))

    minima_path = None
    if Product.MINIMA_REPORT in cfg.products:
        area = np.array([r.nonclassical_area for r in records])
        ssum = np.array([r.entropy_sum for r in records])
        text = _minima_report_text(
            times,
            t_rev,
            {"nonclassical_area": area, "entropy_sum": ssum},
            cfg.minima_prominence,
        )
        minima_path = cfg.out_dir / f"{cfg.name}_minima.txt"
        minima_path.write_text(text)

    config_path = None
    if write_config:
        config_path = cfg.out_dir / f"{cfg.name}.cfg"
        config_path.write_text(config_to_text(cfg))

    return RunResult(
        config=cfg,
        records=records,
        csv_path=csv_path,
        dump_paths=tuple(dump_paths),
        minima_path=minima_path,
        config_path=config_path,
    )


@dataclass(frozen=True)
class ConvergenceReport:
    dims: tuple[int, ...]
    probe_fractions: tuple[float, ...]
    areas: np.ndarray  # (n_dims, n_probes)
    mean_photons: np.ndarray  # (n_dims, n_probes)
    traces: np.ndarray  # (n_dims, n_probes)
    deltas: tuple[float, ...]  # per successive dim pair, max over observables
    converged_at: int | None
    tolerance: float
    text: str


def convergence_sweep(
    cfg: ExperimentConfig,
    dims: Sequence[int],
    tolerance: float = 1e-10,
    probe_fractions: Sequence[float] = (0.25, 0.5, 1.0),
) -> ConvergenceReport:
    """Re-run a few probe times at increasing truncation dimensions.

    Tracks trace, mean photon number, and nonclassical area at each
    probe time.  The first dim whose successor moves none of the three
    observables beyond ``tolerance`` is declared converged (i.e. that
    smaller dim was already adequate).
    """
    dims = tuple(sorted(set(int(d) for d in dims)))
    if len(dims) < 2:
        raise ValidationError("need at least two distinct dims to compare")
    if any(d < 2 for d in dims):
        raise ValidationError(f"dims must be >= 2, got {dims}")
    fractions = tuple(float(f) for f in probe_fractions)
    if not fractions or any(not (0 <= f <= 1) for f in fractions):
        raise ValidationError("probe fractions must lie in [0, 1]")
    t_end = cfg.t_end_over_trev * cfg.t_rev
    probe_times = [f * t_end for f in fractions]

    area_rows, n_rows, trace_rows = [], [], []
    for dim in dims:
        sub = replace(cfg, dim=dim, force=True)
        rho0 = density_from_pure(sub.initial_state.build(dim))
        states = list(_states(sub, rho0, probe_times))
        area_rows.append(
            [nonclassical_area(s, theta_count=cfg.theta_count) for s in states]
        )
        n_rows.append([ladder_expectations(s).n for s in states])
        trace_rows.append([s.trace() for s in states])
    areas = np.array(area_rows)
    mean_photons = np.array(n_rows)
    traces = np.array(trace_rows)

    def pair_delta(table: np.ndarray, i: int) -> float:
        return float(np.max(np.abs(table[i + 1] - table[i])))

    per_pair = [
        {
            "area": pair_delta(areas, i),
            "mean_photons": pair_delta(mean_photons, i),
            "trace": pair_delta(traces, i),
        }
        for i in range(len(dims) - 1)
    ]
    deltas = tuple(max(d.values()) for d in per_pair)
    converged_at = None
    for i, delta in enumerate(deltas):
        if delta < tolerance:
            converged_at = dims[i]
            break

    lines = [
        f"# convergence sweep: {cfg.name}",
        "# probe times (t/T_rev): " + ", ".join("%g" % f for f in fractions),
        "# observables: nonclassical area, mean photon number, trace",
    ]
    for i, dim in enumerate(dims):
        cells = "  ".join(
            "area=%.12g n=%.12g" % (a, n)
            for a, n in zip(areas[i], mean_photons[i])
        )
        lines.append(f"dim={dim}  {cells}")
    for i, detail in enumerate(per_pair):
        parts = "  ".join(f"{k}={v:.3e}" for k, v in detail.items())
        lines.append(f"# max |delta| dim {dims[i]} -> {dims[i + 1]}: {parts}")
    if converged_at is None:
        lines.append(f"# not converged at tolerance {tolerance:g}")
    else:
        lines.append(f"# converged at dim={converged_at} (tolerance {tolerance:g})")
    text = "\n".join(lines) + "\n"
    return ConvergenceReport(
        dims=dims,
        probe_fractions=fractions,
        areas=areas,
        mean_photons=mean_photons,
        traces=traces,
        deltas=deltas,
        converged_at=converged_at,
        tolerance=tolerance,
        text=text,
    )


@dataclass(frozen=True)
class OracleReport:
    dim: int
    times: tuple[float, ...]
    deviations: tuple[float, ...]
    # closed-form vs exact amplitude solver, split by matrix part; None
    # unless the configured channel is amplitude damping
    closed_diag_deviations: tuple[float, ...] | None
    closed_offdiag_deviations: tuple[float, ...] | None
    passed: bool
    tolerance: float
    text: str


_ORACLE_DIM_CAP = 15
_ORACLE_TOL = 1e-8


def oracle_report(cfg: ExperimentConfig, samples: int = 9) -> OracleReport:
    """Cross-check the configured propagator against the reference RK4.

    The dense superoperator integrator scales as O(dim^6), so the check
    runs at dim = min(sim.dim, 15); the closed forms being verified are
    dimension-agnostic elementwise recurrences, which makes the reduced
    dimension a faithful probe of their correctness.
    """
    dim = min(cfg.dim, _ORACLE_DIM_CAP)
    sub = replace(cfg, dim=dim, force=True)
    rho0 = density_from_pure(sub.initial_state.build(dim))
    t_end = sub.t_end_over_trev * sub.t_rev
    times = np.linspace(0.0, t_end, max(2, samples))

    solver_label = {
        DampingChannel.NONE: "unitary",
        DampingChannel.PHASE: "phase_damping",
        DampingChannel.AMPLITUDE: f"amplitude_{sub.amplitude_solver.value}",
    }[sub.damping.channel]

    devs = []
    lines = [
        f"# oracle check: {cfg.name}",
        f"# dim={dim} solver={solver_label} tolerance={_ORACLE_TOL:g}",
    ]
    for t, candidate in zip(times, _states(sub, rho0, times)):
        reference = integrate_master(rho0, sub.medium, sub.damping, float(t))
        dev = float(np.max(np.abs(candidate.elements - reference.elements)))
        devs.append(dev)
        verdict = "PASS" if dev <= _ORACLE_TOL else "FAIL"
        lines.append(
            f"t_over_trev={t / sub.t_rev:.6g} max_dev={dev:.3e} {verdict}"
        )
    passed = all(d <= _ORACLE_TOL for d in devs)

    closed_diag = closed_offdiag = None
    if sub.damping.channel is DampingChannel.AMPLITUDE:
        # the approximate closed form solves the population equation exactly
        # but factors the nonlinear phase out of the coherence cascade, so
        # only its diagonal is held to the tolerance; the off-diagonal gap
        # is measured and reported
        lines.append("# closed_form vs exact (off-diagonal reported, not asserted)")
        off_mask = ~np.eye(dim, dtype=bool)
        diag_devs, off_devs = [], []
        exact_states = amplitude_exact_states(rho0, sub.medium, sub.damping.gamma, times)
        for t, exact in zip(times, exact_states):
            closed = propagate_amplitude_damping_closed(
                rho0, sub.medium, sub.damping.gamma, float(t)
            )
            diff = np.abs(closed.elements - exact.elements)
            diag_devs.append(float(np.max(np.diag(diff))))
            off_devs.append(float(np.max(diff[off_mask])))
            verdict = "PASS" if diag_devs[-1] <= _ORACLE_TOL else "FAIL"
            lines.append(
                f"t_over_trev={t / sub.t_rev:.6g} diag_dev={diag_devs[-1]:.3e} "
                f"{verdict}  offdiag_dev={off_devs[-1]:.3e}"
            )
        closed_diag = tuple(diag_devs)
        closed_offdiag = tuple(off_devs)
        passed = passed and all(d <= _ORACLE_TOL for d in diag_devs)

    lines.append(f"# overall: {'PASS' if passed else 'FAIL'}")
    text = "\n".join(lines) + "\n"
    return OracleReport(
        dim=dim,
        times=tuple(float(t) for t in times),
        deviations=tuple(devs),
        closed_diag_deviations=closed_diag,
        closed_offdiag_deviations=closed_offdiag,
        passed=passed,
        tolerance=_ORACLE_TOL,
        text=text,
    )
