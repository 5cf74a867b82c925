"""Configuration-driven experiment runner.

Builds the initial state, sweeps the time grid in order, computes one
:class:`~nltomo.quantifiers.QuantifierRecord` per sample (which refuses
a state whose trace drifts), enforces the entropic uncertainty bound on
each row, and writes the CSV / tomogram-dump / minima-report products.

Sweeps and tomogram dumps never form a state, whatever the channel: they
take the coherence diagonals of up to 64 times at once from
:func:`~nltomo.evolve.coherence_diagonals`, and a sweep computes their
records together (:func:`~nltomo.quantifiers.records_of_diagonals`) while
a dump passes them through the same tomogram kernel on its 128-phase grid.
The convergence sweep computes the records of its probe times the same
way at each dim, and the oracle compares the diagonals with dense
references.  There is no second record path: the per-state
:func:`~nltomo.quantifiers.compute_record` is the same batch code at
T = 1.  Outputs are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import ExperimentConfig, Product, _dump_label, config_to_text
from .errors import NumericalInvariantError, ValidationError
from .evolve import (
    DampingChannel,
    coherence_block_solve,
    coherence_diagonals,
    integrate_master,
    propagate_unitary,  # unused: perfbench/selftest.py traces runner.propagate_unitary
)
from .quantifiers import (
    ENTROPY_BOUND,
    QuantifierRecord,
    find_local_minima,
    _window,
    records_of_diagonals,
)
from .states import DensityMatrix, density_from_pure, first_refused_density, tail_mass
from .tomography import (
    Tomogram, check_tomograms, symmetric_grid, tomograms_of_diagonals, uniform_thetas
)

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
_BOUND_ROW_TOL = 1e-6


@dataclass(frozen=True)
class RunResult:
    config: ExperimentConfig
    records: tuple[QuantifierRecord, ...]
    csv_path: Path | None
    dump_paths: tuple[Path, ...]
    minima_path: Path | None
    config_path: Path | None


def _records(
    cfg: ExperimentConfig, rho0: DensityMatrix, times: np.ndarray, window: tuple[float, int]
) -> tuple[QuantifierRecord, ...]:
    records: list[QuantifierRecord] = []
    for chunk, diagonals in coherence_diagonals(rho0, cfg.medium, cfg.damping, times):
        records += records_of_diagonals(chunk, diagonals, cfg.t_rev, cfg.theta_count, window)
    return tuple(records)


def _resolve_window(cfg: ExperimentConfig, rho0: DensityMatrix) -> tuple[float, int]:
    # <N> never grows under these channels, so the t=0 window covers the sweep
    return _window(rho0, None if cfg.x_max is None else (cfg.x_max, cfg.n_x))


def _check_row_invariants(rec: QuantifierRecord) -> None:
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
    start = max(1, cfg.dim - 5)  # the top 5 levels, never the ground level
    tail = tail_mass(psi, start)
    if tail > _TAIL_TOL:
        raise ValidationError(
            f"truncation check failed: mass {tail:.3e} in the top {cfg.dim - start} Fock "
            f"levels (tolerance {_TAIL_TOL:.0e}); raise sim.dim"
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
        records = _records(cfg, rho0, times, window)
        for rec in records:
            _check_row_invariants(rec)

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = None
    if Product.QUANTIFIERS_CSV in cfg.products:
        csv_path = write_quantifier_csv(cfg.out_dir / f"{cfg.name}.csv", records)

    dump_paths: list[Path] = []
    if Product.TOMOGRAM_DUMP in cfg.products:
        dump_grid = symmetric_grid(*window, uniform_thetas(cfg.theta_count))
        dump_times = [u * t_rev for u in cfg.tomograms_at]
        for _, diagonals in coherence_diagonals(rho0, cfg.medium, cfg.damping, dump_times):
            diagonals = list(diagonals)
            finite = np.logical_and.reduce([np.isfinite(x).all(axis=1) for x in diagonals])
            k_state, refusal = first_refused_density(finite, diagonals[0].real.sum(axis=1))
            values = tomograms_of_diagonals(diagonals, dump_grid)
            for k in range(k_state):
                check_tomograms(values[:, k : k + 1], dump_grid.x)
                label = _dump_label(cfg.tomograms_at[len(dump_paths)])
                path = cfg.out_dir / f"{cfg.name}_tomogram_t{label}trev.dat"
                dump_paths.append(Tomogram._of_checked(dump_grid, values[:, k]).write_dump(path))
            if refusal is not None:
                raise refusal

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


_CONVERGE_TOL = 1e-10
_PROBE_FRACTIONS = (0.25, 0.5, 1.0)


def convergence_sweep(cfg: ExperimentConfig, dims: Sequence[int]) -> ConvergenceReport:
    """Re-run a few probe times at increasing truncation dimensions.

    At each dim the probe times' CSV records are computed as a sweep
    computes them, all on one window (the configured one, or the one
    sized at the smallest dim).  The first dim whose successor moves none
    of the area, the two entropies, the mean photon number and the trace
    beyond 1e-10 is declared converged (i.e. that smaller dim was
    already adequate).
    """
    dims = tuple(sorted(set(int(d) for d in dims)))
    if len(dims) < 2:
        raise ValidationError("need at least two distinct dims to compare")
    if any(d < 2 for d in dims):
        raise ValidationError(f"dims must be >= 2, got {dims}")
    t_end = cfg.t_end_over_trev * cfg.t_rev
    probe_times = [f * t_end for f in _PROBE_FRACTIONS]
    window = _resolve_window(cfg, density_from_pure(cfg.initial_state.build(dims[0])))

    records, n_rows = [], []
    for dim in dims:
        rho0 = density_from_pure(cfg.initial_state.build(dim))
        rows, photons = [], []
        for chunk, diagonals in coherence_diagonals(rho0, cfg.medium, cfg.damping, probe_times):
            x0 = next(diagonals)
            # the <N> sum of ladder_expectations, bit for bit
            photons += np.real(np.sum(np.arange(dim) * x0, axis=-1)).tolist()
            rows += records_of_diagonals(
                chunk, chain([x0], diagonals), cfg.t_rev, cfg.theta_count, window
            )
        records.append(rows)
        n_rows.append(photons)
    areas, s0, s90, traces = (
        np.array([[getattr(r, field) for r in rows] for rows in records])
        for field in ("nonclassical_area", "entropy_0", "entropy_90", "trace")
    )
    mean_photons = np.array(n_rows)

    def pair_delta(table: np.ndarray, i: int) -> float:
        return float(np.max(np.abs(table[i + 1] - table[i])))

    per_pair = [
        {
            "area": pair_delta(areas, i),
            "entropy": max(pair_delta(s0, i), pair_delta(s90, i)),
            "mean_photons": pair_delta(mean_photons, i),
            "trace": pair_delta(traces, i),
        }
        for i in range(len(dims) - 1)
    ]
    deltas = tuple(max(d.values()) for d in per_pair)
    converged_at = next((d for d, delta in zip(dims, deltas) if delta < _CONVERGE_TOL), None)

    lines = [
        f"# convergence sweep: {cfg.name}",
        "# probe times (t/T_rev): "
        + ", ".join("%g" % (f * cfg.t_end_over_trev) for f in _PROBE_FRACTIONS),
        "# observables: nonclassical area, entropies at theta = 0 and pi/2, "
        "mean photon number, trace",
        "# entropy window: x_max=%g n_x=%d" % window,
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
        lines.append(f"# not converged at tolerance {_CONVERGE_TOL:g}")
    else:
        lines.append(f"# converged at dim={converged_at} (tolerance {_CONVERGE_TOL:g})")
    text = "\n".join(lines) + "\n"
    return ConvergenceReport(
        dims=dims,
        probe_fractions=_PROBE_FRACTIONS,
        areas=areas,
        mean_photons=mean_photons,
        traces=traces,
        deltas=deltas,
        converged_at=converged_at,
        tolerance=_CONVERGE_TOL,
        text=text,
    )


@dataclass(frozen=True)
class OracleReport:
    dim: int
    times: tuple[float, ...]
    deviations: tuple[float, ...]
    passed: bool
    tolerance: float
    text: str
    # amplitude damping only: against coherence_block_solve at sim.dim
    full_dim_deviations: tuple[float, ...] = ()


_ORACLE_DIM_CAP = 15
_ORACLE_TOL = 1e-8


def oracle_report(cfg: ExperimentConfig, samples: int = 9) -> OracleReport:
    """Cross-check the configured propagator against dense references.

    At each probe time the coherence diagonals x_d = rho_{j+d, j} that
    sweeps and dumps read (:func:`coherence_diagonals`) are compared with
    those of a dense reference; both are hermitian, so nothing is left
    out.  The superoperator integrator exp(t L) scales as O(dim^6), so that
    check runs at dim = min(sim.dim, 15).  Under amplitude damping the
    diagonals are also checked at sim.dim against
    :func:`coherence_block_solve`, the dense exponential of each coherence
    block, at the same probe times and tolerance.
    """
    if samples < 2:
        raise ValidationError(f"oracle needs samples >= 2, got {samples}")
    dim = min(cfg.dim, _ORACLE_DIM_CAP)
    t_end = cfg.t_end_over_trev * cfg.t_rev
    times = np.linspace(0.0, t_end, samples)

    solver_label = {
        DampingChannel.NONE: "unitary",
        DampingChannel.PHASE: "phase_damping",
        DampingChannel.AMPLITUDE: "amplitude_exact",
    }[cfg.damping.channel]

    lines = [
        f"# oracle check: {cfg.name}",
        f"# dim={dim} solver={solver_label} tolerance={_ORACLE_TOL:g}",
    ]

    def compare(rho0: DensityMatrix, reference) -> list[float]:
        devs = []
        for chunk, diagonals in coherence_diagonals(rho0, cfg.medium, cfg.damping, times):
            refs = [reference(rho0, float(t)).elements for t in chunk]
            per_diagonal = [
                np.max(np.abs(x_d - [ref.diagonal(-d) for ref in refs]), axis=1)
                for d, x_d in enumerate(diagonals)
            ]
            devs += np.max(per_diagonal, axis=0).tolist()
        for t, dev in zip(times, devs):
            verdict = "PASS" if dev <= _ORACLE_TOL else "FAIL"
            lines.append(f"t_over_trev={t / cfg.t_rev:.6g} max_dev={dev:.3e} {verdict}")
        return devs

    devs = compare(
        density_from_pure(cfg.initial_state.build(dim)),
        lambda rho0, t: integrate_master(rho0, cfg.medium, cfg.damping, t),
    )
    full_devs = []
    if cfg.damping.channel is DampingChannel.AMPLITUDE:
        lines.append(f"# dim={cfg.dim} against coherence_block_solve")
        full_devs = compare(
            density_from_pure(cfg.initial_state.build(cfg.dim)),
            lambda rho0, t: coherence_block_solve(rho0, cfg.medium, cfg.damping.gamma, t),
        )
    passed = all(d <= _ORACLE_TOL for d in devs + full_devs)
    lines.append(f"# overall: {'PASS' if passed else 'FAIL'}")
    text = "\n".join(lines) + "\n"
    return OracleReport(
        dim=dim,
        times=tuple(float(t) for t in times),
        deviations=tuple(devs),
        passed=passed,
        tolerance=_ORACLE_TOL,
        text=text,
        full_dim_deviations=tuple(full_devs),
    )
