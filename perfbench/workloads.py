"""Seeded workload inputs: each workload is a list of `nltomo run` config files.

Seed 0 is the default seed. It reproduces the preset parameters exactly
(chi = 5, delta = pi/4, p = 3, and each preset's |alpha|^2, damping rate,
dimension and window). Any other seed draws, for every run, a fresh phase
delta in [0, 2*pi) and scales |alpha|^2 by a factor in [0.97, 1.03]. At the
largest of those factors every state still passes the program's truncation
check (under 1e-6 of probability in the top five Fock levels) at the run's
dimension, so no generated run is refused.

Sweeps use fewer time samples than the presets, so that one workload
iteration takes a few seconds and a run can measure several iterations.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
ALPHA_SQ_JITTER = 0.03

CHI = 5.0
DELTA = 0.25 * math.pi
P_ADDED = 3
FAMILIES = ("coherent", "photon_added", "even_coherent")


def _t_end_over_trev(t: float) -> float:
    # T_rev = pi / chi for both media
    return t / (math.pi / CHI)


@dataclass(frozen=True)
class Run:
    """One `nltomo run` of a workload, at the default seed."""

    name: str
    family: str
    alpha_sq: float
    medium: str
    channel: str
    gamma: float
    dim: int
    t_end_over_trev: float
    steps: int
    products: str
    tomograms_at: tuple[float, ...] = ()

    @property
    def samples(self) -> int:
        """Time samples the run computes: CSV rows plus dump times."""
        rows = self.steps if "quantifiers_csv" in self.products else 0
        return rows + len(self.tomograms_at)


def _trio(prefix, alpha_sq, medium, channel, gamma, dim, t_end_over_trev, steps, products):
    short = {"coherent": "coherent", "photon_added": "photon_added", "even_coherent": "even"}
    return [
        Run(f"{prefix}_{short[f]}", f, alpha_sq, medium, channel, gamma, dim,
            t_end_over_trev, steps, products)
        for f in FAMILIES
    ]


_CSV_MINIMA = "quantifiers_csv,minima_report"
_DUMP_GAMMA = 0.1

WORKLOADS: dict[str, tuple[str, list[Run]]] = {
    "kerr_amp_d100": (
        "fig8: Kerr medium, amplitude damping 0.05, |alpha|^2=40, dim 100, three families",
        _trio("fig8", 40.0, "kerr", "amplitude", 0.05, 100, 0.55, 60, _CSV_MINIMA),
    ),
    "pure_and_dephased": (
        "fig1 (Kerr, unitary, dim 60), fig18 (cubic, unitary, dim 70), "
        "fig9 (Kerr, phase damping 0.05, dim 100), three families each",
        _trio("fig1", 10.0, "kerr", "none", 0.0, 60, 1.0, 60, _CSV_MINIMA)
        + _trio("fig18", 5.0, "cubic", "none", 0.0, 70, 0.35, 60, _CSV_MINIMA)
        + _trio("fig9", 40.0, "kerr", "phase", 0.05, 100, 0.55, 50, _CSV_MINIMA),
    ),
    "cubic_amp_sweep_dumps": (
        "fig12 and fig19 (cubic amplitude-damping sweeps, dim 60 and 70) plus "
        "fig13 (photon-added tomogram dumps at gamma*t = 0.01, 0.1, 1, 10, dim 60)",
        [
            Run("fig12_coherent", "coherent", 5.0, "cubic", "amplitude", 0.1, 60,
                1.0, 60, "quantifiers_csv"),
            Run("fig19_photon_added", "photon_added", 5.0, "cubic", "amplitude", 0.05, 70,
                0.35, 60, _CSV_MINIMA),
            Run("fig13_photon_added", "photon_added", 5.0, "cubic", "amplitude", _DUMP_GAMMA, 60,
                _t_end_over_trev(10.0 / _DUMP_GAMMA), 200, "tomogram_dump",
                tuple(_t_end_over_trev(gt / _DUMP_GAMMA) for gt in (0.01, 0.1, 1.0, 10.0))),
        ],
    ),
}


def runs(workload: str) -> list[Run]:
    return WORKLOADS[workload][1]


def _perturbed(run: Run, rng: random.Random) -> tuple[float, float]:
    """(|alpha|^2, delta) for one run at a non-default seed."""
    delta = rng.uniform(0.0, 2.0 * math.pi)
    scale = 1.0 + rng.uniform(-ALPHA_SQ_JITTER, ALPHA_SQ_JITTER)
    return run.alpha_sq * scale, delta


def config_text(run: Run, out_dir: Path, alpha_sq: float, delta: float) -> str:
    lines = [
        f"state.kind = {run.family}",
        f"state.alpha_sq = {alpha_sq!r}",
        f"state.delta = {delta!r}",
    ]
    if run.family == "photon_added":
        lines.append(f"state.p = {P_ADDED}")
    lines += [
        f"medium.kind = {run.medium}",
        f"medium.chi = {CHI!r}",
        f"damping.channel = {run.channel}",
        f"damping.gamma = {run.gamma!r}",
        f"sim.dim = {run.dim}",
        f"sim.t_end_over_trev = {run.t_end_over_trev!r}",
        f"sim.steps = {run.steps}",
        f"out.dir = {out_dir}",
        f"out.name = {run.name}",
        f"out.products = {run.products}",
    ]
    if run.tomograms_at:
        lines.append("out.tomograms_at = " + ",".join(repr(u) for u in run.tomograms_at))
    return "\n".join(lines) + "\n"


def write_configs(workload: str, seed: int, cfg_dir: Path, out_dir: Path) -> list[tuple[Run, Path]]:
    """Write one .cfg per run of the workload; the same seed gives the same files."""
    rng = random.Random(f"{workload}/{seed}")
    cfg_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for run in runs(workload):
        if seed == DEFAULT_SEED:
            alpha_sq, delta = run.alpha_sq, DELTA
        else:
            alpha_sq, delta = _perturbed(run, rng)
        path = cfg_dir / f"{run.name}.cfg"
        path.write_text(config_text(run, out_dir, alpha_sq, delta))
        written.append((run, path))
    return written
