"""Bundled experiment presets.

Each preset is one row of ``_PRESETS``: a small group of runs covering one
standard scenario (state family x medium x damping channel) at desk scale.
The row names the medium, the damping channel and rate, the kind of sweep
(``_SWEEPS``: its time span, step count and products), the state families
and the (|alpha|^2, dim) pairs; the configs and the one-line description
are both built from it.  All presets share the conventions chi = 5 (so
T_rev = pi/5), initial phase delta = pi/4, and a 3-photon-added state where
the photon-added family appears.  Rate sweeps plotted against gamma*t fix
gamma and sweep t; the chosen factorization is recorded in the resolved
config written next to the outputs.

Quadrature windows are auto-sized from <N>; the high field-strength entropy
presets (fig7-fig9) therefore run on a window wide enough to hold
|alpha|^2 = 40 states at every phase, which keeps the per-row normalization
and entropy-bound invariants intact.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

from .config import ExperimentConfig, Product
from .errors import ValidationError
from .evolve import DampingChannel, DampingSpec, MediumKind, MediumSpec, revival_time
from .runner import RunResult, run_experiment
from .states import InitialStateSpec, StateKind

__all__ = ["preset_names", "preset_description", "preset_configs", "run_preset"]

_CHI = 5.0
_DELTA = 0.25 * math.pi
_P_ADDED = 3

_CSV = frozenset({Product.QUANTIFIERS_CSV})
_CSV_MINIMA = frozenset({Product.QUANTIFIERS_CSV, Product.MINIMA_REPORT})


class _Sweep(NamedTuple):
    phrase: str
    t_end_over_trev: float | None  # None: up to gamma*t = 10 at the row's gamma
    steps: int
    products: frozenset
    dumps_at_gamma_t: tuple[float, ...] = ()


_SWEEPS = {
    "area": _Sweep("area vs t", 1.0, 500, _CSV),
    "area_minima": _Sweep("area vs t with minima report", 1.0, 500, _CSV_MINIMA),
    "area_gamma_t": _Sweep("area vs gamma*t up to 10", None, 200, _CSV),
    # the cubic revival sits at T_rev/3
    "entropy_kerr": _Sweep("entropy sum vs t with minima report", 0.55, 700, _CSV_MINIMA),
    "entropy_cubic": _Sweep("entropy sum vs t with minima report", 0.35, 500, _CSV_MINIMA),
    "dumps": _Sweep(
        "tomogram dumps at gamma*t = 0.01, 0.1, 1, 10",
        None,
        200,
        frozenset({Product.TOMOGRAM_DUMP}),
        (0.01, 0.1, 1.0, 10.0),
    ),
}

# the families' description phrase and their (run label, state kind)
_FAMILIES = {
    "trio": (
        "the three states",
        (
            ("coherent", StateKind.COHERENT),
            ("photon_added", StateKind.PHOTON_ADDED),
            ("even", StateKind.EVEN_COHERENT),
        ),
    ),
    "coherent": ("coherent state", (("coherent", StateKind.COHERENT),)),
    "added": ("3-photon-added state", (("photon_added", StateKind.PHOTON_ADDED),)),
}

_KERR, _CUBIC = MediumKind.KERR, MediumKind.CUBIC
_NONE, _AMP, _PHASE = DampingChannel.NONE, DampingChannel.AMPLITUDE, DampingChannel.PHASE

# Several (|alpha|^2, dim) pairs make one run per pair, named a<|alpha|^2>;
# such rows hold one family.
_PRESETS = {
    # name: (medium, channel, gamma, sweep, families, ((|alpha|^2, dim), ...))
    "fig1": (_KERR, _NONE, 0.0, "area_minima", "trio", ((10.0, 60),)),
    "fig2": (_KERR, _NONE, 0.0, "area", "coherent", ((10.0, 60), (15.0, 70), (20.0, 80))),
    "fig3": (_KERR, _AMP, 0.1, "area", "trio", ((10.0, 60),)),
    "fig4": (_KERR, _AMP, 0.1, "area_gamma_t", "trio", ((5.0, 50),)),
    "fig5": (_KERR, _PHASE, 0.1, "area", "trio", ((10.0, 60),)),
    "fig6": (_KERR, _PHASE, 0.1, "area_gamma_t", "trio", ((5.0, 50),)),
    "fig7": (_KERR, _NONE, 0.0, "entropy_kerr", "trio", ((40.0, 100),)),
    "fig8": (_KERR, _AMP, 0.05, "entropy_kerr", "trio", ((40.0, 100),)),
    "fig9": (_KERR, _PHASE, 0.05, "entropy_kerr", "trio", ((40.0, 100),)),
    "fig10": (_CUBIC, _NONE, 0.0, "area_minima", "trio", ((5.0, 60),)),
    "fig11": (_CUBIC, _NONE, 0.0, "area", "coherent", ((5.0, 60), (10.0, 70))),
    "fig12": (_CUBIC, _AMP, 0.1, "area", "trio", ((5.0, 60),)),
    "fig13": (_CUBIC, _AMP, 0.1, "dumps", "added", ((5.0, 60),)),
    "fig14": (_CUBIC, _AMP, 0.1, "area_gamma_t", "trio", ((3.0, 50),)),
    "fig15": (_CUBIC, _PHASE, 0.1, "area", "trio", ((5.0, 60),)),
    "fig16": (_CUBIC, _PHASE, 0.1, "dumps", "added", ((5.0, 60),)),
    "fig17": (_CUBIC, _PHASE, 0.1, "area_gamma_t", "trio", ((5.0, 50),)),
    "fig18": (_CUBIC, _NONE, 0.0, "entropy_cubic", "trio", ((5.0, 70),)),
    "fig19": (_CUBIC, _AMP, 0.05, "entropy_cubic", "trio", ((5.0, 70),)),
    "fig20": (_CUBIC, _PHASE, 0.05, "entropy_cubic", "trio", ((5.0, 70),)),
}


def preset_names() -> tuple[str, ...]:
    return tuple(_PRESETS)


def _row(name: str) -> tuple:
    if name not in _PRESETS:
        raise ValidationError(f"unknown preset {name!r}; known: {', '.join(_PRESETS)}")
    return _PRESETS[name]


def preset_description(name: str) -> str:
    medium, channel, gamma, sweep, families, pairs = _row(name)
    damping = "no damping" if channel is _NONE else f"{channel.value} damping gamma={gamma:g}"
    alpha_sqs = ",".join(f"{alpha_sq:g}" for alpha_sq, _ in pairs)
    dims = ",".join(str(dim) for _, dim in pairs)
    return (
        f"{medium.value.capitalize()}, {damping}: {_SWEEPS[sweep].phrase}, "
        f"{_FAMILIES[families][0]}, |alpha|^2={alpha_sqs}, dim={dims}"
    )


def preset_configs(name: str, out_dir: str | Path | None = None) -> tuple[ExperimentConfig, ...]:
    """The runs of a preset, with out_dir resolved (default nltomo_out/<name>)."""
    medium_kind, channel, gamma, sweep_key, families, pairs = _row(name)
    medium = MediumSpec(medium_kind, _CHI)
    sweep = _SWEEPS[sweep_key]
    t_rev = revival_time(medium)
    t_end = sweep.t_end_over_trev or 10.0 / gamma / t_rev
    return tuple(
        ExperimentConfig(
            initial_state=InitialStateSpec._of_polar(
                kind, alpha_sq, _DELTA, p=_P_ADDED if kind is StateKind.PHOTON_ADDED else 0
            ),
            medium=medium,
            damping=DampingSpec(channel, gamma),
            dim=dim,
            t_end_over_trev=t_end,
            steps=sweep.steps,
            products=sweep.products,
            tomograms_at=tuple(gt / gamma / t_rev for gt in sweep.dumps_at_gamma_t),
            name=f"{name}_{label if len(pairs) == 1 else f'a{alpha_sq:g}'}",
            out_dir=Path(out_dir) if out_dir is not None else Path("nltomo_out") / name,
        )
        for alpha_sq, dim in pairs
        for label, kind in _FAMILIES[families][1]
    )


def run_preset(name: str, out_dir: str | Path | None = None) -> list[RunResult]:
    """Run every configuration of a preset; writes resolved .cfg files too."""
    return [run_experiment(cfg, write_config=True) for cfg in preset_configs(name, out_dir)]
