"""Bundled experiment presets.

Each preset is a small group of runs covering one standard scenario
(state family x medium x damping channel) at desk scale.  All presets
share the conventions chi = 5 (so T_rev = pi/5), initial phase
delta = pi/4, and a 3-photon-added state where the photon-added family
appears.  Rate sweeps plotted against gamma*t fix gamma and sweep t;
the chosen factorization is recorded in the resolved config written
next to the outputs.

Quadrature windows are auto-sized from <N> unless noted; the high
field-strength entropy presets (fig7-fig9) therefore run on a window
wide enough to hold |alpha|^2 = 40 states at every phase, which keeps
the per-row normalization and entropy-bound invariants intact.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

from .config import AmplitudeSolver, ExperimentConfig, Product
from .errors import ValidationError
from .evolve import DampingChannel, DampingSpec, MediumKind, MediumSpec
from .runner import RunResult, run_experiment
from .states import InitialStateSpec, StateKind

__all__ = ["preset_names", "preset_description", "preset_configs", "run_preset"]

_CHI = 5.0
_DELTA = 0.25 * math.pi
_P_ADDED = 3

_KERR = MediumSpec(MediumKind.KERR, _CHI)
_CUBIC = MediumSpec(MediumKind.CUBIC, _CHI)
_NO_DAMPING = DampingSpec(DampingChannel.NONE, 0.0)

_CSV = frozenset({Product.QUANTIFIERS_CSV})
_CSV_MINIMA = frozenset({Product.QUANTIFIERS_CSV, Product.MINIMA_REPORT})
_DUMPS = frozenset({Product.TOMOGRAM_DUMP})

# gamma*t milestones for the tomogram-dump presets, converted to t/T_rev
_DUMP_GAMMA = 0.1
_DUMP_GAMMA_T = (0.01, 0.1, 1.0, 10.0)


def _alpha(alpha_sq: float) -> complex:
    return math.sqrt(alpha_sq) * complex(math.cos(_DELTA), math.sin(_DELTA))


def _coherent(alpha_sq: float) -> InitialStateSpec:
    return InitialStateSpec(StateKind.COHERENT, _alpha(alpha_sq))


def _added(alpha_sq: float) -> InitialStateSpec:
    return InitialStateSpec(StateKind.PHOTON_ADDED, _alpha(alpha_sq), p=_P_ADDED)


def _even(alpha_sq: float) -> InitialStateSpec:
    return InitialStateSpec(StateKind.EVEN_COHERENT, _alpha(alpha_sq))


_TRIO = (("coherent", _coherent), ("photon_added", _added), ("even", _even))


def _gamma_t_end_over_trev(gamma_t_max: float, gamma: float, medium: MediumSpec) -> float:
    t_end = gamma_t_max / gamma
    return t_end / (math.pi / medium.chi)


def _trio_runs(
    preset: str,
    alpha_sq: float,
    medium: MediumSpec,
    damping: DampingSpec,
    dim: int,
    t_end_over_trev: float,
    steps: int,
    products: frozenset,
) -> list[ExperimentConfig]:
    return [
        ExperimentConfig(
            initial_state=make(alpha_sq),
            medium=medium,
            damping=damping,
            dim=dim,
            t_end_over_trev=t_end_over_trev,
            steps=steps,
            products=products,
            name=f"{preset}_{label}",
        )
        for label, make in _TRIO
    ]


def _build_catalog() -> dict[str, tuple[str, list[ExperimentConfig]]]:
    cat: dict[str, tuple[str, list[ExperimentConfig]]] = {}

    def add(name: str, description: str, runs: list[ExperimentConfig]) -> None:
        cat[name] = (description, runs)

    # --- Kerr medium: nonclassical-area dynamics ---
    add(
        "fig1",
        "Kerr, no damping: area vs t for the three states, |alpha|^2=10, dim=60",
        _trio_runs("fig1", 10.0, _KERR, _NO_DAMPING, 60, 1.0, 500, _CSV_MINIMA),
    )
    add(
        "fig2",
        "Kerr, no damping: coherent-state area vs t for |alpha|^2=10,15,20",
        [
            ExperimentConfig(
                initial_state=_coherent(a2),
                medium=_KERR,
                damping=_NO_DAMPING,
                dim=dim,
                t_end_over_trev=1.0,
                steps=500,
                products=_CSV,
                name=f"fig2_a{int(a2)}",
            )
            for a2, dim in ((10.0, 60), (15.0, 70), (20.0, 80))
        ],
    )
    add(
        "fig3",
        "Kerr, amplitude damping gamma=0.1: area vs t, |alpha|^2=10, dim=60",
        _trio_runs(
            "fig3",
            10.0,
            _KERR,
            DampingSpec(DampingChannel.AMPLITUDE, 0.1),
            60,
            1.0,
            500,
            _CSV,
        ),
    )
    add(
        "fig4",
        "Kerr, amplitude damping: area vs gamma*t up to 10, |alpha|^2=5 (gamma=0.1)",
        _trio_runs(
            "fig4",
            5.0,
            _KERR,
            DampingSpec(DampingChannel.AMPLITUDE, _DUMP_GAMMA),
            50,
            _gamma_t_end_over_trev(10.0, _DUMP_GAMMA, _KERR),
            200,
            _CSV,
        ),
    )
    add(
        "fig5",
        "Kerr, phase damping gamma=0.1: area vs t, |alpha|^2=10, dim=60",
        _trio_runs(
            "fig5",
            10.0,
            _KERR,
            DampingSpec(DampingChannel.PHASE, 0.1),
            60,
            1.0,
            500,
            _CSV,
        ),
    )
    add(
        "fig6",
        "Kerr, phase damping: area vs gamma*t up to 10, |alpha|^2=5 (gamma=0.1)",
        _trio_runs(
            "fig6",
            5.0,
            _KERR,
            DampingSpec(DampingChannel.PHASE, _DUMP_GAMMA),
            50,
            _gamma_t_end_over_trev(10.0, _DUMP_GAMMA, _KERR),
            200,
            _CSV,
        ),
    )

    # --- Kerr medium: entropy-sum dynamics at high field strength ---
    entropy_kerr = dict(dim=100, t_end_over_trev=0.55, steps=700, products=_CSV_MINIMA)
    add(
        "fig7",
        "Kerr, no damping: entropy sum vs t, |alpha|^2=40, dim=100",
        _trio_runs("fig7", 40.0, _KERR, _NO_DAMPING, steps=700, t_end_over_trev=0.55,
                   dim=100, products=_CSV_MINIMA),
    )
    add(
        "fig8",
        "Kerr, amplitude damping gamma=0.05: entropy sum vs t, |alpha|^2=40",
        _trio_runs(
            "fig8",
            40.0,
            _KERR,
            DampingSpec(DampingChannel.AMPLITUDE, 0.05),
            **entropy_kerr,
        ),
    )
    add(
        "fig9",
        "Kerr, phase damping gamma=0.05: entropy sum vs t, |alpha|^2=40",
        _trio_runs(
            "fig9",
            40.0,
            _KERR,
            DampingSpec(DampingChannel.PHASE, 0.05),
            **entropy_kerr,
        ),
    )

    # --- cubic medium: nonclassical-area dynamics ---
    add(
        "fig10",
        "Cubic, no damping: area vs t for the three states, |alpha|^2=5, dim=60",
        _trio_runs("fig10", 5.0, _CUBIC, _NO_DAMPING, 60, 1.0, 500, _CSV_MINIMA),
    )
    add(
        "fig11",
        "Cubic, no damping: coherent-state area vs t for |alpha|^2=5,10",
        [
            ExperimentConfig(
                initial_state=_coherent(a2),
                medium=_CUBIC,
                damping=_NO_DAMPING,
                dim=dim,
                t_end_over_trev=1.0,
                steps=500,
                products=_CSV,
                name=f"fig11_a{int(a2)}",
            )
            for a2, dim in ((5.0, 60), (10.0, 70))
        ],
    )
    add(
        "fig12",
        "Cubic, amplitude damping gamma=0.1: area vs t, |alpha|^2=5, dim=60",
        _trio_runs(
            "fig12",
            5.0,
            _CUBIC,
            DampingSpec(DampingChannel.AMPLITUDE, 0.1),
            60,
            1.0,
            500,
            _CSV,
        ),
    )
    add(
        "fig13",
        "Cubic, amplitude damping: 3-photon-added tomogram dumps at gamma*t = 0.01, 0.1, 1, 10",
        [
            ExperimentConfig(
                initial_state=_added(5.0),
                medium=_CUBIC,
                damping=DampingSpec(DampingChannel.AMPLITUDE, _DUMP_GAMMA),
                dim=60,
                t_end_over_trev=_gamma_t_end_over_trev(10.0, _DUMP_GAMMA, _CUBIC),
                steps=200,
                products=_DUMPS,
                tomograms_at=tuple(
                    _gamma_t_end_over_trev(gt, _DUMP_GAMMA, _CUBIC) for gt in _DUMP_GAMMA_T
                ),
                name="fig13_photon_added",
            )
        ],
    )
    add(
        "fig14",
        "Cubic, amplitude damping: area vs gamma*t up to 10, |alpha|^2=3 (gamma=0.1)",
        _trio_runs(
            "fig14",
            3.0,
            _CUBIC,
            DampingSpec(DampingChannel.AMPLITUDE, _DUMP_GAMMA),
            50,
            _gamma_t_end_over_trev(10.0, _DUMP_GAMMA, _CUBIC),
            200,
            _CSV,
        ),
    )
    add(
        "fig15",
        "Cubic, phase damping gamma=0.1: area vs t, |alpha|^2=5, dim=60",
        _trio_runs(
            "fig15",
            5.0,
            _CUBIC,
            DampingSpec(DampingChannel.PHASE, 0.1),
            60,
            1.0,
            500,
            _CSV,
        ),
    )
    add(
        "fig16",
        "Cubic, phase damping: 3-photon-added tomogram dumps at gamma*t = 0.01, 0.1, 1, 10",
        [
            ExperimentConfig(
                initial_state=_added(5.0),
                medium=_CUBIC,
                damping=DampingSpec(DampingChannel.PHASE, _DUMP_GAMMA),
                dim=60,
                t_end_over_trev=_gamma_t_end_over_trev(10.0, _DUMP_GAMMA, _CUBIC),
                steps=200,
                products=_DUMPS,
                tomograms_at=tuple(
                    _gamma_t_end_over_trev(gt, _DUMP_GAMMA, _CUBIC) for gt in _DUMP_GAMMA_T
                ),
                name="fig16_photon_added",
            )
        ],
    )
    add(
        "fig17",
        "Cubic, phase damping: area vs gamma*t up to 10, |alpha|^2=5 (gamma=0.1)",
        _trio_runs(
            "fig17",
            5.0,
            _CUBIC,
            DampingSpec(DampingChannel.PHASE, _DUMP_GAMMA),
            50,
            _gamma_t_end_over_trev(10.0, _DUMP_GAMMA, _CUBIC),
            200,
            _CSV,
        ),
    )

    # --- cubic medium: entropy-sum dynamics (cubic revival sits at T_rev/3) ---
    entropy_cubic = dict(dim=70, t_end_over_trev=0.35, steps=500, products=_CSV_MINIMA)
    add(
        "fig18",
        "Cubic, no damping: entropy sum vs t, |alpha|^2=5, dim=70",
        _trio_runs("fig18", 5.0, _CUBIC, _NO_DAMPING, **entropy_cubic),
    )
    add(
        "fig19",
        "Cubic, amplitude damping gamma=0.05: entropy sum vs t, |alpha|^2=5, dim=70",
        _trio_runs(
            "fig19",
            5.0,
            _CUBIC,
            DampingSpec(DampingChannel.AMPLITUDE, 0.05),
            **entropy_cubic,
        ),
    )
    add(
        "fig20",
        "Cubic, phase damping gamma=0.05: entropy sum vs t, |alpha|^2=5, dim=70",
        _trio_runs(
            "fig20",
            5.0,
            _CUBIC,
            DampingSpec(DampingChannel.PHASE, 0.05),
            **entropy_cubic,
        ),
    )
    return cat


_CATALOG = _build_catalog()


def preset_names() -> tuple[str, ...]:
    return tuple(_CATALOG)


def preset_description(name: str) -> str:
    if name not in _CATALOG:
        raise ValidationError(f"unknown preset {name!r}; known: {', '.join(_CATALOG)}")
    return _CATALOG[name][0]


def preset_configs(name: str, out_dir: str | Path | None = None) -> tuple[ExperimentConfig, ...]:
    """The runs of a preset, with out_dir resolved (default nltomo_out/<name>)."""
    if name not in _CATALOG:
        raise ValidationError(f"unknown preset {name!r}; known: {', '.join(_CATALOG)}")
    base = Path(out_dir) if out_dir is not None else Path("nltomo_out") / name
    return tuple(replace(cfg, out_dir=base) for cfg in _CATALOG[name][1])


def run_preset(name: str, out_dir: str | Path | None = None) -> list[RunResult]:
    """Run every configuration of a preset; writes resolved .cfg files too."""
    return [run_experiment(cfg, write_config=True) for cfg in preset_configs(name, out_dir)]
