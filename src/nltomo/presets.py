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

from .config import ExperimentConfig, Product
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


def _coherent(alpha_sq: float) -> InitialStateSpec:
    return InitialStateSpec._of_polar(StateKind.COHERENT, alpha_sq, _DELTA)


def _added(alpha_sq: float) -> InitialStateSpec:
    return InitialStateSpec._of_polar(StateKind.PHOTON_ADDED, alpha_sq, _DELTA, p=_P_ADDED)


def _trio(alpha_sq: float, dim: int) -> list[tuple[str, InitialStateSpec, int]]:
    """The coherent, photon-added and even coherent runs at one |alpha|^2 and dim."""
    even = InitialStateSpec._of_polar(StateKind.EVEN_COHERENT, alpha_sq, _DELTA)
    return [
        ("coherent", _coherent(alpha_sq), dim),
        ("photon_added", _added(alpha_sq), dim),
        ("even", even, dim),
    ]


def _gamma_t_end_over_trev(gamma_t_max: float, gamma: float, medium: MediumSpec) -> float:
    t_end = gamma_t_max / gamma
    return t_end / (math.pi / medium.chi)


def _runs(
    preset: str,
    runs: list[tuple[str, InitialStateSpec, int]],
    medium: MediumSpec,
    damping: DampingSpec,
    t_end_over_trev: float,
    steps: int,
    products: frozenset,
    tomograms_at: tuple[float, ...] = (),
) -> list[ExperimentConfig]:
    """One config per (label, initial state, dim) of ``runs``, named <preset>_<label>."""
    return [
        ExperimentConfig(
            initial_state=state,
            medium=medium,
            damping=damping,
            dim=dim,
            t_end_over_trev=t_end_over_trev,
            steps=steps,
            products=products,
            tomograms_at=tomograms_at,
            name=f"{preset}_{label}",
        )
        for label, state, dim in runs
    ]


def _build_catalog() -> dict[str, tuple[str, list[ExperimentConfig]]]:
    cat: dict[str, tuple[str, list[ExperimentConfig]]] = {}

    def add(name: str, description: str, runs: list[ExperimentConfig]) -> None:
        cat[name] = (description, runs)

    # gamma*t up to 10 at gamma = 0.1, in units of T_rev
    kerr_gamma_t = _gamma_t_end_over_trev(10.0, _DUMP_GAMMA, _KERR)
    cubic_gamma_t = _gamma_t_end_over_trev(10.0, _DUMP_GAMMA, _CUBIC)

    # --- Kerr medium: nonclassical-area dynamics ---
    add(
        "fig1",
        "Kerr, no damping: area vs t for the three states, |alpha|^2=10, dim=60",
        _runs("fig1", _trio(10.0, 60), _KERR, _NO_DAMPING, 1.0, 500, _CSV_MINIMA),
    )
    add(
        "fig2",
        "Kerr, no damping: coherent-state area vs t for |alpha|^2=10,15,20",
        _runs(
            "fig2",
            [
                ("a10", _coherent(10.0), 60),
                ("a15", _coherent(15.0), 70),
                ("a20", _coherent(20.0), 80),
            ],
            _KERR,
            _NO_DAMPING,
            1.0,
            500,
            _CSV,
        ),
    )
    add(
        "fig3",
        "Kerr, amplitude damping gamma=0.1: area vs t, |alpha|^2=10, dim=60",
        _runs(
            "fig3",
            _trio(10.0, 60),
            _KERR,
            DampingSpec(DampingChannel.AMPLITUDE, 0.1),
            1.0,
            500,
            _CSV,
        ),
    )
    add(
        "fig4",
        "Kerr, amplitude damping: area vs gamma*t up to 10, |alpha|^2=5 (gamma=0.1)",
        _runs(
            "fig4",
            _trio(5.0, 50),
            _KERR,
            DampingSpec(DampingChannel.AMPLITUDE, _DUMP_GAMMA),
            kerr_gamma_t,
            200,
            _CSV,
        ),
    )
    add(
        "fig5",
        "Kerr, phase damping gamma=0.1: area vs t, |alpha|^2=10, dim=60",
        _runs(
            "fig5",
            _trio(10.0, 60),
            _KERR,
            DampingSpec(DampingChannel.PHASE, 0.1),
            1.0,
            500,
            _CSV,
        ),
    )
    add(
        "fig6",
        "Kerr, phase damping: area vs gamma*t up to 10, |alpha|^2=5 (gamma=0.1)",
        _runs(
            "fig6",
            _trio(5.0, 50),
            _KERR,
            DampingSpec(DampingChannel.PHASE, _DUMP_GAMMA),
            kerr_gamma_t,
            200,
            _CSV,
        ),
    )

    # --- Kerr medium: entropy-sum dynamics at high field strength ---
    entropy_kerr = dict(t_end_over_trev=0.55, steps=700, products=_CSV_MINIMA)
    add(
        "fig7",
        "Kerr, no damping: entropy sum vs t, |alpha|^2=40, dim=100",
        _runs("fig7", _trio(40.0, 100), _KERR, _NO_DAMPING, **entropy_kerr),
    )
    add(
        "fig8",
        "Kerr, amplitude damping gamma=0.05: entropy sum vs t, |alpha|^2=40",
        _runs(
            "fig8",
            _trio(40.0, 100),
            _KERR,
            DampingSpec(DampingChannel.AMPLITUDE, 0.05),
            **entropy_kerr,
        ),
    )
    add(
        "fig9",
        "Kerr, phase damping gamma=0.05: entropy sum vs t, |alpha|^2=40",
        _runs(
            "fig9",
            _trio(40.0, 100),
            _KERR,
            DampingSpec(DampingChannel.PHASE, 0.05),
            **entropy_kerr,
        ),
    )

    # --- cubic medium: nonclassical-area dynamics ---
    # tomogram dumps of the 3-photon-added state at the gamma*t milestones
    dumps = dict(
        runs=[("photon_added", _added(5.0), 60)],
        medium=_CUBIC,
        t_end_over_trev=cubic_gamma_t,
        steps=200,
        products=_DUMPS,
        tomograms_at=tuple(
            _gamma_t_end_over_trev(gt, _DUMP_GAMMA, _CUBIC) for gt in _DUMP_GAMMA_T
        ),
    )
    add(
        "fig10",
        "Cubic, no damping: area vs t for the three states, |alpha|^2=5, dim=60",
        _runs("fig10", _trio(5.0, 60), _CUBIC, _NO_DAMPING, 1.0, 500, _CSV_MINIMA),
    )
    add(
        "fig11",
        "Cubic, no damping: coherent-state area vs t for |alpha|^2=5,10",
        _runs(
            "fig11",
            [("a5", _coherent(5.0), 60), ("a10", _coherent(10.0), 70)],
            _CUBIC,
            _NO_DAMPING,
            1.0,
            500,
            _CSV,
        ),
    )
    add(
        "fig12",
        "Cubic, amplitude damping gamma=0.1: area vs t, |alpha|^2=5, dim=60",
        _runs(
            "fig12",
            _trio(5.0, 60),
            _CUBIC,
            DampingSpec(DampingChannel.AMPLITUDE, 0.1),
            1.0,
            500,
            _CSV,
        ),
    )
    add(
        "fig13",
        "Cubic, amplitude damping: 3-photon-added tomogram dumps at gamma*t = 0.01, 0.1, 1, 10",
        _runs("fig13", damping=DampingSpec(DampingChannel.AMPLITUDE, _DUMP_GAMMA), **dumps),
    )
    add(
        "fig14",
        "Cubic, amplitude damping: area vs gamma*t up to 10, |alpha|^2=3 (gamma=0.1)",
        _runs(
            "fig14",
            _trio(3.0, 50),
            _CUBIC,
            DampingSpec(DampingChannel.AMPLITUDE, _DUMP_GAMMA),
            cubic_gamma_t,
            200,
            _CSV,
        ),
    )
    add(
        "fig15",
        "Cubic, phase damping gamma=0.1: area vs t, |alpha|^2=5, dim=60",
        _runs(
            "fig15",
            _trio(5.0, 60),
            _CUBIC,
            DampingSpec(DampingChannel.PHASE, 0.1),
            1.0,
            500,
            _CSV,
        ),
    )
    add(
        "fig16",
        "Cubic, phase damping: 3-photon-added tomogram dumps at gamma*t = 0.01, 0.1, 1, 10",
        _runs("fig16", damping=DampingSpec(DampingChannel.PHASE, _DUMP_GAMMA), **dumps),
    )
    add(
        "fig17",
        "Cubic, phase damping: area vs gamma*t up to 10, |alpha|^2=5 (gamma=0.1)",
        _runs(
            "fig17",
            _trio(5.0, 50),
            _CUBIC,
            DampingSpec(DampingChannel.PHASE, _DUMP_GAMMA),
            cubic_gamma_t,
            200,
            _CSV,
        ),
    )

    # --- cubic medium: entropy-sum dynamics (cubic revival sits at T_rev/3) ---
    entropy_cubic = dict(t_end_over_trev=0.35, steps=500, products=_CSV_MINIMA)
    add(
        "fig18",
        "Cubic, no damping: entropy sum vs t, |alpha|^2=5, dim=70",
        _runs("fig18", _trio(5.0, 70), _CUBIC, _NO_DAMPING, **entropy_cubic),
    )
    add(
        "fig19",
        "Cubic, amplitude damping gamma=0.05: entropy sum vs t, |alpha|^2=5, dim=70",
        _runs(
            "fig19",
            _trio(5.0, 70),
            _CUBIC,
            DampingSpec(DampingChannel.AMPLITUDE, 0.05),
            **entropy_cubic,
        ),
    )
    add(
        "fig20",
        "Cubic, phase damping gamma=0.05: entropy sum vs t, |alpha|^2=5, dim=70",
        _runs(
            "fig20",
            _trio(5.0, 70),
            _CUBIC,
            DampingSpec(DampingChannel.PHASE, 0.05),
            **entropy_cubic,
        ),
    )
    return cat


_CATALOG = _build_catalog()


def preset_names() -> tuple[str, ...]:
    return tuple(_CATALOG)


def _entry(name: str) -> tuple[str, list[ExperimentConfig]]:
    if name not in _CATALOG:
        raise ValidationError(f"unknown preset {name!r}; known: {', '.join(_CATALOG)}")
    return _CATALOG[name]


def preset_description(name: str) -> str:
    return _entry(name)[0]


def preset_configs(name: str, out_dir: str | Path | None = None) -> tuple[ExperimentConfig, ...]:
    """The runs of a preset, with out_dir resolved (default nltomo_out/<name>)."""
    base = Path(out_dir) if out_dir is not None else Path("nltomo_out") / name
    return tuple(replace(cfg, out_dir=base) for cfg in _entry(name)[1])


def run_preset(name: str, out_dir: str | Path | None = None) -> list[RunResult]:
    """Run every configuration of a preset; writes resolved .cfg files too."""
    return [run_experiment(cfg, write_config=True) for cfg in preset_configs(name, out_dir)]
