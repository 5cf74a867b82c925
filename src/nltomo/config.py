"""Flat key=value experiment configuration.

The on-disk format is deliberately small and diff-friendly: one
``key = value`` pair per line, ``#`` starts a comment, keys are
dot-namespaced, and unknown or duplicate keys are hard errors so typos
cannot silently change an experiment.  :func:`config_to_text` writes the
fully resolved configuration back out, which is what the preset runner
stores next to its outputs for reproducibility.

Recognized keys (see README for the full table):

    state.kind            coherent | photon_added | even_coherent
    state.alpha_sq        field intensity |alpha|^2  (>= 0)
    state.delta           phase of alpha in radians  (default 0)
    state.p               photons added (photon_added only, >= 1)
    medium.kind           kerr | cubic
    medium.chi            coupling strength           (default 5.0)
    damping.channel       none | amplitude | phase    (default none)
    damping.gamma         damping rate                (default 0)
    sim.dim               Fock-space truncation       (>= 2)
    sim.t_end_over_trev   sweep end in units of T_rev (default 1.0)
    sim.steps             number of time samples      (default 200)
    sim.force             skip the truncation-adequacy check (default false)
    grid.x_max            quadrature window half-width (default: auto)
    grid.n_x              quadrature samples           (default: auto)
    grid.theta_count      phases for the area integral (default 128)
    solver.amplitude      exact | closed_form          (default exact)
    out.dir               output directory             (default nltomo_out)
    out.name              base name for output files   (default: config stem)
    out.products          comma list of quantifiers_csv | tomogram_dump |
                          minima_report                (default quantifiers_csv)
    out.tomograms_at      comma list of dump times in units of T_rev
    out.minima_prominence minimum dip depth for the minima report (default 1e-3)
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .evolve import (
    DampingChannel,
    DampingSpec,
    MediumKind,
    MediumSpec,
    TimeGrid,
    revival_time,
)
from .states import InitialStateSpec, StateKind

__all__ = [
    "AmplitudeSolver",
    "Product",
    "ExperimentConfig",
    "parse_config_text",
    "config_from_text",
    "config_from_file",
    "config_to_text",
]


class AmplitudeSolver(enum.Enum):
    """Which amplitude-damping propagator the sweep uses."""

    EXACT = "exact"
    CLOSED_FORM = "closed_form"


class Product(enum.Enum):
    QUANTIFIERS_CSV = "quantifiers_csv"
    TOMOGRAM_DUMP = "tomogram_dump"
    MINIMA_REPORT = "minima_report"


_KNOWN_KEYS = {
    "state.kind",
    "state.alpha_sq",
    "state.delta",
    "state.p",
    "medium.kind",
    "medium.chi",
    "damping.channel",
    "damping.gamma",
    "sim.dim",
    "sim.t_end_over_trev",
    "sim.steps",
    "sim.force",
    "grid.x_max",
    "grid.n_x",
    "grid.theta_count",
    "solver.amplitude",
    "out.dir",
    "out.name",
    "out.products",
    "out.tomograms_at",
    "out.minima_prominence",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved description of one sweep."""

    initial_state: InitialStateSpec
    medium: MediumSpec
    damping: DampingSpec
    dim: int
    t_end_over_trev: float = 1.0
    steps: int = 200
    x_max: float | None = None
    n_x: int | None = None
    theta_count: int = 128
    amplitude_solver: AmplitudeSolver = AmplitudeSolver.EXACT
    products: frozenset = frozenset({Product.QUANTIFIERS_CSV})
    tomograms_at: tuple[float, ...] = ()
    minima_prominence: float = 1e-3
    out_dir: Path = Path("nltomo_out")
    name: str = "run"
    force: bool = False

    def __post_init__(self):
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 2:
            raise ValidationError(f"sim.dim must be an integer >= 2, got {self.dim!r}")
        object.__setattr__(self, "dim", int(self.dim))
        t_end = float(self.t_end_over_trev)
        if not (math.isfinite(t_end) and t_end > 0):
            raise ValidationError(
                f"sim.t_end_over_trev must be finite and > 0, got {self.t_end_over_trev!r}"
            )
        object.__setattr__(self, "t_end_over_trev", t_end)
        if not isinstance(self.steps, (int, np.integer)) or self.steps < 2:
            raise ValidationError(f"sim.steps must be an integer >= 2, got {self.steps!r}")
        object.__setattr__(self, "steps", int(self.steps))
        if (self.x_max is None) != (self.n_x is None):
            raise ValidationError("grid.x_max and grid.n_x must be given together")
        if self.x_max is not None:
            x_max = float(self.x_max)
            if not (math.isfinite(x_max) and x_max > 0):
                raise ValidationError(f"grid.x_max must be > 0, got {self.x_max!r}")
            object.__setattr__(self, "x_max", x_max)
            if not isinstance(self.n_x, (int, np.integer)) or self.n_x < 2:
                raise ValidationError(f"grid.n_x must be an integer >= 2, got {self.n_x!r}")
            object.__setattr__(self, "n_x", int(self.n_x))
        if not isinstance(self.theta_count, (int, np.integer)) or self.theta_count < 4:
            raise ValidationError(
                f"grid.theta_count must be an integer >= 4, got {self.theta_count!r}"
            )
        object.__setattr__(self, "theta_count", int(self.theta_count))
        if not isinstance(self.amplitude_solver, AmplitudeSolver):
            raise ValidationError(
                f"solver.amplitude must be an AmplitudeSolver, got {self.amplitude_solver!r}"
            )
        products = frozenset(self.products)
        for p in products:
            if not isinstance(p, Product):
                raise ValidationError(f"unknown product {p!r}")
        if not products:
            raise ValidationError("out.products must not be empty")
        object.__setattr__(self, "products", products)
        times = tuple(float(v) for v in self.tomograms_at)
        for v in times:
            if not (math.isfinite(v) and v >= 0):
                raise ValidationError(f"out.tomograms_at entries must be >= 0, got {v!r}")
        object.__setattr__(self, "tomograms_at", times)
        if Product.TOMOGRAM_DUMP in products and not times:
            raise ValidationError(
                "out.products includes tomogram_dump but out.tomograms_at is empty"
            )
        prom = float(self.minima_prominence)
        if not (math.isfinite(prom) and prom > 0):
            raise ValidationError(
                f"out.minima_prominence must be > 0, got {self.minima_prominence!r}"
            )
        object.__setattr__(self, "minima_prominence", prom)
        object.__setattr__(self, "out_dir", Path(self.out_dir))
        if not self.name or any(c in self.name for c in "/\\"):
            raise ValidationError(f"out.name must be a bare file stem, got {self.name!r}")

    @property
    def t_rev(self) -> float:
        return revival_time(self.medium)

    @property
    def time_grid(self) -> TimeGrid:
        return TimeGrid(0.0, self.t_end_over_trev * self.t_rev, self.steps)


def parse_config_text(text: str) -> dict[str, str]:
    """Strict key=value parsing: unknown keys, duplicates, or junk lines fail."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ValidationError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ValidationError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ValidationError(f"line {lineno}: empty value for {key!r}")
        out[key] = value
    return out


def _parse_float(kv: dict, key: str, default: float | None = None) -> float | None:
    if key not in kv:
        return default
    try:
        return float(kv[key])
    except ValueError:
        raise ValidationError(f"{key}: expected a number, got {kv[key]!r}") from None


def _parse_int(kv: dict, key: str, default: int | None = None) -> int | None:
    if key not in kv:
        return default
    try:
        return int(kv[key])
    except ValueError:
        raise ValidationError(f"{key}: expected an integer, got {kv[key]!r}") from None


def _parse_bool(kv: dict, key: str, default: bool) -> bool:
    if key not in kv:
        return default
    value = kv[key].lower()
    if value in ("true", "yes", "1", "on"):
        return True
    if value in ("false", "no", "0", "off"):
        return False
    raise ValidationError(f"{key}: expected a boolean, got {kv[key]!r}")


def _parse_enum(kv: dict, key: str, enum_cls, default):
    if key not in kv:
        return default
    value = kv[key].lower()
    for member in enum_cls:
        if member.value == value:
            return member
    choices = ", ".join(m.value for m in enum_cls)
    raise ValidationError(f"{key}: expected one of [{choices}], got {kv[key]!r}")


def config_from_text(text: str, default_name: str = "run") -> ExperimentConfig:
    kv = parse_config_text(text)

    kind = _parse_enum(kv, "state.kind", StateKind, None)
    if kind is None:
        raise ValidationError("state.kind is required")
    alpha_sq = _parse_float(kv, "state.alpha_sq", None)
    if alpha_sq is None:
        raise ValidationError("state.alpha_sq is required")
    if alpha_sq < 0:
        raise ValidationError(f"state.alpha_sq must be >= 0, got {alpha_sq}")
    delta = _parse_float(kv, "state.delta", 0.0)
    if not math.isfinite(delta):
        raise ValidationError(f"state.delta must be finite, got {delta}")
    p = _parse_int(kv, "state.p", 0)
    if kind is not StateKind.PHOTON_ADDED and "state.p" in kv:
        raise ValidationError("state.p is only valid for state.kind = photon_added")
    alpha = math.sqrt(alpha_sq) * complex(math.cos(delta), math.sin(delta))
    initial_state = InitialStateSpec(kind=kind, alpha=alpha, p=p)

    medium_kind = _parse_enum(kv, "medium.kind", MediumKind, None)
    if medium_kind is None:
        raise ValidationError("medium.kind is required")
    medium = MediumSpec(kind=medium_kind, chi=_parse_float(kv, "medium.chi", 5.0))

    channel = _parse_enum(kv, "damping.channel", DampingChannel, DampingChannel.NONE)
    damping = DampingSpec(channel=channel, gamma=_parse_float(kv, "damping.gamma", 0.0))

    dim = _parse_int(kv, "sim.dim", None)
    if dim is None:
        raise ValidationError("sim.dim is required")

    products_raw = kv.get("out.products", Product.QUANTIFIERS_CSV.value)
    by_value = {member.value: member for member in Product}
    products = set()
    for token in products_raw.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token not in by_value:
            choices = ", ".join(sorted(by_value))
            raise ValidationError(
                f"out.products: expected entries from [{choices}], got {token!r}"
            )
        products.add(by_value[token])
    if not products:
        raise ValidationError(f"out.products: no products in {products_raw!r}")

    tomograms_at: tuple[float, ...] = ()
    if "out.tomograms_at" in kv:
        try:
            tomograms_at = tuple(
                float(tok) for tok in kv["out.tomograms_at"].split(",") if tok.strip()
            )
        except ValueError:
            raise ValidationError(
                f"out.tomograms_at: expected comma-separated numbers, got {kv['out.tomograms_at']!r}"
            ) from None
        products.add(Product.TOMOGRAM_DUMP)

    return ExperimentConfig(
        initial_state=initial_state,
        medium=medium,
        damping=damping,
        dim=dim,
        t_end_over_trev=_parse_float(kv, "sim.t_end_over_trev", 1.0),
        steps=_parse_int(kv, "sim.steps", 200),
        x_max=_parse_float(kv, "grid.x_max", None),
        n_x=_parse_int(kv, "grid.n_x", None),
        theta_count=_parse_int(kv, "grid.theta_count", 128),
        amplitude_solver=_parse_enum(
            kv, "solver.amplitude", AmplitudeSolver, AmplitudeSolver.EXACT
        ),
        products=frozenset(products),
        tomograms_at=tomograms_at,
        minima_prominence=_parse_float(kv, "out.minima_prominence", 1e-3),
        out_dir=Path(kv.get("out.dir", "nltomo_out")),
        name=kv.get("out.name", default_name),
        force=_parse_bool(kv, "sim.force", False),
    )


def config_from_file(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"config file not found: {path}")
    return config_from_text(path.read_text(), default_name=path.stem)


def config_to_text(cfg: ExperimentConfig) -> str:
    """Serialize back to the key=value format, fully resolved."""
    state = cfg.initial_state
    lines = [
        f"state.kind = {state.kind.value}",
        f"state.alpha_sq = {abs(state.alpha) ** 2!r}",
        f"state.delta = {math.atan2(state.alpha.imag, state.alpha.real)!r}",
    ]
    if state.kind is StateKind.PHOTON_ADDED:
        lines.append(f"state.p = {state.p}")
    lines += [
        f"medium.kind = {cfg.medium.kind.value}",
        f"medium.chi = {cfg.medium.chi!r}",
        f"damping.channel = {cfg.damping.channel.value}",
        f"damping.gamma = {cfg.damping.gamma!r}",
        f"sim.dim = {cfg.dim}",
        f"sim.t_end_over_trev = {cfg.t_end_over_trev!r}",
        f"sim.steps = {cfg.steps}",
    ]
    if cfg.force:
        lines.append("sim.force = true")
    if cfg.x_max is not None:
        lines.append(f"grid.x_max = {cfg.x_max!r}")
        lines.append(f"grid.n_x = {cfg.n_x}")
    lines.append(f"grid.theta_count = {cfg.theta_count}")
    lines.append(f"solver.amplitude = {cfg.amplitude_solver.value}")
    lines.append(f"out.dir = {cfg.out_dir}")
    lines.append(f"out.name = {cfg.name}")
    lines.append(
        "out.products = "
        + ",".join(sorted(p.value for p in cfg.products))
    )
    if cfg.tomograms_at:
        lines.append(
            "out.tomograms_at = " + ",".join(repr(v) for v in cfg.tomograms_at)
        )
    lines.append(f"out.minima_prominence = {cfg.minima_prominence!r}")
    return "\n".join(lines) + "\n"
