"""Flat key=value experiment configuration.

The on-disk format is deliberately small and diff-friendly: one
``key = value`` pair per line, ``#`` starts a comment, keys are
dot-namespaced, and unknown or duplicate keys are hard errors so typos
cannot silently change an experiment.  :func:`config_to_text` writes the
fully resolved configuration back out, which is what the preset runner
stores next to its outputs for reproducibility.

The README tables the 19 recognized keys.  :func:`config_from_text`
passes the dataclasses only the keys a text sets, so each default is
stated once, on its dataclass field; the parser supplies just the two
that no field carries (``state.delta = 0`` and ``damping.channel =
none``).  Listing ``out.tomograms_at`` also adds the ``tomogram_dump``
product.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
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
    "Product",
    "ExperimentConfig",
    "parse_config_text",
    "config_from_text",
    "config_from_file",
    "config_to_text",
]


def _dump_label(t_over_trev: float) -> str:
    """The time in a tomogram dump's file name: 6 significant digits, '.' as 'p'."""
    return ("%.6g" % t_over_trev).replace(".", "p")


class Product(enum.Enum):
    QUANTIFIERS_CSV = "quantifiers_csv"
    TOMOGRAM_DUMP = "tomogram_dump"
    MINIMA_REPORT = "minima_report"


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
    products: frozenset = frozenset({Product.QUANTIFIERS_CSV})
    tomograms_at: tuple[float, ...] = ()
    minima_prominence: float = 1e-3
    out_dir: Path = Path("nltomo_out")
    name: str = "run"

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
        labels: dict[str, float] = {}
        for v in times:
            label = _dump_label(v)
            if label in labels:
                raise ValidationError(
                    f"out.tomograms_at entries {labels[label]!r} and {v!r} would both be "
                    f"dumped to *_tomogram_t{label}trev.dat"
                )
            labels[label] = v
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
        # config_to_text writes these two verbatim, so each must parse back unchanged
        for key, value in (("out.dir", str(self.out_dir)), ("out.name", self.name)):
            if "#" in value or value != value.strip() or len(value.splitlines()) > 1:
                raise ValidationError(
                    f"{key} must hold no '#' or line break and no surrounding "
                    f"whitespace, got {value!r}"
                )

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


def _parse_float(key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"{key}: expected a number, got {text!r}") from None


def _parse_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValidationError(f"{key}: expected an integer, got {text!r}") from None


def _parse_enum(enum_cls):
    def parse(key: str, text: str):
        value = text.lower()
        for member in enum_cls:
            if member.value == value:
                return member
        choices = ", ".join(m.value for m in enum_cls)
        raise ValidationError(f"{key}: expected one of [{choices}], got {text!r}")

    return parse


def _parse_products(key: str, text: str) -> frozenset:
    by_value = {member.value: member for member in Product}
    products = set()
    for token in text.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token not in by_value:
            choices = ", ".join(sorted(by_value))
            raise ValidationError(f"{key}: expected entries from [{choices}], got {token!r}")
        products.add(by_value[token])
    return frozenset(products)


def _parse_times(key: str, text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ValidationError(f"{key}: expected comma-separated numbers, got {text!r}") from None


def _verbatim(key: str, text: str) -> str:
    return text


def _optional(value) -> str | None:
    return None if value is None else repr(value)


def _joined(values) -> str | None:
    return ",".join(map(repr, values)) or None


def _product_values(products: frozenset) -> str:
    return ",".join(sorted(p.value for p in products))


# key -> (ExperimentConfig field, parser, writer), for every key beyond the
# initial state, medium and damping, in the order config_to_text writes them;
# a writer returning None leaves its key out
_RUN_KEYS = {
    "sim.dim": ("dim", _parse_int, repr),
    "sim.t_end_over_trev": ("t_end_over_trev", _parse_float, repr),
    "sim.steps": ("steps", _parse_int, repr),
    "grid.x_max": ("x_max", _parse_float, _optional),
    "grid.n_x": ("n_x", _parse_int, _optional),
    "grid.theta_count": ("theta_count", _parse_int, repr),
    "out.dir": ("out_dir", _verbatim, str),
    "out.name": ("name", _verbatim, str),
    "out.products": ("products", _parse_products, _product_values),
    "out.tomograms_at": ("tomograms_at", _parse_times, _joined),
    "out.minima_prominence": ("minima_prominence", _parse_float, repr),
}

_KNOWN_KEYS = {
    "state.kind",
    "state.alpha_sq",
    "state.delta",
    "state.p",
    "medium.kind",
    "medium.chi",
    "damping.channel",
    "damping.gamma",
    *_RUN_KEYS,
}


def config_from_text(text: str, default_name: str | None = None) -> ExperimentConfig:
    """Build a config from key=value text.

    Only the keys the text sets reach the dataclasses, so every other
    setting takes the default of its field; ``default_name`` stands in
    for a missing ``out.name``.
    """
    # the two defaults that no dataclass field carries
    kv = {"state.delta": "0", "damping.channel": "none", **parse_config_text(text)}
    for key in ("state.kind", "state.alpha_sq", "medium.kind", "sim.dim"):
        if key not in kv:
            raise ValidationError(f"{key} is required")

    def given(keys: dict) -> dict:
        return {name: parse(key, kv[key]) for key, (name, parse, *_) in keys.items() if key in kv}

    kind = _parse_enum(StateKind)("state.kind", kv["state.kind"])
    alpha_sq = _parse_float("state.alpha_sq", kv["state.alpha_sq"])
    if alpha_sq < 0:
        raise ValidationError(f"state.alpha_sq must be >= 0, got {alpha_sq}")
    delta = _parse_float("state.delta", kv["state.delta"])
    if not math.isfinite(delta):
        raise ValidationError(f"state.delta must be finite, got {delta}")
    if kind is not StateKind.PHOTON_ADDED and "state.p" in kv:
        raise ValidationError("state.p is only valid for state.kind = photon_added")
    initial_state = InitialStateSpec._of_polar(
        kind, alpha_sq, delta, **given({"state.p": ("p", _parse_int)})
    )

    medium = MediumSpec(
        _parse_enum(MediumKind)("medium.kind", kv["medium.kind"]),
        **given({"medium.chi": ("chi", _parse_float)}),
    )
    damping = DampingSpec(
        _parse_enum(DampingChannel)("damping.channel", kv["damping.channel"]),
        **given({"damping.gamma": ("gamma", _parse_float)}),
    )

    run = given(_RUN_KEYS)
    if default_name is not None:
        run.setdefault("name", default_name)
    cfg = ExperimentConfig(initial_state, medium, damping, **run)
    if "out.tomograms_at" in kv:
        # listing dump times asks for the dumps
        cfg = replace(cfg, products=cfg.products | {Product.TOMOGRAM_DUMP})
    return cfg


def config_from_file(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"config file not found: {path}")
    return config_from_text(path.read_text(), default_name=path.stem)


def config_to_text(cfg: ExperimentConfig) -> str:
    """Serialize back to the key=value format, fully resolved."""
    state = cfg.initial_state
    alpha_sq, delta = state._polar or (
        abs(state.alpha) ** 2,
        math.atan2(state.alpha.imag, state.alpha.real),
    )
    lines = [
        f"state.kind = {state.kind.value}",
        f"state.alpha_sq = {alpha_sq!r}",
        f"state.delta = {delta!r}",
    ]
    if state.kind is StateKind.PHOTON_ADDED:
        lines.append(f"state.p = {state.p}")
    lines += [
        f"medium.kind = {cfg.medium.kind.value}",
        f"medium.chi = {cfg.medium.chi!r}",
        f"damping.channel = {cfg.damping.channel.value}",
        f"damping.gamma = {cfg.damping.gamma!r}",
    ]
    for key, (name, _, write) in _RUN_KEYS.items():
        value = write(getattr(cfg, name))
        if value is not None:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
