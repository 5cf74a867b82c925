"""Flat key=value experiment configuration.

The on-disk format is deliberately small and diff-friendly: one
``key = value`` pair per line, ``#`` starts a comment, keys are
dot-namespaced, and unknown or duplicate keys are hard errors so typos
cannot silently change an experiment.  :func:`config_to_text` writes the
fully resolved configuration back out, which is what the preset runner
stores next to its outputs for reproducibility.

The README tables the 19 recognized keys.  ``_KEYS`` is the one place a
key is named: its row gives the spec the key sets, the field, how the
value is parsed and written, and the check of a single value.
:func:`config_from_text` passes the dataclasses only the keys a text
sets, so every default is stated once, on its dataclass field, and the
parser supplies none.  Listing ``out.tomograms_at`` also adds the
``tomogram_dump`` product.
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
        for key, (owner, name, _, _, check) in _KEYS.items():
            if owner == "run" and check is not None:
                object.__setattr__(self, name, check(key, getattr(self, name)))
        if (self.x_max is None) != (self.n_x is None):
            raise ValidationError("grid.x_max and grid.n_x must be given together")
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
        if key not in _KEYS:
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


def _member(member: enum.Enum) -> str:
    return member.value


def _if_set(value) -> str | None:
    # None is an automatic window; p = 0 a state that adds no photons
    return repr(value) if value else None


def _joined(values) -> str | None:
    return ",".join(map(repr, values)) or None


def _product_values(products: frozenset) -> str:
    return ",".join(sorted(p.value for p in products))


def _non_negative(key: str, value: float) -> float:
    if value < 0:
        raise ValidationError(f"{key} must be >= 0, got {value!r}")
    return value


def _finite(key: str, value: float) -> float:
    if not math.isfinite(value):
        raise ValidationError(f"{key} must be finite, got {value!r}")
    return value


def _finite_positive(key: str, value) -> float:
    number = float(value)
    if not (math.isfinite(number) and number > 0):
        raise ValidationError(f"{key} must be finite and > 0, got {value!r}")
    return number


def _at_least(k: int):
    def check(key: str, value) -> int:
        if not isinstance(value, (int, np.integer)) or value < k:
            raise ValidationError(f"{key} must be an integer >= {k}, got {value!r}")
        return int(value)

    return check


def _or_none(check):
    return lambda key, value: None if value is None else check(key, value)


# key -> (owner, field, parser, writer, check).  The owner is the spec the key
# sets, or "run" for an ExperimentConfig field.  config_to_text writes the keys
# in this order and leaves out one whose writer returns None.  A check takes
# (key, value) and returns the value to store; ExperimentConfig runs those of
# its own fields, config_from_text the others.
_KEYS = {
    "state.kind": ("state", "kind", _parse_enum(StateKind), _member, None),
    "state.alpha_sq": ("state", "alpha_sq", _parse_float, repr, _non_negative),
    "state.delta": ("state", "delta", _parse_float, repr, _finite),
    "state.p": ("state", "p", _parse_int, _if_set, None),
    "medium.kind": ("medium", "kind", _parse_enum(MediumKind), _member, None),
    "medium.chi": ("medium", "chi", _parse_float, repr, None),
    "damping.channel": ("damping", "channel", _parse_enum(DampingChannel), _member, None),
    "damping.gamma": ("damping", "gamma", _parse_float, repr, None),
    "sim.dim": ("run", "dim", _parse_int, repr, _at_least(2)),
    "sim.t_end_over_trev": ("run", "t_end_over_trev", _parse_float, repr, _finite_positive),
    "sim.steps": ("run", "steps", _parse_int, repr, _at_least(2)),
    "grid.x_max": ("run", "x_max", _parse_float, _if_set, _or_none(_finite_positive)),
    "grid.n_x": ("run", "n_x", _parse_int, _if_set, _or_none(_at_least(2))),
    "grid.theta_count": ("run", "theta_count", _parse_int, repr, _at_least(4)),
    "out.dir": ("run", "out_dir", _verbatim, str, None),
    "out.name": ("run", "name", _verbatim, str, None),
    "out.products": ("run", "products", _parse_products, _product_values, None),
    "out.tomograms_at": ("run", "tomograms_at", _parse_times, _joined, None),
    "out.minima_prominence": ("run", "minima_prominence", _parse_float, repr, _finite_positive),
}


def config_from_text(text: str, default_name: str | None = None) -> ExperimentConfig:
    """Build a config from key=value text.

    Only the keys the text sets reach the dataclasses, so every other
    setting takes the default of its field; ``default_name`` stands in
    for a missing ``out.name``.
    """
    kv = parse_config_text(text)
    for key in ("state.kind", "state.alpha_sq", "medium.kind", "sim.dim"):
        if key not in kv:
            raise ValidationError(f"{key} is required")
    given: dict[str, dict] = {owner: {} for owner, *_ in _KEYS.values()}
    for key, (owner, name, parse, _, check) in _KEYS.items():
        if key in kv:
            value = parse(key, kv[key])
            if check is not None and owner != "run":
                value = check(key, value)
            given[owner][name] = value
    state = given["state"]
    if state["kind"] is not StateKind.PHOTON_ADDED and "p" in state:
        raise ValidationError("state.p is only valid for state.kind = photon_added")
    run = given["run"]
    if default_name is not None:
        run.setdefault("name", default_name)
    cfg = ExperimentConfig(
        InitialStateSpec._of_polar(**state),
        MediumSpec(**given["medium"]),
        DampingSpec(**given["damping"]),
        **run,
    )
    if "out.tomograms_at" in kv:
        # listing dump times asks for the dumps
        cfg = replace(cfg, products=cfg.products | {Product.TOMOGRAM_DUMP})
    return cfg


def config_from_file(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"config file not found: {path}")
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"config file {path} cannot be read: {exc}") from None
    return config_from_text(text, default_name=path.stem)


def config_to_text(cfg: ExperimentConfig) -> str:
    """Serialize back to the key=value format, fully resolved."""
    state = cfg.initial_state
    alpha_sq, delta = state._polar or (
        abs(state.alpha) ** 2,
        math.atan2(state.alpha.imag, state.alpha.real),
    )
    values = {
        "state": {"kind": state.kind, "alpha_sq": alpha_sq, "delta": delta, "p": state.p},
        "medium": vars(cfg.medium),
        "damping": vars(cfg.damping),
        "run": vars(cfg),
    }
    lines = []
    for key, (owner, name, _, write, _) in _KEYS.items():
        value = write(values[owner][name])
        if value is not None:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
