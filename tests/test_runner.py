import dataclasses
import hashlib
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import nltomo
from nltomo import cli
from nltomo.cli import EXIT_INVARIANT, EXIT_OK, EXIT_VALIDATION, main
from nltomo.config import (
    _KEYS,
    ExperimentConfig,
    Product,
    config_from_file,
    config_from_text,
    config_to_text,
    parse_config_text,
)
from nltomo.errors import NumericalInvariantError, ValidationError
from nltomo.evolve import (
    DampingChannel,
    DampingSpec,
    MediumKind,
    MediumSpec,
    coherence_block_solve,
    coherence_diagonals,
    propagate_phase_damping,
    propagate_unitary,
)
from nltomo.presets import preset_configs, preset_description, preset_names
from nltomo.quantifiers import (
    QuantifierRecord, compute_record, nonclassical_area, tomographic_entropy
)
from nltomo.runner import (
    _records,
    _resolve_window,
    convergence_sweep,
    oracle_report,
    run_experiment,
)
from nltomo.states import DensityMatrix, InitialStateSpec, StateKind, density_from_pure
from nltomo.tomography import (
    Tomogram,
    check_tomograms,
    symmetric_grid,
    tomogram_of_density,
    uniform_thetas,
)

from conftest import dense_tomogram, evolved_states, parse_dump

BASE_TEXT = """\
# small, fast sweep used across the runner tests
state.kind = coherent
state.alpha_sq = 2.0
state.delta = 0.7853981633974483
medium.kind = kerr
sim.dim = 25
sim.steps = 5
sim.t_end_over_trev = 0.2
"""


def tiny_config(tmp_path, extra="", name="tiny"):
    text = BASE_TEXT + f"out.dir = {tmp_path / 'out'}\nout.name = {name}\n" + extra
    return config_from_text(text, default_name=name)


# --- config parsing ------------------------------------------------------------


def test_parse_config_text_comments_and_spacing():
    kv = parse_config_text(
        "# full-line comment\n"
        "\n"
        "state.kind = coherent  # trailing comment\n"
        "   sim.dim=30\n"
    )
    assert kv == {"state.kind": "coherent", "sim.dim": "30"}


@pytest.mark.parametrize(
    "line, match",
    [
        ("just some words", "expected 'key = value'"),
        ("state.knid = coherent", "unknown key"),
        ("state.kind = coherent\nstate.kind = coherent", "duplicate key"),
        ("state.kind =", "empty value"),
    ],
)
def test_parse_config_text_rejects_bad_lines(line, match):
    with pytest.raises(ValidationError, match=match):
        parse_config_text(line)


@pytest.mark.parametrize(
    "key", ["state.kind", "state.alpha_sq", "medium.kind", "sim.dim"]
)
def test_config_required_keys(key):
    text = "\n".join(
        ln for ln in BASE_TEXT.splitlines() if not ln.startswith(key)
    )
    with pytest.raises(ValidationError, match=key.replace(".", r"\.")):
        config_from_text(text)


def test_config_defaults():
    cfg = config_from_text(BASE_TEXT)
    assert cfg.medium.chi == 5.0
    assert cfg.damping.channel is DampingChannel.NONE
    assert cfg.damping.gamma == 0.0
    assert cfg.theta_count == 128
    assert cfg.products == frozenset({Product.QUANTIFIERS_CSV})
    assert cfg.x_max is None and cfg.n_x is None
    assert cfg.name == "run"
    # the two defaults a text may leave out that sit on a spec's field
    assert (DampingSpec().channel, DampingSpec().gamma) == (DampingChannel.NONE, 0.0)
    assert InitialStateSpec._of_polar(StateKind.COHERENT, 2.0)._polar == (2.0, 0.0)


REQUIRED_ONLY = """\
state.kind = coherent
state.alpha_sq = 2.0
medium.kind = kerr
sim.dim = 25
"""


def test_readme_config_table_matches_parser():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = re.findall(r"^\| `([a-z_]+\.[a-z_]+)` \|.*\| (.+) \|$", readme, re.M)
    assert {key for key, _ in rows} == set(_KEYS)
    # each run key has its field, and each field beyond the three specs its key
    fields = {field.name for field in dataclasses.fields(ExperimentConfig)}
    assert fields == {name for owner, name, *_ in _KEYS.values() if owner == "run"} | {
        "initial_state",
        "medium",
        "damping",
    }
    base = config_from_text(REQUIRED_ONLY)
    # the parser's defaults are the dataclass defaults
    assert base == ExperimentConfig(
        initial_state=base.initial_state, medium=base.medium, damping=base.damping, dim=25
    )
    literal = [(key, default.strip("`")) for key, default in rows if default.startswith("`")]
    assert len(literal) == 10
    for key, value in literal:
        assert config_from_text(REQUIRED_ONLY + f"{key} = {value}\n") == base, key


# a value each checked key refuses: an integer one below its bound, and
# 0, -1, inf and nan for a float that must be finite and > 0
BAD_VALUES = {
    "state.alpha_sq": ["-1"],
    "state.delta": ["inf"],
    "sim.dim": ["1"],
    "sim.t_end_over_trev": ["0", "-1", "inf", "nan"],
    "sim.steps": ["1"],
    "grid.x_max": ["0", "-1", "inf", "nan"],
    "grid.n_x": ["1"],
    "grid.theta_count": ["3"],
    "out.minima_prominence": ["0", "-1", "inf", "nan"],
}


def test_bad_values_cover_every_checked_key():
    assert set(BAD_VALUES) == {key for key, row in _KEYS.items() if row[4] is not None}


@pytest.mark.parametrize(
    "key, value", [(key, value) for key, values in BAD_VALUES.items() for value in values]
)
def test_checked_key_refuses_a_bad_value(key, value):
    settings = dict(parse_config_text(REQUIRED_ONLY), **{"grid.x_max": "8", "grid.n_x": "161"})
    settings[key] = value
    with pytest.raises(ValidationError) as refused:
        config_from_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
    assert str(refused.value).startswith(f"{key} must be "), str(refused.value)
    owner, name, parse, _, _ = _KEYS[key]
    if owner == "run":
        # configs built in code are checked alike
        base = config_from_text(REQUIRED_ONLY)
        ok = dict(initial_state=base.initial_state, medium=base.medium, damping=base.damping)
        ok.update(dim=25, x_max=8.0, n_x=161)
        ok[name] = parse(key, value)
        with pytest.raises(ValidationError) as refused:
            ExperimentConfig(**ok)
        assert str(refused.value).startswith(f"{key} must be "), str(refused.value)


def test_config_alpha_reconstruction():
    cfg = config_from_text(BASE_TEXT)
    alpha = cfg.initial_state.alpha
    assert abs(alpha) ** 2 == pytest.approx(2.0, rel=1e-12)
    assert math.atan2(alpha.imag, alpha.real) == pytest.approx(math.pi / 4, rel=1e-12)


def test_config_rejects_p_on_coherent():
    with pytest.raises(ValidationError, match="state.p"):
        config_from_text(BASE_TEXT + "state.p = 2\n")


def test_config_photon_added_requires_p():
    text = BASE_TEXT.replace("state.kind = coherent", "state.kind = photon_added")
    with pytest.raises(ValidationError):
        config_from_text(text)
    cfg = config_from_text(text + "state.p = 3\n")
    assert cfg.initial_state.p == 3


def test_config_grid_keys_must_pair():
    with pytest.raises(ValidationError, match="together"):
        config_from_text(BASE_TEXT + "grid.x_max = 8\n")
    cfg = config_from_text(BASE_TEXT + "grid.x_max = 8\ngrid.n_x = 161\n")
    assert cfg.x_max == 8.0 and cfg.n_x == 161


def test_config_bad_values():
    with pytest.raises(ValidationError, match="expected a number"):
        config_from_text(BASE_TEXT + "damping.gamma = fast\n")
    with pytest.raises(ValidationError, match="expected an integer"):
        config_from_text(BASE_TEXT + "grid.theta_count = many\n")
    # the truncation check has no bypass
    with pytest.raises(ValidationError, match="unknown key 'sim.force'"):
        config_from_text(BASE_TEXT + "sim.force = true\n")
    with pytest.raises(ValidationError, match="expected one of"):
        config_from_text(BASE_TEXT + "damping.channel = magic\n")
    with pytest.raises(ValidationError, match="out.products"):
        config_from_text(BASE_TEXT + "out.products = quantifiers_csv,plots\n")
    for delta in ("inf", "-inf"):
        with pytest.raises(ValidationError, match="state.delta must be finite"):
            config_from_text(BASE_TEXT.replace("0.7853981633974483", delta))


def test_config_tomograms_at():
    cfg = config_from_text(BASE_TEXT + "out.tomograms_at = 0.0, 0.1\n")
    # listing dump times implies the dump product
    assert Product.TOMOGRAM_DUMP in cfg.products
    assert cfg.tomograms_at == (0.0, 0.1)
    with pytest.raises(ValidationError, match=">= 0"):
        config_from_text(BASE_TEXT + "out.tomograms_at = -0.1\n")
    with pytest.raises(ValidationError, match="tomograms_at is empty"):
        config_from_text(BASE_TEXT + "out.products = tomogram_dump\n")


def test_config_rejects_dump_times_that_share_a_file_name():
    # both print as 0.123456 at 6 significant digits
    with pytest.raises(ValidationError, match=r"0\.1234561 and 0\.1234562 .*t0p123456trev"):
        config_from_text(BASE_TEXT + "out.tomograms_at = 0.1234561, 0.1234562\n")
    with pytest.raises(ValidationError, match="0.1 and 0.1"):
        config_from_text(BASE_TEXT + "out.tomograms_at = 0.1, 0.3, 0.1\n")
    cfg = config_from_text(BASE_TEXT + "out.tomograms_at = 0.123456, 0.123457\n")
    assert cfg.tomograms_at == (0.123456, 0.123457)


def test_experiment_config_validation():
    state = InitialStateSpec(StateKind.COHERENT, 1.0 + 0.0j)
    kerr = MediumSpec(MediumKind.KERR, 5.0)
    none = DampingSpec(DampingChannel.NONE, 0.0)
    ok = dict(initial_state=state, medium=kerr, damping=none, dim=10)
    ExperimentConfig(**ok)
    with pytest.raises(ValidationError, match="sim.dim"):
        ExperimentConfig(**{**ok, "dim": 1})
    with pytest.raises(ValidationError, match="sim.steps"):
        ExperimentConfig(**ok, steps=1)
    with pytest.raises(ValidationError, match="t_end_over_trev"):
        ExperimentConfig(**ok, t_end_over_trev=0.0)
    with pytest.raises(ValidationError, match="theta_count"):
        ExperimentConfig(**ok, theta_count=3)
    with pytest.raises(ValidationError, match="not be empty"):
        ExperimentConfig(**ok, products=frozenset())
    with pytest.raises(ValidationError, match="minima_prominence"):
        ExperimentConfig(**ok, minima_prominence=0.0)
    with pytest.raises(ValidationError, match="bare file stem"):
        ExperimentConfig(**ok, name="a/b")


@pytest.mark.parametrize("value", ["res#1", "two\nlines", " lead", "trail\t"])
def test_config_rejects_out_values_that_read_back_differently(value):
    # config_to_text writes out.dir and out.name verbatim, and the parser
    # cuts a '#' comment, splits lines and strips values
    ok = dict(
        initial_state=InitialStateSpec(StateKind.COHERENT, 1.0 + 0.0j),
        medium=MediumSpec(MediumKind.KERR, 5.0),
        damping=DampingSpec(DampingChannel.NONE, 0.0),
        dim=10,
    )
    with pytest.raises(ValidationError, match=r"out\.dir"):
        ExperimentConfig(**ok, out_dir=Path(value))
    with pytest.raises(ValidationError, match=r"out\.name"):
        ExperimentConfig(**ok, name=value)
    with pytest.raises(ValidationError, match=r"out\.dir"):
        preset_configs("fig1", value)


def test_config_roundtrip(tmp_path):
    text = (
        BASE_TEXT
        + "damping.channel = amplitude\ndamping.gamma = 0.1\n"
        + "grid.x_max = 9.5\ngrid.n_x = 191\n"
        + "out.products = quantifiers_csv,minima_report\n"
        + "out.tomograms_at = 0.05,0.25\n"
        + "out.minima_prominence = 0.002\n"
        + f"out.dir = {tmp_path}\nout.name = loop\n"
    )
    cfg = config_from_text(text)
    back = config_from_text(config_to_text(cfg))
    assert back.initial_state.kind is cfg.initial_state.kind
    assert abs(back.initial_state.alpha - cfg.initial_state.alpha) < 1e-12
    assert back.medium == cfg.medium
    assert back.damping == cfg.damping
    assert back.dim == cfg.dim
    assert back.t_end_over_trev == pytest.approx(cfg.t_end_over_trev, rel=1e-12)
    assert back.steps == cfg.steps
    assert back.x_max == cfg.x_max and back.n_x == cfg.n_x
    assert back.theta_count == cfg.theta_count
    assert back.products == cfg.products
    assert back.tomograms_at == pytest.approx(cfg.tomograms_at, rel=1e-12)
    assert back.minima_prominence == pytest.approx(cfg.minima_prominence)
    assert back.out_dir == cfg.out_dir and back.name == cfg.name


def test_catalog_configs_roundtrip_exactly():
    # dataclass equality: alpha, t_end_over_trev and tomograms_at bit for bit
    configs = [cfg for name in preset_names() for cfg in preset_configs(name)]
    assert len(configs) == 55
    for cfg in configs:
        text = config_to_text(cfg)
        assert config_from_text(text) == cfg, cfg.name
        # and each snapshot reads back to the same bytes
        assert config_to_text(config_from_text(text)) == text, cfg.name


def test_config_with_every_key_set_writes_back_byte_for_byte():
    text = (
        "state.kind = photon_added\n"
        "state.alpha_sq = 3.5\n"
        "state.delta = -0.25\n"
        "state.p = 2\n"
        "medium.kind = cubic\n"
        "medium.chi = 2.5\n"
        "damping.channel = phase\n"
        "damping.gamma = 0.125\n"
        "sim.dim = 30\n"
        "sim.t_end_over_trev = 0.75\n"
        "sim.steps = 7\n"
        "grid.x_max = 9.5\n"
        "grid.n_x = 191\n"
        "grid.theta_count = 64\n"
        "out.dir = some/dir\n"
        "out.name = every_key\n"
        "out.products = minima_report,quantifiers_csv,tomogram_dump\n"
        "out.tomograms_at = 0.05,0.25\n"
        "out.minima_prominence = 0.002\n"
    )
    assert list(parse_config_text(text)) == list(_KEYS)
    cfg = config_from_text(text)
    # no key holds its default
    base = config_from_text(REQUIRED_ONLY)
    for owner, name, *_ in _KEYS.values():
        if owner in ("medium", "damping"):
            assert getattr(getattr(cfg, owner), name) != getattr(getattr(base, owner), name)
        elif owner == "run":
            assert getattr(cfg, name) != getattr(base, name), name
    assert config_to_text(cfg) == text


def test_resolved_config_writes_the_configured_alpha_sq_and_delta(tmp_path):
    # recovered from the complex alpha, fig1's |alpha|^2 = 10 read 10.000000000000002
    # and fig14's delta = pi/4 read 0.7853981633974482 (at |alpha|^2 = 3)
    cases = [(preset_configs("fig1")[0], 10.0), (preset_configs("fig14")[0], 3.0)]
    for cfg, alpha_sq in cases + [(tiny_config(tmp_path), 2.0)]:
        lines = config_to_text(cfg).splitlines()
        assert f"state.alpha_sq = {alpha_sq!r}" in lines, cfg.name
        assert f"state.delta = {math.pi / 4!r}" in lines, cfg.name


def test_config_rejects_empty_products():
    with pytest.raises(ValidationError, match=r"out\.products"):
        config_from_text(BASE_TEXT + "out.products = ,\n")


def test_preset_config_reruns_byte_for_byte(preset_results, tmp_path):
    # the resolved .cfg written next to a preset's outputs reproduces them;
    # rounded to 12 digits, its state.delta and sim.t_end_over_trev would
    # move 122 of fig6_coherent's 200 rows
    (result,) = [r for r in preset_results["fig6"] if r.config.name == "fig6_coherent"]
    cfg = replace(config_from_file(result.config_path), out_dir=tmp_path)
    assert run_experiment(cfg).csv_path.read_bytes() == result.csv_path.read_bytes()


# --- run_experiment ------------------------------------------------------------


def test_run_experiment_products(tmp_path):
    cfg = tiny_config(
        tmp_path,
        "out.products = quantifiers_csv,minima_report\nout.tomograms_at = 0.0,0.1\n",
    )
    result = run_experiment(cfg, write_config=True)

    assert len(result.records) == cfg.steps
    assert result.records[0].t == 0.0
    assert result.records[-1].t_over_trev == pytest.approx(0.2, rel=1e-12)

    text = result.csv_path.read_text()
    lines = text.splitlines()
    assert lines[0] == "t,t_over_trev,nonclassical_area,entropy_0,entropy_90,entropy_sum,trace,purity"
    assert len(lines) == cfg.steps + 1
    assert text.endswith("\n")
    row = [float(tok) for tok in lines[1].split(",")]
    assert len(row) == len(QuantifierRecord.FIELDS)
    assert row[6] == pytest.approx(1.0, abs=1e-12)  # trace column

    assert result.minima_path is not None and result.minima_path.exists()
    assert result.minima_path.read_text().startswith("# local minima")

    assert len(result.dump_paths) == 2
    assert result.dump_paths[1].name == "tiny_tomogram_t0p1trev.dat"
    thetas, x, omega = parse_dump(result.dump_paths[0].read_text())
    assert len(thetas) == cfg.theta_count
    assert omega.shape == (cfg.theta_count, len(x))

    # the resolved config written next to the outputs reproduces the run
    back = config_from_file(result.config_path)
    assert back.dim == cfg.dim and back.products == cfg.products
    assert abs(back.initial_state.alpha - cfg.initial_state.alpha) < 1e-12


def test_run_experiment_is_deterministic(tmp_path):
    extra = "out.products = quantifiers_csv,minima_report\nout.tomograms_at = 0.0,0.1\n"
    first = run_experiment(tiny_config(tmp_path / "a", extra, name="det"))
    second = run_experiment(tiny_config(tmp_path / "b", extra, name="det"))
    assert first.csv_path.read_bytes() == second.csv_path.read_bytes()
    assert first.minima_path.read_bytes() == second.minima_path.read_bytes()
    assert len(first.dump_paths) == 2
    for a, b in zip(first.dump_paths, second.dump_paths):
        assert a.read_bytes() == b.read_bytes()


def test_dump_only_run_skips_the_sweep(tmp_path):
    cfg = tiny_config(
        tmp_path, "out.products = tomogram_dump\nout.tomograms_at = 0.05\n"
    )
    result = run_experiment(cfg)
    assert result.records == ()
    assert result.csv_path is None and result.minima_path is None
    assert len(result.dump_paths) == 1 and result.dump_paths[0].exists()


def test_truncation_check(tmp_path):
    # |alpha|^2 = 10 in a 12-level space leaves visible mass at the top
    base = dict(
        initial_state=InitialStateSpec(StateKind.COHERENT, math.sqrt(10.0) + 0.0j),
        medium=MediumSpec(MediumKind.KERR, 5.0),
        damping=DampingSpec(DampingChannel.NONE, 0.0),
        dim=12,
        steps=2,
        t_end_over_trev=0.1,
        out_dir=tmp_path / "out",
        name="trunc",
    )
    with pytest.raises(ValidationError, match="truncation check failed: .* in the top 5 Fock levels"):
        run_experiment(ExperimentConfig(**base))
    # the check reads levels n >= max(1, dim - 5), so the vacuum passes at every dim
    vacuum = InitialStateSpec(StateKind.COHERENT, 0j)
    for dim in (2, 3, 4, 5):
        result = run_experiment(ExperimentConfig(**{**base, "initial_state": vacuum, "dim": dim}))
        assert len(result.records) == 2, dim
    # and names the number of levels it read
    with pytest.raises(ValidationError, match="in the top 2 Fock levels .*; raise sim.dim$"):
        run_experiment(ExperimentConfig(**{**base, "dim": 3}))


# --- sweeps: batched records -------------------------------------------------


def per_state_records(cfg):
    """compute_record on each state of the sweep, one state at a time.

    compute_record is the sweep's own code at T = 1, so each record is
    first checked against the state itself: trace and purity from the
    matrix, the area from its ladder expectations and the entropies from
    its two-slice tomogram."""
    rho0 = density_from_pure(cfg.initial_state.build(cfg.dim))
    window = _resolve_window(cfg, rho0)
    grid = symmetric_grid(*window, (0.0, math.pi / 2))
    times = cfg.time_grid.values
    records = []
    for rho, t in zip(evolved_states(rho0, cfg.medium, cfg.damping, times), times):
        rec = compute_record(rho, t, cfg.t_rev, cfg.theta_count, window)
        assert rec.trace == pytest.approx(rho.trace(), abs=1e-12), t
        assert rec.purity == pytest.approx(rho.purity(), abs=1e-12), t
        assert rec.nonclassical_area == nonclassical_area(rho, cfg.theta_count), t
        tomo = tomogram_of_density(rho, grid)
        assert rec.entropy_0 == tomographic_entropy(tomo, 0), t
        assert rec.entropy_90 == tomographic_entropy(tomo, 1), t
        records.append(rec)
    return records


def assert_records_match(got, want, tol=1e-12):
    """Every field of the sweep's records within tol of the per-state ones,
    and the area to the last bit: a batch of T states sums the same moments
    in the same order as T = 1, while the tomogram's products round with T."""
    assert len(got) == len(want)
    for rec, ref in zip(got, want):
        assert rec.nonclassical_area == ref.nonclassical_area, (rec.t, rec, ref)
        for name, value, expected in zip(QuantifierRecord.FIELDS, rec.as_row(), ref.as_row()):
            assert abs(value - expected) <= tol, (name, rec.t, value, expected)


ALPHA = math.sqrt(3.0) * complex(math.cos(0.7), math.sin(0.7))
FAMILIES = {
    "coherent": InitialStateSpec(StateKind.COHERENT, ALPHA),
    "photon_added": InitialStateSpec(StateKind.PHOTON_ADDED, ALPHA, 2),
    "even": InitialStateSpec(StateKind.EVEN_COHERENT, ALPHA),
}

EVERY_CHANNEL = pytest.mark.parametrize(
    "damping",
    [
        DampingSpec(DampingChannel.NONE, 0.0),
        DampingSpec(DampingChannel.PHASE, 0.05),
        DampingSpec(DampingChannel.AMPLITUDE, 0.1),
    ],
    ids=["none", "phase", "amplitude"],
)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("kind", [MediumKind.KERR, MediumKind.CUBIC])
@EVERY_CHANNEL
def test_damped_sweep_records_match_per_state_records(tmp_path, family, kind, damping):
    # 70 times: two batches of diagonals, the second one partial
    cfg = ExperimentConfig(
        initial_state=FAMILIES[family],
        medium=MediumSpec(kind, 5.0),
        damping=damping,
        dim=26,
        steps=70,
        t_end_over_trev=0.6,
        out_dir=tmp_path,
        name="batched",
    )
    assert_records_match(run_experiment(cfg).records, per_state_records(cfg))


def test_damped_sweep_records_match_per_state_records_at_fig8_size(tmp_path):
    # Kerr amplitude damping at dim 100 with |alpha|^2 = 40
    cfg = replace(preset_configs("fig8", tmp_path)[0], steps=60)
    assert cfg.dim == 100 and cfg.damping.channel is DampingChannel.AMPLITUDE
    assert_records_match(run_experiment(cfg).records, per_state_records(cfg))


@pytest.mark.parametrize("kind", [MediumKind.KERR, MediumKind.CUBIC])
@EVERY_CHANNEL
def test_sweep_records_at_dim_two_match_per_state_records(kind, damping):
    # no d = 2 diagonal: <a^2> is the sum of an empty one
    cfg = ExperimentConfig(
        initial_state=FAMILIES["coherent"],
        medium=MediumSpec(kind, 5.0),
        damping=damping,
        dim=2,
        steps=5,
        t_end_over_trev=0.6,
        name="dim2",
    )
    # the truncation check refuses this state at dim 2, so the sweep is run directly
    rho0 = density_from_pure(cfg.initial_state.build(cfg.dim))
    records = _records(cfg, rho0, cfg.time_grid.values, _resolve_window(cfg, rho0))
    assert_records_match(records, per_state_records(cfg))


REFERENCE_STATE = {
    DampingChannel.NONE: lambda rho0, medium, gamma, t: propagate_unitary(rho0, medium, t),
    DampingChannel.PHASE: propagate_phase_damping,
    DampingChannel.AMPLITUDE: coherence_block_solve,
}


@pytest.mark.parametrize("kind", [MediumKind.KERR, MediumKind.CUBIC])
@EVERY_CHANNEL
def test_dumps_match_tomograms_of_the_per_time_reference_states(tmp_path, kind, damping):
    cfg = ExperimentConfig(
        initial_state=FAMILIES["photon_added"],
        medium=MediumSpec(kind, 5.0),
        damping=damping,
        dim=26,
        theta_count=8,
        products=frozenset({Product.TOMOGRAM_DUMP}),
        tomograms_at=(0.0, 0.13, 0.6),
        out_dir=tmp_path,
        name="dumps",
    )
    result = run_experiment(cfg)
    rho0 = density_from_pure(cfg.initial_state.build(cfg.dim))
    grid = symmetric_grid(*_resolve_window(cfg, rho0), uniform_thetas(cfg.theta_count))
    assert len(result.dump_paths) == len(cfg.tomograms_at)
    for u, path in zip(cfg.tomograms_at, result.dump_paths):
        rho_t = REFERENCE_STATE[damping.channel](rho0, cfg.medium, damping.gamma, u * cfg.t_rev)
        want = tomogram_of_density(rho_t, grid)
        thetas, x, values = parse_dump(path.read_text())
        # theta and x are printed with %.9g
        assert np.allclose(thetas, grid.thetas, rtol=1e-8, atol=0)
        assert np.allclose(x, grid.x, rtol=1e-8, atol=0)
        assert np.max(np.abs(values - want.values)) <= 1e-12


TIGHT_WINDOW_TEXT = """\
# coherent |alpha|^2 = 20: the theta = 0 slice is centred at x = 6.32
state.kind = coherent
state.alpha_sq = 20.0
medium.kind = kerr
damping.gamma = 0.05
sim.dim = 60
sim.steps = 3
sim.t_end_over_trev = 0.01
"""


@pytest.mark.parametrize("channel", ["amplitude", "phase"])
def test_damped_sweep_warns_on_a_tight_window(tmp_path, channel):
    cfg = config_from_text(
        TIGHT_WINDOW_TEXT
        + f"damping.channel = {channel}\ngrid.x_max = 10.1\ngrid.n_x = 203\n"
        + f"out.dir = {tmp_path}\n"
    )
    with pytest.warns(RuntimeWarning, match="off-grid") as caught:
        result = run_experiment(cfg)
    assert len(result.records) == 3
    assert sum("off-grid" in str(w.message) for w in caught) == 3


@pytest.mark.parametrize("channel", ["amplitude", "phase"])
def test_cli_run_exits_3_when_the_window_cuts_the_state(tmp_path, capsys, channel):
    path = tmp_path / "cut.cfg"
    path.write_text(
        TIGHT_WINDOW_TEXT
        + f"damping.channel = {channel}\ngrid.x_max = 7\ngrid.n_x = 141\n"
        + f"out.dir = {tmp_path / 'out'}\n"
    )
    assert main(["run", str(path)]) == EXIT_INVARIANT
    assert "tomogram slice normalization off by" in capsys.readouterr().err
    assert not (tmp_path / "out" / "cut.csv").exists()


DUMPS_ONLY = "out.products = tomogram_dump\nout.tomograms_at = "


@pytest.mark.parametrize("channel", ["amplitude", "phase"])
def test_dump_only_run_on_a_tight_window_warns_and_exits_3(tmp_path, capsys, channel):
    text = TIGHT_WINDOW_TEXT + f"damping.channel = {channel}\n" + DUMPS_ONLY + "0.0,0.005\n"
    cfg = config_from_text(text + "grid.x_max = 10.1\ngrid.n_x = 203\n" + f"out.dir = {tmp_path}\n")
    assert cfg.products == frozenset({Product.TOMOGRAM_DUMP})
    with pytest.warns(RuntimeWarning, match="off-grid") as caught:
        result = run_experiment(cfg)
    assert len(result.dump_paths) == 2
    assert sum("off-grid" in str(w.message) for w in caught) == 2

    # the message of the dense per-state tomogram of the first refused state
    grid = symmetric_grid(7.0, 141, uniform_thetas(cfg.theta_count))
    want = dense_tomogram(density_from_pure(cfg.initial_state.build(cfg.dim)), grid)
    with pytest.raises(NumericalInvariantError, match="normalization off by") as refused:
        check_tomograms(want[:, None, :], grid.x)
    path = tmp_path / "cut.cfg"
    path.write_text(text + f"grid.x_max = 7\ngrid.n_x = 141\nout.dir = {tmp_path / 'out'}\n")
    assert main(["run", str(path)]) == EXIT_INVARIANT
    assert str(refused.value) in capsys.readouterr().err


BELOW_ENTROPY_BOUND_TEXT = """\
state.kind = coherent
state.alpha_sq = 40
state.delta = 0.7853981633974483
medium.kind = kerr
sim.dim = 100
sim.steps = 2
grid.x_max = 10
grid.n_x = 200
"""


def test_a_row_below_the_entropy_bound_warns_then_exits_3(tmp_path, capsys):
    # the window leaves ~1e-7 of each slice off the grid: warned, not refused,
    # but the tails it cuts off take the windowed entropy sum below 1 + ln(pi)
    path = tmp_path / "cut.cfg"
    path.write_text(BELOW_ENTROPY_BOUND_TEXT + f"out.dir = {tmp_path / 'out'}\n")
    want = "entropy bound violated at t=0: S_sum=2.14472672868 < 2.14472988585 - 1e-6"
    with pytest.warns(RuntimeWarning, match="off-grid") as caught:
        with pytest.raises(NumericalInvariantError) as refused:
            run_experiment(config_from_file(path))
    assert str(refused.value) == want
    assert sum("off-grid" in str(w.message) for w in caught) == 2
    with pytest.warns(RuntimeWarning, match="off-grid"):
        assert main(["run", str(path)]) == EXIT_INVARIANT
    assert want in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_dumps_before_a_refused_time_are_written(tmp_path, monkeypatch):
    # by t = 100 T_rev amplitude damping has shrunk the state into the window
    # that cuts it at t = 0; the dump of the first time is still written
    text = TIGHT_WINDOW_TEXT + "damping.channel = amplitude\ngrid.x_max = 7\ngrid.n_x = 141\n"
    cfg = config_from_text(text + DUMPS_ONLY + f"100,0,50\nout.dir = {tmp_path}\n")
    with pytest.raises(NumericalInvariantError, match="normalization off by"):
        run_experiment(cfg)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run_tomogram_t100trev.dat"]

    # a state the density-matrix checks refuse: non-finite at the second time
    def poisoned(*args):
        for chunk, diagonals in coherence_diagonals(*args):
            diagonals = [x.copy() for x in diagonals]
            diagonals[3][1, 0] = np.nan
            yield chunk, iter(diagonals)

    monkeypatch.setattr(nltomo.runner, "coherence_diagonals", poisoned)
    cfg = dataclasses.replace(cfg, out_dir=tmp_path / "nan", tomograms_at=(100.0, 50.0, 60.0))
    with pytest.raises(ValidationError, match="density matrix contains non-finite entries"):
        run_experiment(cfg)
    assert sorted(p.name for p in cfg.out_dir.iterdir()) == ["run_tomogram_t100trev.dat"]


# --- convergence and oracle reports ---------------------------------------------


def test_convergence_sweep(tmp_path):
    cfg = tiny_config(tmp_path)
    report = convergence_sweep(cfg, (10, 20, 30, 40))
    assert report.dims == (10, 20, 30, 40)
    assert report.areas.shape == (4, 3)
    assert report.mean_photons.shape == (4, 3)
    assert np.max(np.abs(report.traces - 1.0)) < 1e-10
    assert report.deltas[0] > report.tolerance  # dim 10 is visibly truncated
    assert report.deltas[1] > report.tolerance  # so are the entropies at dim 20
    assert report.deltas[2] < report.tolerance
    assert report.converged_at == 30
    assert "converged at dim=30" in report.text
    # a quarter, half and all of the sweep, which ends at 0.2 T_rev
    assert "# probe times (t/T_rev): 0.05, 0.1, 0.2\n" in report.text
    # the converged rows carry the physics: <N> = |alpha|^2 for a coherent state
    assert report.mean_photons[-1][0] == pytest.approx(2.0, abs=1e-10)


def test_convergence_sweep_flags_the_entropies_alone(tmp_path):
    # from dim 20 to 30 the tiny config's area, <N> and trace move by less
    # than 4e-12, but its entropies by 1.1e-8, all on one window
    report = convergence_sweep(tiny_config(tmp_path), (20, 30))
    for table in (report.areas, report.mean_photons, report.traces):
        assert np.max(np.abs(table[1] - table[0])) < report.tolerance
    entropy = float(re.search(r"entropy=(\S+)", report.text).group(1))
    assert entropy > report.tolerance
    assert "%.3e" % report.deltas[0] == "%.3e" % entropy
    assert report.converged_at is None
    assert "# not converged at tolerance 1e-10" in report.text


def test_convergence_sweep_vacuum_converges_immediately(tmp_path):
    cfg = config_from_text(
        "state.kind = coherent\nstate.alpha_sq = 0\nmedium.kind = kerr\nsim.dim = 4\n"
    )
    report = convergence_sweep(cfg, (2, 4))
    assert report.converged_at == 2


def test_convergence_sweep_validation(tmp_path):
    cfg = tiny_config(tmp_path)
    with pytest.raises(ValidationError, match="two distinct dims"):
        convergence_sweep(cfg, (30,))
    with pytest.raises(ValidationError, match="dims must be"):
        convergence_sweep(cfg, (1, 30))


def test_oracle_report_exact_solver_passes(tmp_path):
    helper = tiny_config(tmp_path, "damping.channel = amplitude\ndamping.gamma = 0.4\n")
    cfg = ExperimentConfig(
        initial_state=helper.initial_state,
        medium=helper.medium,
        damping=helper.damping,
        dim=12,
        steps=2,
        t_end_over_trev=0.3,
        name="oracle_exact",
    )
    report = oracle_report(cfg, samples=5)
    assert report.dim == 12
    assert report.passed
    assert max(report.deviations) < 1e-10
    assert "# overall: PASS" in report.text


def test_oracle_report_checks_amplitude_damping_at_full_dim(tmp_path, monkeypatch):
    # the exp(tL) lines stop at dim 15; amplitude damping is also checked at
    # sim.dim = 25 against the per-block dense exponential
    cfg = tiny_config(tmp_path, "damping.channel = amplitude\ndamping.gamma = 0.4\n")
    report = oracle_report(cfg, samples=4)
    assert report.dim == 15
    assert len(report.deviations) == len(report.full_dim_deviations) == 4
    assert max(report.full_dim_deviations) < 1e-12
    assert "# dim=25 against coherence_block_solve" in report.text
    assert report.passed
    assert oracle_report(tiny_config(tmp_path), samples=4).full_dim_deviations == ()

    # a reference that disagrees at full dim alone fails the report
    def shifted(rho0, medium, gamma, t):
        mat = coherence_block_solve(rho0, medium, gamma, t).elements.copy()
        mat[0, 1] += 1e-6
        mat[1, 0] += 1e-6
        return DensityMatrix(rho0.dim, mat)

    monkeypatch.setattr(nltomo.runner, "coherence_block_solve", shifted)
    report = oracle_report(cfg, samples=4)
    assert max(report.deviations) < 1e-12
    assert not report.passed
    assert "# overall: FAIL" in report.text


@pytest.mark.parametrize("preset", ["fig4", "fig12", "fig13", "fig14"])
def test_oracle_report_passes_on_amplitude_presets(preset):
    # cubic and Kerr amplitude damping, fig4, fig13 and fig14 out to
    # gamma*t = 10: the reference keeps its trace to 1e-10 and matches
    # the production states to 1e-8
    report = oracle_report(preset_configs(preset)[0])
    assert report.passed
    assert "# overall: PASS" in report.text


@pytest.mark.parametrize("preset", ["fig12", "fig13", "fig14", "fig19"])
def test_cli_oracle_passes_on_amplitude_presets(preset, tmp_path, capsys):
    # the cubic ones read their block eigenbases from the per-key cache, which
    # the per-block exponential of the reference does not use
    path = tmp_path / f"{preset}.cfg"
    path.write_text(config_to_text(preset_configs(preset)[0]))
    assert main(["oracle", str(path)]) == EXIT_OK
    assert "# overall: PASS" in capsys.readouterr().out


# --- presets ---------------------------------------------------------------------


def test_preset_catalog():
    names = preset_names()
    assert names == tuple(f"fig{i}" for i in range(1, 21))
    for name in names:
        assert preset_description(name)
    with pytest.raises(ValidationError, match="unknown preset"):
        preset_description("fig21")
    with pytest.raises(ValidationError, match="unknown preset 'fig21'; known: fig1, fig2"):
        preset_configs("fig21")


def test_preset_catalog_parameters_are_pinned():
    # every field of the 55 configs, so a changed dim, rate or step count in a row fails
    text = "".join(config_to_text(cfg) for name in preset_names() for cfg in preset_configs(name))
    assert text.count("out.name = ") == 55
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "483fc843493b432307ce7185d45b5a01d434ac2dc7dab437271b7498daf4e23f"
    )


def test_readme_preset_table_matches_the_catalog():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = re.findall(r"^\| `(fig\d+)` \| (.+) \|$", readme, re.M)
    assert [name for name, _ in rows] == list(preset_names())
    for name, text in rows:
        plain = text.replace("\\|", "|").replace("²", "^2").replace("·", "*")
        assert plain == preset_description(name), name


def test_preset_configs_resolution(tmp_path):
    runs = preset_configs("fig7", tmp_path)
    assert len(runs) == 3
    assert {cfg.dim for cfg in runs} == {100}
    assert all(cfg.out_dir == tmp_path for cfg in runs)
    default = preset_configs("fig1")
    assert default[0].out_dir.parts[-2:] == ("nltomo_out", "fig1")
    dump_run = preset_configs("fig13", tmp_path)[0]
    assert dump_run.products == frozenset({Product.TOMOGRAM_DUMP})
    assert len(dump_run.tomograms_at) == 4


def test_computed_tomograms_are_checked_once(tmp_path, monkeypatch):
    # check_tomograms passes the values of tomogram_of_density and of every dump;
    # the public constructor would check them a second time and copy them
    cfg = tiny_config(tmp_path, "out.products = tomogram_dump\nout.tomograms_at = 0.0,0.1\n")
    rho = density_from_pure(cfg.initial_state.build(cfg.dim))
    grid = symmetric_grid(*_resolve_window(cfg, rho), uniform_thetas(3))
    want_values = tomogram_of_density(rho, grid).values
    want_dumps = [path.read_bytes() for path in run_experiment(cfg).dump_paths]

    def checked_again(self):
        raise AssertionError("Tomogram checked computed values again")

    monkeypatch.setattr(Tomogram, "__post_init__", checked_again)
    tomo = tomogram_of_density(rho, grid)
    assert np.array_equal(tomo.values, want_values)
    assert not tomo.values.flags.writeable
    assert [path.read_bytes() for path in run_experiment(cfg).dump_paths] == want_dumps


# --- command line ----------------------------------------------------------------


def write_config_file(tmp_path, name="job", extra=""):
    path = tmp_path / f"{name}.cfg"
    path.write_text(BASE_TEXT + f"out.dir = {tmp_path / 'out'}\n" + extra)
    return path


def test_cli_run(tmp_path, capsys):
    path = write_config_file(tmp_path)
    assert main(["run", str(path)]) == EXIT_OK
    printed = capsys.readouterr().out.strip()
    assert printed.endswith("job.csv")
    assert (tmp_path / "out" / "job.csv").is_file()


def test_cli_run_missing_config(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.cfg")]) == EXIT_VALIDATION
    assert "config file not found" in capsys.readouterr().err


def test_cli_run_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("state.kind = coherent\nsim.dmi = 30\n")
    assert main(["run", str(path)]) == EXIT_VALIDATION
    assert "unknown key" in capsys.readouterr().err

    path.write_text(BASE_TEXT.replace("0.7853981633974483", "inf"))
    assert main(["run", str(path)]) == EXIT_VALIDATION
    assert "state.delta must be finite" in capsys.readouterr().err


def test_cli_run_config_that_cannot_be_decoded(tmp_path, capsys):
    path = tmp_path / "binary.cfg"
    path.write_bytes(b"state.kind = coherent\n\xff\n")
    assert main(["run", str(path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"config file {path} cannot be read" in err
    assert "Traceback" not in err


def test_cli_run_rejects_dump_times_that_share_a_file_name(tmp_path, capsys):
    path = write_config_file(tmp_path, extra="out.tomograms_at = 0.1234561, 0.1234562\n")
    assert main(["run", str(path)]) == EXIT_VALIDATION
    assert "0.1234561 and 0.1234562" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_preset_list(capsys):
    assert main(["preset", "--list"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in ("fig1", "fig10", "fig20"):
        assert name in out


def test_cli_preset_requires_name(capsys):
    assert main(["preset"]) == EXIT_VALIDATION
    assert "give a name or --list" in capsys.readouterr().err


def test_cli_preset_rejects_out_dir_with_comment(tmp_path, capsys):
    # its snapshot would read back as out.dir = <tmp_path>/res
    assert main(["preset", "fig1", "--out", str(tmp_path / "res#1")]) == EXIT_VALIDATION
    assert "out.dir" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_preset_unknown_name(capsys):
    assert main(["preset", "fig99"]) == EXIT_VALIDATION
    assert "unknown preset" in capsys.readouterr().err


def test_cli_parser_is_built_once_and_survives_a_bad_argv(tmp_path, capsys):
    # argparse exits 2 on an argv it cannot parse; the kept parser must parse
    # the next command as a fresh one would
    assert cli._build_parser() is cli._build_parser()
    for bad in (["run"], ["nonsense"], ["oracle", "x.cfg", "--samples", "many"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == EXIT_VALIDATION
    capsys.readouterr()
    path = write_config_file(tmp_path)
    assert main(["run", str(path)]) == EXIT_OK
    assert capsys.readouterr().out.strip().endswith("job.csv")
    assert main(["preset", "--list"]) == EXIT_OK
    assert "fig20" in capsys.readouterr().out


def test_cli_converge(tmp_path, capsys):
    path = write_config_file(tmp_path)
    assert main(["converge", str(path), "--dims", "10,20,30,40"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "dim=10" in out and "converged at dim=30" in out

    assert main(["converge", str(path), "--dims", "10;20"]) == EXIT_VALIDATION
    assert "--dims" in capsys.readouterr().err


def test_cli_oracle_exit_codes(tmp_path, capsys, monkeypatch):
    exact = write_config_file(
        tmp_path,
        name="exact",
        extra="damping.channel = amplitude\ndamping.gamma = 0.4\n",
    )
    assert main(["oracle", str(exact), "--samples", "4"]) == EXIT_OK
    assert "# overall: PASS" in capsys.readouterr().out

    for samples in ("1", "0", "-3"):
        assert main(["oracle", str(exact), "--samples", samples]) == EXIT_VALIDATION
        assert "samples >= 2" in capsys.readouterr().err

    # a propagator that leaves the state as it was fails the comparison
    def frozen(rho0, medium, damping, times):
        times = np.asarray(times)
        x0 = [np.diagonal(rho0.elements, -d) for d in range(rho0.dim)]
        yield times, (np.tile(x, (times.size, 1)) for x in x0)

    monkeypatch.setattr(nltomo.runner, "coherence_diagonals", frozen)
    assert main(["oracle", str(exact), "--samples", "4"]) == EXIT_INVARIANT
    assert "# overall: FAIL" in capsys.readouterr().out


@pytest.fixture
def blas_threads():
    """The OpenBLAS thread controls the CLI uses, at 2 threads; restored afterwards."""
    threads = cli._openblas_threads()
    if not threads:
        pytest.skip("no OpenBLAS loaded")
    counts = [get() for get, _ in threads]
    for _, put in threads:
        put(2)
    try:
        if any(get() != 2 for get, _ in threads):
            pytest.skip("OpenBLAS cannot run 2 threads here")
        yield threads
    finally:
        for (_, put), count in zip(threads, counts):
            put(count)


@pytest.mark.parametrize(
    "error, code",
    [
        (None, EXIT_OK),
        (ValidationError("bad"), EXIT_VALIDATION),
        (NumericalInvariantError("off"), EXIT_INVARIANT),
    ],
    ids=["ok", "validation", "invariant"],
)
def test_cli_runs_on_one_blas_thread_and_restores_the_count(
    tmp_path, capsys, monkeypatch, blas_threads, error, code
):
    seen = []

    def counting(cfg):
        seen.append([get() for get, _ in blas_threads])
        if error is not None:
            raise error
        return run_experiment(cfg)

    monkeypatch.setattr(cli, "run_experiment", counting)
    assert main(["run", str(write_config_file(tmp_path))]) == code
    assert seen == [[1] * len(blas_threads)]
    assert [get() for get, _ in blas_threads] == [2] * len(blas_threads)


def test_unitary_sweep_bits_do_not_depend_on_the_blas_thread_count(tmp_path, blas_threads):
    # fig1-like: mirror-symmetric about T_rev/2 with an even step count, so the
    # minima there are twins whose CSV rows print alike and the last bit picks one
    text = (
        "state.kind = coherent\nstate.alpha_sq = 10.0\nstate.delta = 0.7853981633974483\n"
        "medium.kind = kerr\nsim.dim = 60\nsim.steps = 200\nsim.t_end_over_trev = 1.0\n"
        "out.products = quantifiers_csv,minima_report\n"
    )
    outputs = []
    for count in (1, 2):
        for _, put in blas_threads:
            put(count)
        cfg = config_from_text(text + f"out.dir = {tmp_path / str(count)}\n", "fig1like")
        result = run_experiment(cfg)
        outputs.append((result.csv_path.read_bytes(), result.minima_path.read_bytes()))
    assert outputs[0] == outputs[1]


def _child_env():
    """Environment in which a child interpreter imports this nltomo package."""
    root = str(Path(nltomo.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


def test_cli_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "nltomo.cli", "preset", "--list"],
        capture_output=True,
        text=True,
        timeout=120,
        env=_child_env(),
    )
    assert proc.returncode == EXIT_OK
    assert "fig1" in proc.stdout


def test_cli_import_leaves_out_scipy():
    # a fresh interpreter, so that modules other tests import do not count
    probe = (
        "import sys, nltomo.cli; "
        "print('\\n'.join(m for m in sys.modules "
        "if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=120,
        env=_child_env(),
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.split() == []
