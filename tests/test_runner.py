import math
import subprocess
import sys

import numpy as np
import pytest

from nltomo.cli import EXIT_INVARIANT, EXIT_OK, EXIT_VALIDATION, main
from nltomo.config import (
    AmplitudeSolver,
    ExperimentConfig,
    Product,
    config_from_file,
    config_from_text,
    config_to_text,
    parse_config_text,
)
from nltomo.errors import ValidationError
from nltomo.evolve import DampingChannel, DampingSpec, MediumKind, MediumSpec
from nltomo.presets import preset_configs, preset_description, preset_names
from nltomo.quantifiers import QuantifierRecord
from nltomo.runner import convergence_sweep, oracle_report, run_experiment
from nltomo.states import InitialStateSpec, StateKind
from nltomo.tomography import parse_dump

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
    assert cfg.amplitude_solver is AmplitudeSolver.EXACT
    assert cfg.products == frozenset({Product.QUANTIFIERS_CSV})
    assert cfg.x_max is None and cfg.n_x is None
    assert cfg.name == "run"
    assert not cfg.force


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
    with pytest.raises(ValidationError, match="expected a boolean"):
        config_from_text(BASE_TEXT + "sim.force = maybe\n")
    with pytest.raises(ValidationError, match="expected one of"):
        config_from_text(BASE_TEXT + "medium.chi = 5\nsolver.amplitude = magic\n")
    with pytest.raises(ValidationError, match="out.products"):
        config_from_text(BASE_TEXT + "out.products = quantifiers_csv,plots\n")


def test_config_tomograms_at():
    cfg = config_from_text(BASE_TEXT + "out.tomograms_at = 0.0, 0.1\n")
    # listing dump times implies the dump product
    assert Product.TOMOGRAM_DUMP in cfg.products
    assert cfg.tomograms_at == (0.0, 0.1)
    with pytest.raises(ValidationError, match=">= 0"):
        config_from_text(BASE_TEXT + "out.tomograms_at = -0.1\n")
    with pytest.raises(ValidationError, match="tomograms_at is empty"):
        config_from_text(BASE_TEXT + "out.products = tomogram_dump\n")


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


def test_config_roundtrip(tmp_path):
    text = (
        BASE_TEXT
        + "damping.channel = amplitude\ndamping.gamma = 0.1\n"
        + "grid.x_max = 9.5\ngrid.n_x = 191\n"
        + "solver.amplitude = closed_form\n"
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
    assert back.amplitude_solver is cfg.amplitude_solver
    assert back.products == cfg.products
    assert back.tomograms_at == pytest.approx(cfg.tomograms_at, rel=1e-12)
    assert back.minima_prominence == pytest.approx(cfg.minima_prominence)
    assert back.out_dir == cfg.out_dir and back.name == cfg.name


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
    with pytest.raises(ValidationError, match="truncation check failed"):
        run_experiment(ExperimentConfig(**base))
    result = run_experiment(ExperimentConfig(**base, force=True))
    assert len(result.records) == 2


# --- convergence and oracle reports ---------------------------------------------


def test_convergence_sweep(tmp_path):
    cfg = tiny_config(tmp_path)
    report = convergence_sweep(cfg, (10, 20, 30))
    assert report.dims == (10, 20, 30)
    assert report.areas.shape == (3, 3)
    assert report.mean_photons.shape == (3, 3)
    assert np.max(np.abs(report.traces - 1.0)) < 1e-10
    assert report.deltas[0] > report.tolerance  # dim 10 is visibly truncated
    assert report.deltas[1] < report.tolerance
    assert report.converged_at == 20
    assert "converged at dim=20" in report.text
    # the converged rows carry the physics: <N> = |alpha|^2 for a coherent state
    assert report.mean_photons[-1][0] == pytest.approx(2.0, abs=1e-10)


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
    with pytest.raises(ValidationError, match="probe fractions"):
        convergence_sweep(cfg, (10, 20), probe_fractions=(1.5,))


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
    # amplitude channel also reports the closed-form split: exact diagonals,
    # measurable off-diagonal gap
    assert max(report.closed_diag_deviations) < 1e-8
    assert max(report.closed_offdiag_deviations) > 1e-4
    assert "offdiag_dev" in report.text


def test_oracle_report_flags_closed_form(tmp_path):
    cfg = ExperimentConfig(
        initial_state=tiny_config(tmp_path).initial_state,
        medium=MediumSpec(MediumKind.KERR, 5.0),
        damping=DampingSpec(DampingChannel.AMPLITUDE, 0.4),
        dim=12,
        steps=2,
        t_end_over_trev=0.3,
        amplitude_solver=AmplitudeSolver.CLOSED_FORM,
        name="oracle_closed",
    )
    report = oracle_report(cfg, samples=5)
    assert not report.passed
    assert max(report.deviations) > 1e-3
    assert "FAIL" in report.text


# --- presets ---------------------------------------------------------------------


def test_preset_catalog():
    names = preset_names()
    assert names == tuple(f"fig{i}" for i in range(1, 21))
    for name in names:
        assert preset_description(name)
    with pytest.raises(ValidationError, match="unknown preset"):
        preset_description("fig21")


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


def test_cli_preset_list(capsys):
    assert main(["preset", "--list"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in ("fig1", "fig10", "fig20"):
        assert name in out


def test_cli_preset_requires_name(capsys):
    assert main(["preset"]) == EXIT_VALIDATION
    assert "give a name or --list" in capsys.readouterr().err


def test_cli_preset_unknown_name(capsys):
    assert main(["preset", "fig99"]) == EXIT_VALIDATION
    assert "unknown preset" in capsys.readouterr().err


def test_cli_converge(tmp_path, capsys):
    path = write_config_file(tmp_path)
    assert main(["converge", str(path), "--dims", "10,20,30"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "dim=10" in out and "converged at dim=20" in out

    assert main(["converge", str(path), "--dims", "10;20"]) == EXIT_VALIDATION
    assert "--dims" in capsys.readouterr().err


def test_cli_oracle_exit_codes(tmp_path, capsys):
    exact = write_config_file(
        tmp_path,
        name="exact",
        extra="damping.channel = amplitude\ndamping.gamma = 0.4\n",
    )
    assert main(["oracle", str(exact), "--samples", "4"]) == EXIT_OK
    assert "# overall: PASS" in capsys.readouterr().out

    closed = write_config_file(
        tmp_path,
        name="closed",
        extra=(
            "damping.channel = amplitude\ndamping.gamma = 0.4\n"
            "solver.amplitude = closed_form\n"
        ),
    )
    assert main(["oracle", str(closed), "--samples", "4"]) == EXIT_INVARIANT
    assert "# overall: FAIL" in capsys.readouterr().out


def test_cli_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "nltomo.cli", "preset", "--list"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == EXIT_OK
    assert "fig1" in proc.stdout
