"""Correctness gate for the files one `nltomo run` writes.

Numbers are compared to 1e-10 absolute. Where a value is printed too coarsely
to carry 1e-10 (|v| >= 10 at the 12 significant digits of the CSV, minima
and dump formats), one unit in its last printed digit is allowed instead.
Every other token must match exactly.

- At the default seed, every output is compared with the reference output
  under `perfbench/reference/<workload>/`, stored xz-compressed.
- At any other seed, the first iteration's outputs are checked
  independently: invariants on every CSV row, a few rows recomputed with
  the public per-time propagators and `compute_record`, the minima report
  against the CSV, and one tomogram dump recomputed in full. Later
  iterations must reproduce the first iteration's files.
"""

from __future__ import annotations

import lzma
import math
import random
import re
from pathlib import Path

import numpy as np

from workloads import Run

ABS_TOL = 1e-10
PRINTED_DIGITS = 12
SAMPLED_ROWS = 3

_SPLIT = re.compile(r"[\s,=()]+")


def expected_outputs(run: Run) -> list[str]:
    names = []
    if "quantifiers_csv" in run.products:
        names.append(f"{run.name}.csv")
    if "minima_report" in run.products:
        names.append(f"{run.name}_minima.txt")
    for u in run.tomograms_at:
        names.append(f"{run.name}_tomogram_t{('%.6g' % u).replace('.', 'p')}trev.dat")
    return names


def tolerance(reference: float) -> float:
    if reference == 0.0 or not math.isfinite(reference):
        return ABS_TOL
    last_digit = 10.0 ** (math.floor(math.log10(abs(reference))) - (PRINTED_DIGITS - 1))
    return max(ABS_TOL, last_digit)


def close(value: float, reference: float) -> bool:
    return abs(value - reference) <= tolerance(reference)


def _number(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def compare_text(produced: str, reference: str) -> str | None:
    """None when the texts agree token by token, else the first difference."""
    if produced == reference:
        return None
    got, want = produced.splitlines(), reference.splitlines()
    if len(got) != len(want):
        return f"{len(got)} lines, expected {len(want)}"
    for lineno, (g_line, w_line) in enumerate(zip(got, want), start=1):
        g_tok, w_tok = _SPLIT.split(g_line.strip()), _SPLIT.split(w_line.strip())
        if len(g_tok) != len(w_tok):
            return f"line {lineno}: {g_line!r}, expected {w_line!r}"
        for g, w in zip(g_tok, w_tok):
            gv, wv = _number(g), _number(w)
            if gv is None or wv is None:
                if g != w:
                    return f"line {lineno}: token {g!r}, expected {w!r}"
            elif not close(gv, wv):
                return f"line {lineno}: {gv!r} differs from {wv!r} by {abs(gv - wv):.3e}"
    return None


def read_outputs(run: Run, out_dir: Path) -> tuple[dict[str, str], list[str]]:
    texts, problems = {}, []
    for name in expected_outputs(run):
        path = out_dir / name
        if path.is_file():
            texts[name] = path.read_text()
        else:
            problems.append(f"{name}: not written")
    return texts, problems


def check_reference(run: Run, out_dir: Path, ref_dir: Path) -> list[str]:
    texts, problems = read_outputs(run, out_dir)
    for name, text in texts.items():
        ref = ref_dir / f"{name}.xz"
        if not ref.is_file():
            problems.append(f"{name}: no reference output {ref.name}")
            continue
        diff = compare_text(text, lzma.decompress(ref.read_bytes()).decode())
        if diff:
            problems.append(f"{name}: {diff}")
    return problems


def check_same(run: Run, out_dir: Path, first: dict[str, str]) -> list[str]:
    texts, problems = read_outputs(run, out_dir)
    for name, text in texts.items():
        diff = compare_text(text, first[name])
        if diff:
            problems.append(f"{name} differs from the first iteration: {diff}")
    return problems


# --- independent recomputation at non-default seeds --------------------------------


def _rows(text: str) -> tuple[list[str], np.ndarray]:
    lines = text.strip().splitlines()
    return lines[0].split(","), np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


def _minima(text: str) -> dict[str, list[tuple[float, float]]]:
    series: dict[str, list[tuple[float, float]]] = {}
    counts: dict[str, int] = {}
    current = None
    for line in text.strip().splitlines():
        head = re.match(r"# series: (\S+) \((\d+) minima\)", line)
        if head:
            current = head.group(1)
            series[current], counts[current] = [], int(head.group(2))
        elif not line.startswith("#"):
            fields = dict(tok.split("=") for tok in line.split())
            series[current].append((float(fields["t"]), float(fields["value"])))
    for label, hits in series.items():
        if len(hits) != counts[label]:
            raise ValueError(f"series {label}: header says {counts[label]}, lists {len(hits)}")
    return series


class Recheck:
    """Independent checks of one run's outputs, through the public API."""

    def __init__(self, nl, cfg_path: Path, rng: random.Random):
        self.nl, self.rng = nl, rng
        cfg = nl.config_from_file(cfg_path)
        self.cfg = cfg
        self.rho0 = nl.density_from_pure(cfg.initial_state.build(cfg.dim))
        grid = nl.tomography.suggested_grid(nl.ladder_expectations(self.rho0).n, (0.0,))
        self.window = (grid.x_max, grid.n_x)

    def state_at(self, t: float):
        nl, cfg = self.nl, self.cfg
        channel = cfg.damping.channel.value
        if channel == "none":
            return nl.propagate_unitary(self.rho0, cfg.medium, t)
        if channel == "phase":
            return nl.propagate_phase_damping(self.rho0, cfg.medium, cfg.damping.gamma, t)
        return nl.coherence_block_solve(self.rho0, cfg.medium, cfg.damping.gamma, t)

    def csv(self, text: str) -> list[str]:
        nl, cfg = self.nl, self.cfg
        header, rows = _rows(text)
        fields = list(nl.QuantifierRecord.FIELDS)
        if header != fields:
            return [f"CSV header {header}, expected {fields}"]
        if rows.shape != (cfg.steps, len(fields)):
            return [f"CSV shape {rows.shape}, expected {(cfg.steps, len(fields))}"]
        col = {name: rows[:, i] for i, name in enumerate(fields)}
        problems = []
        times = cfg.time_grid.values
        checks = {
            "t": times,
            "t_over_trev": times / cfg.t_rev,
            "entropy_sum": col["entropy_0"] + col["entropy_90"],
            "trace": np.ones_like(times),
        }
        for name, want in checks.items():
            bad = [i for i in range(len(want)) if not close(col[name][i], want[i])]
            if bad:
                problems.append(f"CSV column {name} wrong at row {bad[0]}: {col[name][bad[0]]!r}")
        low = col["entropy_sum"] < nl.ENTROPY_BOUND - 1e-6
        if low.any():
            problems.append(f"entropy bound violated at row {int(np.argmax(low))}")
        for i in sorted(self.rng.sample(range(cfg.steps), SAMPLED_ROWS)):
            t = float(times[i])
            rec = nl.quantifiers.compute_record(
                self.state_at(t), t, cfg.t_rev, cfg.theta_count, self.window
            )
            for name, want in zip(fields, rec.as_row()):
                if not close(col[name][i], want):
                    problems.append(
                        f"row {i} {name}: {col[name][i]!r}, recomputed {want!r}"
                    )
        return problems

    def minima(self, text: str, csv_text: str) -> list[str]:
        header, rows = _rows(csv_text)
        times = rows[:, header.index("t")]
        problems = []
        for label, hits in _minima(text).items():
            values = rows[:, header.index(label)]
            for t, value in hits:
                i = int(np.argmin(np.abs(times - t)))
                if not close(times[i], t) or not close(values[i], value):
                    problems.append(f"minimum {label} t={t!r} is not a CSV row")
                elif not (0 < i < len(values) - 1 and values[i] <= min(values[i - 1], values[i + 1])):
                    problems.append(f"minimum {label} t={t!r} is not a local minimum")
        return problems

    def dump(self, text: str, u: float) -> list[str]:
        nl, cfg = self.nl, self.cfg
        x_max, n_x = self.window
        thetas = nl.tomography.uniform_thetas(cfg.theta_count)
        grid = nl.QuadratureGrid(-x_max, x_max, n_x, thetas)
        tomo = nl.tomogram_of_density(self.state_at(u * cfg.t_rev), grid)
        diff = compare_text(text, tomo.to_dump_text())
        return [f"recomputed dump at t/T_rev={u!r}: {diff}"] if diff else []


def check_independently(nl, run: Run, cfg_path: Path, out_dir: Path, rng: random.Random) -> list[str]:
    texts, problems = read_outputs(run, out_dir)
    if problems:
        return problems
    check = Recheck(nl, cfg_path, rng)
    csv_text = texts.get(f"{run.name}.csv")
    if csv_text is not None:
        problems += check.csv(csv_text)
    minima_text = texts.get(f"{run.name}_minima.txt")
    if minima_text is not None:
        problems += check.minima(minima_text, csv_text)
    if run.tomograms_at:
        k = rng.randrange(len(run.tomograms_at))
        name = expected_outputs(run)[-len(run.tomograms_at) + k]
        problems += check.dump(texts[name], run.tomograms_at[k])
    return [f"{run.name}: {p}" for p in problems]
