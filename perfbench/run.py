"""nltomo benchmark: sweep workloads run through `nltomo run`, in-process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from `src/`.
Each workload's inputs are `.cfg` files generated from the seed
(`workloads.py`) and run one after another through `nltomo.cli.main`.
One iteration runs every config of the workload once; one operation is one
`run`, and it fails on a nonzero exit code or a failed correctness check
(`verify.py`). After one untimed warm-up iteration, iterations repeat until
`--seconds` of iteration time is measured. The program keeps its default
threading, which is recorded in the `env` line.

--trace 0 prints the end-to-end metrics: medians over the timed iterations
of wall time, CPU time and time samples per second, the process's peak
resident memory, and the median set-up time of fresh interpreters
(`setup_probe.py`).

--trace 1 prints the per-layer metrics: spans and counts from `layertrace.py`
(counts from the first, cold iteration; self times as medians over traced
iterations that alternate with untraced ones), the tracing overhead, and the
median of CHILD_ITERATIONS iterations of a child process with
NLTOMO_WORKERS=1 OPENBLAS_NUM_THREADS=1.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference"
sys.path.insert(0, str(HERE))

import envinfo  # noqa: E402
import layertrace  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3
EXTEND = 1.4
MIN_IDLE = 3
CHILD_TIMEOUT_S = 150
CHILD_ITERATIONS = 3


def import_program():
    sys.path.insert(0, str(SRC))
    import nltomo
    import nltomo.cli

    if Path(nltomo.__file__).resolve().parent != (SRC / "nltomo").resolve():
        raise SystemExit(f"error: imported nltomo from {nltomo.__file__}, not from {SRC}")
    return nltomo


@dataclass
class Iteration:
    wall: float
    cpu: float
    other_cpu_share: float | None = None

    @property
    def idle(self) -> bool:
        return envinfo.is_idle(self.other_cpu_share)


@dataclass
class Workload:
    """One workload's generated configs, run and checked iteration by iteration."""

    name: str
    seed: int
    work: Path
    nl: object = None
    attempted: int = 0
    failed: int = 0
    iterations: int = 0
    idle_iterations: int = 0
    first_outputs: dict = field(default_factory=dict)

    def __post_init__(self):
        self.out = self.work / "out"
        self.configs = workloads.write_configs(self.name, self.seed, self.work / "cfg", self.out)
        self.samples = sum(run.samples for run, _ in self.configs)
        self.rng = random.Random(f"verify/{self.name}/{self.seed}")

    def iterate(self, tracer: layertrace.Tracer | None = None) -> Iteration:
        """Run every config once (timed, traced if given a tracer), then check the outputs."""
        shutil.rmtree(self.out, ignore_errors=True)
        codes = []
        sink = io.StringIO()
        if tracer is not None:
            tracer.reset()
            tracer.install()
        try:
            other = envinfo.OtherCpu()
            start, before = time.perf_counter(), _cpu_seconds()
            for _, cfg in self.configs:
                try:
                    with contextlib.redirect_stdout(sink):
                        codes.append(self.nl.cli.main(["run", str(cfg)]))
                except Exception:
                    traceback.print_exc()
                    codes.append(None)
            iteration = Iteration(time.perf_counter() - start, _cpu_seconds() - before, other.share())
        finally:
            if tracer is not None:
                tracer.uninstall()
        for (run, cfg), code in zip(self.configs, codes):
            self.attempted += 1
            problems = [f"{run.name}: exit code {code}"] if code != 0 else self._check(run, cfg)
            if problems:
                self.failed += 1
                for problem in problems:
                    print(f"FAILED {problem}", file=sys.stderr)
        return iteration

    def _check(self, run, cfg) -> list[str]:
        try:
            if self.seed == workloads.DEFAULT_SEED:
                return verify.check_reference(run, self.out, REFERENCE / self.name)
            if run.name in self.first_outputs:
                return verify.check_same(run, self.out, self.first_outputs[run.name])
            problems = verify.check_independently(self.nl, run, cfg, self.out, self.rng)
            if not problems:
                self.first_outputs[run.name] = verify.read_outputs(run, self.out)[0]
            return problems
        except Exception as exc:
            return [f"{run.name}: check raised {exc!r}"]

    def output_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.out.rglob("*") if p.is_file())


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def measure_setup(wl: Workload) -> list[float]:
    """Wall times of fresh interpreters up to the first sample, seen from outside."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, str(HERE / "setup_probe.py"), *(str(cfg) for _, cfg in wl.configs)]
    walls = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
    return walls


def metric(value: float, unit: str, samples: list[float] | None = None) -> dict:
    out = {"value": value, "unit": unit}
    if samples is not None:
        out["n"] = len(samples)
        out["min"], out["max"] = min(samples), max(samples)
    return out


def timed_loop(wl: Workload, seconds: float, iterate=None) -> list[Iteration]:
    """Iterate until `seconds` of iteration time on an idle machine is measured.

    An iteration during which other processes used more than
    envinfo.IDLE_LIMIT of the machine's CPU time does not count towards
    `seconds`, and the medians leave it out. Iterating stops after
    EXTEND * `seconds` in all; if fewer than MIN_IDLE iterations were idle
    by then, the medians use the half of the iterations (at least MIN_IDLE)
    during which other processes used the least CPU time.
    """
    iterate = iterate or wl.iterate
    iterations: list[Iteration] = []
    while (sum(it.wall for it in iterations if it.idle) < seconds
           and sum(it.wall for it in iterations) < EXTEND * seconds):
        iterations.append(iterate())
    wl.iterations, wl.idle_iterations = len(iterations), sum(it.idle for it in iterations)
    idle = [it for it in iterations if it.idle]
    if len(idle) >= MIN_IDLE:
        return idle
    least_busy = sorted(iterations, key=lambda it: it.other_cpu_share or 0.0)
    return least_busy[:max(MIN_IDLE, (len(iterations) + 1) // 2)]


def end_to_end(wl: Workload, seconds: float) -> dict:
    walls = measure_setup(wl)
    wl.nl = import_program()
    wl.iterate()  # warm-up: fills the program's caches, checks the outputs
    its = timed_loop(wl, seconds)
    wall = [it.wall for it in its]
    cpu = [it.cpu for it in its]
    rate = [wl.samples / it.wall for it in its]
    return {
        "samples_per_s": metric(statistics.median(rate), "1/s", rate),
        "wall_s": metric(statistics.median(wall), "s", wall),
        "cpu_s": metric(statistics.median(cpu), "s", cpu),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": metric(statistics.median(walls), "s", walls),
    }


def child_iteration(wl: Workload, env: dict) -> dict:
    """Median wall and CPU time of CHILD_ITERATIONS iterations, after a warm-up,
    in a fresh process with the given environment."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl.name, "--seed", str(wl.seed),
           "--child-iteration"]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit("error: child iteration failed")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    wl.attempted += result["attempted"]
    wl.failed += result["failed"]
    return result


def per_layer(wl: Workload, seconds: float) -> dict:
    import selftest

    if not selftest.run():
        raise SystemExit("error: trace self-tests failed")
    wl.nl = import_program()
    caller = threading.get_ident()
    tracer = layertrace.Tracer()
    wl.iterate(tracer)  # cold: the counts a first run in a fresh process pays
    counts = tracer.counts()
    bytes_written = wl.output_bytes()
    untraced, traced, selfs = [], [], []

    def pair() -> Iteration:
        # alternate which of the two runs first, so that order effects cancel
        for with_trace in (False, True) if len(traced) % 2 == 0 else (True, False):
            if with_trace:
                traced.append(wl.iterate(tracer).wall)
                selfs.append(layertrace.self_times(tracer.spans(), caller))
            else:
                untraced.append(wl.iterate().wall)
        return Iteration(untraced[-1] + traced[-1], 0.0)

    timed_loop(wl, seconds, pair)
    single = child_iteration(wl, dict(os.environ, NLTOMO_WORKERS="1", OPENBLAS_NUM_THREADS="1"))

    def self_s(layer: str) -> dict:
        values = [s.get(layer, 0.0) for s in selfs]
        return metric(statistics.median(values), "s", values)

    def count(name: str) -> dict:
        return metric(counts.get(name, 0), "count")

    return {
        "states.self_s": self_s("states"),
        "states.calls": count("states.calls"),
        "evolve.self_s": self_s("evolve"),
        "evolve.calls": count("evolve.calls"),
        "evolve.expm_calls": count("evolve.expm_calls"),
        "tomography.self_s": self_s("tomography"),
        "tomography.calls": count("tomography.calls"),
        "tomography.slices": count("tomography.slices"),
        "tomography.basis_builds": count("tomography.basis_builds"),
        "tomography.computed_gflop": metric(counts.get("tomography.computed_flop", 0) / 1e9, "GFLOP"),
        "quantifiers.self_s": self_s("quantifiers"),
        "quantifiers.calls": count("quantifiers.calls"),
        "runner.self_s": self_s("runner"),
        "runner.write_s": self_s(layertrace.WRITE),
        "runner.bytes_written": metric(bytes_written, "bytes"),
        "trace.overhead_frac": metric(statistics.median(traced) / statistics.median(untraced) - 1.0, "fraction"),
        "trace.untraced_wall_s": metric(statistics.median(untraced), "s", untraced),
        "single_thread.wall_s": metric(single["wall_s"], "s"),
        "single_thread.cpu_s": metric(single["cpu_s"], "s"),
    }


def print_report(wl: Workload, metrics: dict, env: dict) -> None:
    runs = len(wl.configs)
    print(f"workload {wl.name} seed {wl.seed}: {workloads.WORKLOADS[wl.name][0]}")
    print(f"{runs} runs and {wl.samples} time samples per iteration")
    print(f"{'metric':28s} {'value':>14s} {'unit':8s} {'n':>3s} {'min':>12s} {'max':>12s}")
    for name, m in metrics.items():
        extra = f"{m['n']:3d} {m['min']:12.6g} {m['max']:12.6g}" if "n" in m else ""
        print(f"{name:28s} {m['value']:14.6g} {m['unit']:8s} {extra}")
    print(f"{'failed_frac':28s} {wl.failed / max(wl.attempted, 1):14.6g} {'fraction':8s} "
          f"({wl.failed} of {wl.attempted} runs)")
    print("env " + json.dumps(env, sort_keys=True))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child-iteration", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nltomo" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'nltomo'}; run from a checkout's root", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = Workload(args.workload, args.seed, work)
        if args.child_iteration:
            wl.nl = import_program()
            wl.iterate()
            its = [wl.iterate() for _ in range(CHILD_ITERATIONS)]
            print(json.dumps({"wall_s": statistics.median(it.wall for it in its),
                              "cpu_s": statistics.median(it.cpu for it in its),
                              "attempted": wl.attempted, "failed": wl.failed}))
            return 0
        watch = envinfo.MachineWatch()
        metrics = per_layer(wl, args.seconds) if args.trace else end_to_end(wl, args.seconds)
        env = {"workload": wl.name, "seed": wl.seed, "trace": args.trace,
               "iterations": wl.iterations, "idle_iterations": wl.idle_iterations,
               **envinfo.record(ROOT, wl.nl), **watch.finish()}
        print_report(wl, metrics, env)
        print(json.dumps({
            "correct": wl.failed == 0,
            "attempted": wl.attempted,
            "failed": wl.failed,
            "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


if __name__ == "__main__":
    sys.exit(main())
