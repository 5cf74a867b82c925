"""Repeat run.py over seeds and summarise each metric's median and spread.

    python3 perfbench/sweep.py [--workloads kerr_amp_d100,pure_and_dephased] \
        [--seeds 0-9] [--seconds 20] [--trace 1] [--json summary.json]

Runs one process at a time, every workload by default. The spread is the
distance between the first and third quartiles (statistics.quantiles, n=4)
as a share of the median, and is compared with a third of the metric's bound
from BENCHMARK.json. `--json` stores the per-run results, the summaries and
the last run's `env` line in the file under the key `end_to_end` (or
`per_layer` with `--trace 1`), keeping the file's other key; `baseline.json`
is written this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--json", help="store the per-run results and the summary in this file")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {}
    ok = True
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            env = json.loads(next(ln for ln in lines if ln.startswith("env "))[4:])
            result = json.loads(lines[-1])
            result.update(seed=seed, idle=env["idle"], other_cpu_share=env["other_cpu_share"])
            results.append(result)
            ok = ok and result["correct"]
            print(f"{workload} seed {seed}: correct={result['correct']} idle={env['idle']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
            median = statistics.median(values)
            spread = (q3 - q1) / median if median else float("nan")
            bound, unit = bounds.get(name), results[0]["metrics"][name]["unit"]
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound, "unit": unit}
            verdict = "" if bound is None else ("ok" if spread <= bound / 3 else "WIDE")
            print(f"  {name:28s} median {median:12.6g} {unit:8s} n={len(values)}  "
                  f"spread {spread:8.4f}  bound {bound}  {verdict}")
        report[workload] = {"runs": results, "summary": summary}
    if args.json:
        path = Path(args.json)
        stored = json.loads(path.read_text()) if path.is_file() else {}
        stored["per_layer" if args.trace else "end_to_end"] = {
            "run_seconds": args.seconds, "env": env, "workloads": report,
        }
        path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
