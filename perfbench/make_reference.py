"""Write the reference outputs that the default seed is checked against.

    python3 perfbench/make_reference.py

Runs every workload once at the default seed through `nltomo run` and stores
each output file xz-compressed under `perfbench/reference/<workload>/`.
Only regenerate them from a commit whose outputs are known to be right.
"""

from __future__ import annotations

import contextlib
import io
import lzma
import shutil
import sys

import run as bench
import verify
import workloads


def main() -> int:
    nl = bench.import_program()
    work = bench.WORK / "reference"
    try:
        for name in workloads.WORKLOADS:
            configs = workloads.write_configs(name, workloads.DEFAULT_SEED, work / "cfg", work / "out")
            target = bench.REFERENCE / name
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            for run, cfg in configs:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = nl.cli.main(["run", str(cfg)])
                if code != 0:
                    print(f"error: {run.name} exited with {code}", file=sys.stderr)
                    return 1
                for out in verify.expected_outputs(run):
                    data = (work / "out" / out).read_bytes()
                    (target / f"{out}.xz").write_bytes(lzma.compress(data, preset=9 | lzma.PRESET_EXTREME))
                print(f"{name}: {run.name}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            bench.WORK.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
