"""Command-line interface.

    nltomo run <config-file>
    nltomo preset <name> [--out DIR]   (or: nltomo preset --list)
    nltomo converge <config-file> --dims 40,50,60
    nltomo oracle <config-file> [--samples N]

Exit codes: 0 success, 2 validation failure (bad config / arguments),
3 numerical-invariant failure (including a failing oracle comparison).

Each command runs on one OpenBLAS thread and gives the caller its thread
count back when it returns.  The products are small (dim <= 100), so a
second thread buys no wall time but spins beside each one, and the bits of
a product may depend on the thread count.  No setting changes this: the
environment's OPENBLAS_NUM_THREADS is not read.  Library calls
(``run_experiment``, ``run_preset``, ...) keep the caller's threading, and
where no OpenBLAS is loaded (MKL, Accelerate, no /proc/self/maps) the
commands do too.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import itertools
import sys
from collections.abc import Callable

from .config import config_from_file
from .errors import NumericalInvariantError, ValidationError
from .presets import preset_description, preset_names, run_preset
from .runner import convergence_sweep, oracle_report, run_experiment

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INVARIANT = 3


@functools.cache
def _openblas_threads() -> tuple[tuple[Callable[[], int], Callable[[int], None]], ...]:
    """(get, set) thread-count functions of each OpenBLAS the process has
    loaded, looked up once; numpy's is loaded with this package."""
    try:
        with open("/proc/self/maps") as maps:
            lines = [line for line in maps if "openblas" in line]
    except OSError:
        return ()
    paths = sorted({line.split(maxsplit=5)[-1].strip() for line in lines})
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in itertools.product(("scipy_openblas", "openblas"), ("64_", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                found.append((get, put))
                break
    return tuple(found)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread, then restore the caller's counts."""
    threads = _openblas_threads()
    counts = [get() for get, _ in threads]
    for _, put in threads:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(threads, counts):
            put(count)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="nltomo",
        description=(
            "Nonclassicality quantifiers (tomographic entropy sum and "
            "nonclassical area) for bosonic states evolving in Kerr and "
            "cubic nonlinear media with amplitude or phase damping."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a key=value config file")
    p_run.add_argument("config", help="path to the config file")

    p_preset = sub.add_parser("preset", help="run a bundled preset (or list them)")
    p_preset.add_argument("name", nargs="?", help="preset name, e.g. fig1")
    p_preset.add_argument("--out", help="output directory (default nltomo_out/<name>)")
    p_preset.add_argument("--list", action="store_true", help="list available presets")

    p_conv = sub.add_parser(
        "converge", help="compare quantifiers across truncation dimensions"
    )
    p_conv.add_argument("config", help="path to the config file")
    p_conv.add_argument(
        "--dims",
        required=True,
        help="comma-separated truncation dimensions, e.g. 40,50,60",
    )

    p_oracle = sub.add_parser(
        "oracle",
        help="cross-check the configured propagator against a dense exp(tL) reference "
        "(and, under amplitude damping, the per-block exponential at full dim)",
    )
    p_oracle.add_argument("config", help="path to the config file")
    p_oracle.add_argument(
        "--samples", type=int, default=9, help="number of probe times (default 9)"
    )
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = config_from_file(args.config)
    result = run_experiment(cfg)
    for path in filter(None, [result.csv_path, result.minima_path, *result.dump_paths]):
        print(path)
    return EXIT_OK


def _cmd_preset(args: argparse.Namespace) -> int:
    if args.list:
        for name in preset_names():
            print(f"{name:7s} {preset_description(name)}")
        return EXIT_OK
    if args.name is None:
        raise ValidationError("preset: give a name or --list")
    results = run_preset(args.name, args.out)
    for result in results:
        for path in filter(
            None,
            [result.config_path, result.csv_path, result.minima_path, *result.dump_paths],
        ):
            print(path)
    return EXIT_OK


def _cmd_converge(args: argparse.Namespace) -> int:
    cfg = config_from_file(args.config)
    try:
        dims = [int(tok) for tok in args.dims.split(",") if tok.strip()]
    except ValueError:
        raise ValidationError(f"--dims must be comma-separated integers, got {args.dims!r}") from None
    report = convergence_sweep(cfg, dims)
    sys.stdout.write(report.text)
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    cfg = config_from_file(args.config)
    report = oracle_report(cfg, samples=args.samples)
    sys.stdout.write(report.text)
    return EXIT_OK if report.passed else EXIT_INVARIANT


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "preset": _cmd_preset,
        "converge": _cmd_converge,
        "oracle": _cmd_oracle,
    }
    try:
        with _one_blas_thread():
            return handlers[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalInvariantError as exc:
        print(f"numerical invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
