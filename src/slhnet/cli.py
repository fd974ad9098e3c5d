"""Command-line front end for QNET files.

    qnet check model.qnet
    qnet reduce network.qnet -o reduced.qnet
    qnet tf model.qnet --s 0.5,0.0
    qnet freqresp model.qnet --grid -5:5:101 -o response.csv
    qnet series stage1.qnet stage2.qnet
    qnet star left.qnet right.qnet --channels 1
    qnet strat2ito generators.txt
    qnet ito2strat triple.txt

Data goes to stdout (or --output), diagnostics to stderr.  Exit codes:
0 success, 1 validation failure, 2 parse error, 3 algebraic loop or
singularity, 4 usage error.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

import numpy as np

from . import matkit
from .netfile import (ParseError, build_partitioned, component_document,
                      format_cnum, format_matrix,
                      format_matrix_assignments, format_table, parse,
                      parse_matrix_assignments, serialize)
from .network import AlgebraicLoop, DimensionMismatch, OutsideDomain, \
    feedback_reduce, redheffer_star, series_product
from .slh import LinearComponent, validate
from .stratcal import CayleySingular, StratonovichModel, ito_table_residuals, \
    ito_to_strat, strat_to_ito
from .transfer import SIGMA_MIN, SingularAtS, eval_transfer, freq_response

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_SINGULAR = 3
EXIT_USAGE = 4

# glibc's mallopt parameters (<malloc.h>) and the values main() fixes them at
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20    # the top of glibc's range for it, where its dynamic rule stops
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


class UsageError(Exception):
    pass


class ModelInvalid(Exception):
    """Input model fails its validity invariants."""


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that reports usage problems through our exit-code scheme."""

    def error(self, message):
        raise UsageError(message)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _emit(path: str | None, *texts: str):
    """Write the texts one after another, so that a long one is never copied to join it."""
    if path is None or path == "-":
        for text in texts:
            sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for text in texts:
                fh.write(text)


def _load_model(path: str) -> LinearComponent:
    """The model a file denotes: the reduced network, or its sole component."""
    doc = parse(_read_text(path))
    if doc.instances:
        return feedback_reduce(build_partitioned(doc))
    if len(doc.components) == 1:
        return next(iter(doc.components.values()))
    raise UsageError(
        f"{path}: defines {len(doc.components)} components but no network block")


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must be start:stop:count, got {spec!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad grid {spec!r}: {exc}") from exc
    if count < 1:
        raise UsageError("grid count must be >= 1")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            grid = np.linspace(start, stop, count)
    except MemoryError as exc:
        raise UsageError(f"grid of {count} points does not fit in memory") from exc
    if not np.all(np.isfinite(grid)):
        raise UsageError(f"grid {spec!r} has non-finite points")
    return grid


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative number, got {text!r}")
    return value


def _parse_s(spec: str) -> complex:
    parts = spec.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected RE,IM, got {spec!r}")
    return complex(_finite_float(parts[0]), _finite_float(parts[1]))


# ---------------------------------------------------------------------------
# commands

def _cmd_check(args) -> int:
    doc = parse(_read_text(args.file))
    ok = True
    lines = []
    for name, comp in doc.components.items():
        report = validate(comp, tol=args.tol)
        lines.append(f"component {name}: {report}")
        ok = ok and report.ok
    if not doc.components:
        lines.append("no components defined")
    _emit(args.output, "\n".join(lines) + "\n")
    return EXIT_OK if ok else EXIT_INVALID


def _cmd_reduce(args) -> int:
    reduced = _load_model(args.file)
    texts = [serialize(component_document("reduced", reduced))]
    if reduced.C.size:
        # coupling phases are gauge; report magnitudes for comparisons.
        # np.hypot is libm's hypot, as Python's abs(complex) is; np.abs of
        # a complex array differs from both in the last bit.
        mags = np.hypot(reduced.C.real, reduced.C.imag)
        texts.append(f"# |C| = {format_matrix(mags)}\n")
    _emit(args.output, *texts)
    return EXIT_OK


def _cmd_tf(args) -> int:
    comp = _load_model(args.file)
    ev = eval_transfer(comp, args.s)
    out = [f"# s = {format_cnum(ev.s)}",
           format_matrix_assignments([("Xi", ev.Xi), ("xi", ev.xi)]).rstrip("\n")]
    _emit(args.output, "\n".join(out) + "\n")
    return EXIT_OK


def _cmd_freqresp(args) -> int:
    comp = _load_model(args.file)
    omegas = _parse_grid(args.grid)
    n = comp.n_ports
    labels = ["omega"]
    for i in range(n):
        for j in range(n):
            labels.append(f"re(Xi[{i},{j}])")
            labels.append(f"im(Xi[{i},{j}])")
    labels.append("unitarity_residual")
    # labels contain commas, so header cells are CSV-quoted
    header = ",".join(c if "," not in c else f'"{c}"' for c in labels)
    Xi, _, singular = freq_response(comp, omegas, sigma=args.sigma)
    # one row per point: omega, re/im of Xi in row order, then the residual;
    # a pole's row reads NA after omega
    table = np.column_stack([omegas, Xi.view(np.float64).reshape(len(Xi), 2 * n * n),
                             matkit.gram_residual(Xi)])
    _emit(args.output, header + "\n", format_table(table, singular))
    return EXIT_OK


def _cmd_series(args) -> int:
    upstream = _load_model(args.first)
    downstream = _load_model(args.second)
    combined = series_product(downstream, upstream)
    _emit(args.output, serialize(component_document("series", combined)))
    return EXIT_OK


def _cmd_star(args) -> int:
    a = _load_model(args.first)
    b = _load_model(args.second)
    combined = redheffer_star(a, b, args.channels)
    _emit(args.output, serialize(component_document("star", combined)))
    return EXIT_OK


def _require_keys(found: dict, wanted: tuple[str, ...], path: str) -> None:
    missing = [k for k in wanted if k not in found]
    extra = [k for k in found if k not in wanted]
    if missing or extra:
        raise UsageError(
            f"{path}: expected assignments {', '.join(wanted)};"
            + (f" missing {', '.join(missing)}" if missing else "")
            + (f" unexpected {', '.join(extra)}" if extra else ""))


def _residual_comment(sm: StratonovichModel, comp: LinearComponent) -> str:
    return f"# residuals: {ito_table_residuals(sm, comp)}\n"


def _cmd_strat2ito(args) -> int:
    found = parse_matrix_assignments(_read_text(args.file))
    _require_keys(found, ("E", "F", "K"), args.file)
    E, F, K = found["E"], found["F"], found["K"]
    sm = StratonovichModel(E=E, F=F, K=K)
    comp = strat_to_ito(sm)
    out = format_matrix_assignments(
        [("S", comp.S), ("C", comp.C), ("Omega", comp.Omega)])
    _emit(args.output, out, _residual_comment(sm, comp))
    return EXIT_OK


def _cmd_ito2strat(args) -> int:
    found = parse_matrix_assignments(_read_text(args.file))
    _require_keys(found, ("S", "C", "Omega"), args.file)
    S, C, Omega = found["S"], found["C"], found["Omega"]
    comp = LinearComponent(S, C, Omega)
    report = validate(comp)
    if not report.ok:
        raise ModelInvalid(str(report))
    sm = ito_to_strat(comp)
    out = format_matrix_assignments([("E", sm.E), ("F", sm.F), ("K", sm.K)])
    _emit(args.output, out, _residual_comment(sm, comp))
    return EXIT_OK


# ---------------------------------------------------------------------------
# driver

@functools.cache
def _build_parser() -> _ArgumentParser:
    """The qnet parser, built once per process: parsing leaves it unchanged."""
    parser = _ArgumentParser(prog="qnet",
                             description="Linear quantum network toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        # let values like "-5:5:101" or "-1,0" follow --grid / --s
        p._negative_number_matcher = re.compile(r"^-\d")
        p.set_defaults(func=func)
        p.add_argument("--output", "-o", default=None,
                       help="write data here instead of stdout")
        return p

    p = add("check", _cmd_check, "validate the components of a QNET file")
    p.add_argument("file")
    p.add_argument("--tol", type=_tolerance, default=matkit.STRUCT_TOL,
                   help="structural tolerance (default 1e-9)")

    p = add("reduce", _cmd_reduce, "eliminate internal channels of a network")
    p.add_argument("file")

    p = add("tf", _cmd_tf, "evaluate the transfer matrices at one point")
    p.add_argument("file")
    p.add_argument("--s", required=True, type=_parse_s,
                   help="Laplace point as RE,IM")

    p = add("freqresp", _cmd_freqresp, "CSV frequency response on a grid")
    p.add_argument("file")
    p.add_argument("--grid", required=True, help="omega grid as start:stop:count")
    p.add_argument("--sigma", type=_finite_float, default=SIGMA_MIN,
                   help="right-half-plane offset used for 0+ (default 1e-10)")

    p = add("series", _cmd_series, "series composition: first feeds second")
    p.add_argument("first")
    p.add_argument("second")

    p = add("star", _cmd_star, "Redheffer star composition of two files")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--channels", type=int, required=True,
                   help="number of crossed internal channels")

    p = add("strat2ito", _cmd_strat2ito, "convert (E, F, K) generators to (S, C, Omega)")
    p.add_argument("file")

    p = add("ito2strat", _cmd_ito2strat, "convert (S, C, Omega) to (E, F, K) generators")
    p.add_argument("file")
    return parser


@functools.cache
def _fix_heap_thresholds() -> None:
    """Keep a command's arrays of up to 32 MiB in the heap from one call to the next.

    By default glibc maps each block over a threshold that starts at 128 KiB
    and rises to the largest mapped block freed so far, and gives the top of
    the heap back to the system once more than twice that threshold is free
    there.  A sweep's or a reduction's arrays, a few hundred KiB to a few
    MiB, are then mapped, or the heap regrown, and their pages faulted in
    again on every command, as many as the process's earlier allocations
    happen to decide.  Fixed thresholds make that cost small and the same in
    every process.  Does nothing where the C library has no mallopt.
    """
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def main(argv=None) -> int:
    _fix_heap_thresholds()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        if exc.snippet:
            print(f"  {exc.snippet}", file=sys.stderr)
            print("  " + " " * (exc.column - 1) + "^", file=sys.stderr)
        return EXIT_PARSE
    except (AlgebraicLoop, SingularAtS, CayleySingular, OutsideDomain,
            matkit.SingularMatrix) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except (ModelInvalid, DimensionMismatch, ValueError) as exc:
        print(f"invalid model: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
