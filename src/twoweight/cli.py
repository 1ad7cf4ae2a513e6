"""Command-line entry point.

Subcommands: construct (companion weight table), verify (check suite),
model-check (truncated-model convergence and spectral table), scalar
(inverse-weight pipeline), report (re-render a saved report).

Exit codes: 0 success, 1 check failure, 2 validation or resource error.
All output files are deterministic for fixed inputs and seed and carry a
`#`-prefixed provenance header; the final write is an atomic rename.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
import tempfile

import numpy as np

from . import DEFAULT_SEED, __version__
from .circle import CircleGrid, check_grid_size
from .weights import (FIXTURE_NAMES, fixture, load_weight_spec, normalize,
                      weight_spec_document)

# Each handler imports the layers it runs when it runs, so starting the CLI
# loads only the parser's modules (circle and weights) and construct never
# loads hardy, model or verify.

MODEL_POINTS = (0.3 + 0.0j, -0.2 + 0.35j, 0.45j)
DEFAULT_GRID_SIZE = 256


def _fmt(x) -> str:
    return format(float(x), ".17e")


# -- CSV tables ---------------------------------------------------------------
#
# A table is written in blocks of rows, each rendered by numpy into one
# (rows, cols, _WORDS) array of little-endian 4-byte words whose zero bytes
# are dropped at the end; each cell ends in a word that holds its separator.
# A float cell holds exactly _fmt(x): for x = 0 and for 1e-5 <= |x| < 1e18 the
# 18 significant digits are N = round-half-even(|x| * 10^(17 - e)), formed
# from the exact product hi + lo of |x| and the exact double 10^(17 - e)
# (Dekker's two-product with Veltkamp splits, Numer. Math. 18, 1971); every
# other float cell (inf, nan, tiny or huge values) is rendered by _fmt itself.

_WORDS = 7  # 28 bytes: the widest text, "-1.00000000000000000e+100", fits in 27
_CELL = 4 * _WORDS
_BLOCK_ROWS = 1024
_POW10 = np.array([float(10 ** p) for p in range(23)])  # exact doubles
# a fast cell is six words: sign (0 or "-") with "d.d" for the first two
# digits, "dddd" for each later four, and "e+dd" for e = -5 .. 17
_LEADS = np.frombuffer(b"".join(b"\0%d.%d" % divmod(i, 10) for i in range(100)), "<u4")
_DIGITS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint32)
_QUADS = (_DIGITS[:, None, None, None] | _DIGITS[:, None, None] << 8
          | _DIGITS[:, None] << 16 | _DIGITS << 24).reshape(-1)  # "%04d" % i, i < 10^4
_EXPONENTS = np.frombuffer(b"".join(b"e%+03d" % e for e in range(-5, 18)), "<u4")


def _split(a: np.ndarray):
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a: np.ndarray, b: np.ndarray):
    """hi + lo == a * b exactly, barring overflow and underflow."""
    hi = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _round_scaled(a: np.ndarray, e: np.ndarray):
    """round-half-even(a * 10^(17 - e)), and the step (-1, 0 or 1) that e
    must take to bring the exact product into [10^17, 10^18); the rounded
    value is 0 where the step is not 0."""
    hi, lo = _two_product(a, _POW10[17 - e])
    low = (hi < 1e17) | ((hi == 1e17) & (lo < 0.0))
    high = (hi > 1e18) | ((hi == 1e18) & (lo >= 0.0))
    ok = ~(low | high)
    # hi is an even integer in range, so rint (half-even) on lo rounds hi + lo
    n = np.where(ok, hi, 0.0).astype(np.int64)
    n += np.where(ok, np.rint(lo), 0.0).astype(np.int64)
    return n, high.astype(np.int64) - low


def _significands(a: np.ndarray):
    """For 1e-5 <= a < 1e18: the 18-digit significand N and the exponent e
    of format(a, ".17e"), and the mask of the values that settled; the
    others need _fmt."""
    e = np.clip(np.floor(np.log10(a)), -5, 17).astype(np.int64)
    n, step = _round_scaled(a, e)
    redo = np.flatnonzero(step)
    for _ in range(2):  # log10 misses floor(log10 a) by at most one
        e[redo] += step[redo]
        redo = redo[(e[redo] >= -5) & (e[redo] <= 17)]
        n[redo], step[redo] = _round_scaled(a[redo], e[redo])
        redo = redo[step[redo] != 0]
    # N = 10^18 would round up into the next decade: left to _fmt
    settled = (step == 0) & (n < 10 ** 18)
    return np.where(settled, n, 0), e, settled


def _float_cells(values: np.ndarray) -> np.ndarray:
    """_fmt of each value as zero-padded ASCII in _WORDS words per value, the
    last word left for the separator byte: shape (values.size, _WORDS)."""
    x = np.asarray(values, dtype=np.float64).ravel()
    ax = np.abs(x)
    fast = (ax >= 1e-5) & (ax < 1e18)
    n, e, settled = _significands(np.where(fast, ax, 1.0))
    zero = x == 0.0
    n[zero] = 0
    e[zero] = 0
    lead = n // 10 ** 16
    rest = n - lead * 10 ** 16
    eights = rest // 10 ** 8
    halves = np.stack([eights, rest - eights * 10 ** 8], axis=1).astype(np.int32)
    groups = np.stack(np.divmod(halves, 10 ** 4), axis=2).reshape(-1, 4)

    cells = np.zeros((x.size, _WORDS), dtype="<u4")
    cells[:, 0] = _LEADS.take(lead)
    cells[:, 0] += np.signbit(x) * np.uint32(ord("-"))
    cells[:, 1:5] = _QUADS.take(groups)
    # lanes that did not settle may hold e outside -5..17; _fmt overwrites them
    cells[:, 5] = _EXPONENTS.take(e + 5, mode="clip")
    slow = ~(fast & settled | zero)
    text = cells.view(np.uint8).reshape(x.size, _CELL)
    text[slow, :-1] = _text_cells([_fmt(v) for v in x[slow].tolist()])
    return cells


def _text_cells(texts) -> np.ndarray:
    """ASCII strings as zero-padded rows of shape (len(texts), _CELL - 1)."""
    cells = np.asarray(texts, dtype=f"S{_CELL - 1}")
    return cells.view(np.uint8).reshape(len(texts), _CELL - 1)


def _csv_rows(columns):
    """Yield the CSV text of equal-length 1-D columns, _BLOCK_ROWS rows at a
    time: float columns as _fmt renders them, integer and bool columns as
    %d, fixed-text (bytes) columns as they are.  Byte for byte the ",".join
    of the per-value strings, one line per row."""
    floats = [j for j, col in enumerate(columns) if col.dtype.kind == "f"]
    others = [j for j, col in enumerate(columns) if col.dtype.kind != "f"]
    rows = len(columns[0])
    for start in range(0, rows, _BLOCK_ROWS):
        stop = min(rows, start + _BLOCK_ROWS)
        cells = np.zeros((stop - start, len(columns), _WORDS), dtype="<u4")
        block = np.stack([columns[j][start:stop] for j in floats], axis=1)
        cells[:, floats] = _float_cells(block).reshape(stop - start, len(floats), _WORDS)
        text = cells.view(np.uint8)
        for j in others:
            values = columns[j][start:stop]
            if values.dtype.kind != "S":
                values = values.astype(np.int64)
            text[:, j, :-1] = _text_cells(values)
        text[:, :-1, -1] = ord(",")
        text[:, -1, -1] = ord("\n")
        flat = text.reshape(-1)
        yield flat[flat != 0].tobytes().decode("ascii")


def _grid_size(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    try:
        return check_grid_size(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _tolerance(text: str):
    # NAME=VALUE overrides one check; a bare VALUE overrides all ("*")
    name, sep, raw = text.partition("=")
    if not sep:
        name, raw = "*", text
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad tolerance {text!r}")
    if not np.isfinite(value) or value < 0.0:
        raise argparse.ArgumentTypeError("tolerance must be finite and >= 0")
    return name, value


def _atomic_write(path: str, chunks) -> None:
    """Write the strings of `chunks` in order; `chunks` may be a generator, so
    a large table is never held in memory as one string."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".twoweight-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _provenance(command: str, source: str, digest: str, params: dict) -> str:
    lines = [
        f"# twoweight {__version__}",
        f"# command: {command}",
        f"# input: {source}",
        f"# input-sha256: {digest}",
    ]
    for key in sorted(params):
        lines.append(f"# {key}: {params[key]}")
    return "\n".join(lines) + "\n"


def _load_weight(args):
    """Resolve --weight-spec / --fixture to (weight, source, sha256)."""
    if getattr(args, "weight_spec", None):
        with open(args.weight_spec, "rb") as fh:
            blob = fh.read()
        weight = load_weight_spec(args.weight_spec)
        return weight, args.weight_spec, hashlib.sha256(blob).hexdigest()
    weight = fixture(args.fixture)
    doc = json.dumps(weight_spec_document(weight), sort_keys=True).encode()
    return weight, f"fixture:{args.fixture}", hashlib.sha256(doc).hexdigest()


# -- construct ----------------------------------------------------------------

def _cmd_construct(args) -> int:
    from .debranges import build_system, nondegeneracy_report

    weight, source, digest = _load_weight(args)
    weight = normalize(weight)
    system = build_system(weight)
    result = system.companion_weight(CircleGrid(args.grid_size))
    ndg = nondegeneracy_report(system, result)
    k = system.dim
    header = _provenance("construct", source, digest, {
        "grid-size": args.grid_size,
        "dim": k,
        "deficit": _fmt(result.deficit),
        "flagged-count": int(result.singular_flags.sum()),
        "rank-mismatches": ndg.rank_mismatches,
        "bound-violations": ndg.bound_violations,
    })
    cols = ["theta", "flag", "cond"]
    for i in range(k):
        for j in range(k):
            cols.extend([f"w1_{i}{j}_re", f"w1_{i}{j}_im"])
    # per node: Re and Im of w1_ij, row-major in (i, j)
    w1 = result.w1.values.reshape(-1, k * k)
    parts = np.stack([w1.real, w1.imag], axis=-1).reshape(w1.shape[0], -1)
    columns = [result.grid.nodes, result.singular_flags, result.cond_profile, *parts.T]
    _atomic_write(args.out, itertools.chain([header + ",".join(cols) + "\n"],
                                            _csv_rows(columns)))
    return 0


# -- verify --------------------------------------------------------------------

def _cmd_verify(args) -> int:
    from .verify import SuiteConfig, run_suite, run_weight_checks

    tolerances = dict(args.tolerance or [])
    if args.weight_spec:
        if args.grid_size is not None or args.random_weights is not None:
            raise ValueError("--grid-size and --random-weights apply to --fixtures only: "
                             "--weight-spec sizes its grid from the weight's degree")
        with open(args.weight_spec, "rb") as fh:
            blob = fh.read()
        weight = load_weight_spec(args.weight_spec)
        source, digest = args.weight_spec, hashlib.sha256(blob).hexdigest()
        report = run_weight_checks(weight, seed=args.seed, tolerances=tolerances)
        params = {"seed": args.seed, "mode": "weight-spec"}
    else:
        # an option left out keeps SuiteConfig's default
        given = {"grid_size": args.grid_size, "random_weights": args.random_weights}
        config = SuiteConfig(seed=args.seed, tolerances=tolerances,
                             **{key: value for key, value in given.items() if value is not None})
        report = run_suite(config)
        doc = json.dumps([weight_spec_document(fixture(n))
                          for n in config.fixtures], sort_keys=True).encode()
        source, digest = "fixtures", hashlib.sha256(doc).hexdigest()
        params = {"seed": args.seed, "mode": "fixtures",
                  "grid-size": config.grid_size,
                  "random-weights": config.random_weights}
    header = _provenance("verify", source, digest, params)
    _atomic_write(args.report, [header, report.to_text()])
    if args.summary:
        sys.stdout.write(report.summary())
    return 0 if report.passed else 1


# -- model-check ----------------------------------------------------------------

def _cmd_model_check(args) -> int:
    from .debranges import build_system
    from .model import build_model, cross_validate, spectral_nu1

    weight, source, digest = _load_weight(args)
    weight = normalize(weight)
    system = build_system(weight)
    sizes = sorted(set(args.modes))
    models = [build_model(weight, size) for size in sizes]
    table = cross_validate(system, MODEL_POINTS, models)
    measures = [spectral_nu1(model) for model in models]
    params = {"modes": " ".join(str(m) for m in sizes), "dim": system.dim}
    for size, measure in zip(sizes, measures):
        trace_total = float(np.trace(measure.total_mass()).real)
        params[f"spectral-trace[{size}]"] = _fmt(trace_total)
    header = _provenance("model-check", source, digest, params)
    legend = ("# legend: xval rows a=Re z, b=Im z, value=|psi1_model-psi1|;"
              " spectral rows a=angle, b=0, value=trace mass\n")
    # xval rows by probe point, then by size; then spectral rows by size
    xval = np.repeat(table.zs, len(sizes))
    counts = [measure.angles.size for measure in measures]
    columns = [
        np.repeat([b"xval", b"spectral"], [xval.size, sum(counts)]),
        np.concatenate([np.tile(sizes, table.zs.size), np.repeat(sizes, counts)]),
        np.concatenate([xval.real, *(measure.angles for measure in measures)]),
        np.concatenate([xval.imag, np.zeros(sum(counts))]),
        np.concatenate([table.errors.ravel(),
                        *(measure.trace_masses() for measure in measures)]),
    ]
    _atomic_write(args.out, itertools.chain([header, legend, "kind,size,a,b,value\n"],
                                            _csv_rows(columns)))
    return 0


# -- scalar ----------------------------------------------------------------------

def _scalar_input(args):
    if args.samples:
        if args.grid_size is not None:
            raise ValueError("--grid-size applies to --preset only: "
                             "--samples takes its grid from the sample count")
        with open(args.samples, "rb") as fh:
            blob = fh.read()
        data = json.loads(blob.decode())
        # JSON true and false load as bool, a subclass of int: not values
        if not isinstance(data, list) or not all(
                isinstance(x, (int, float)) and not isinstance(x, bool) for x in data):
            raise ValueError("samples file must hold a flat list of values")
        v0 = np.asarray(data, dtype=float)
        grid = CircleGrid(check_grid_size(v0.size))
        return v0, grid, args.samples, hashlib.sha256(blob).hexdigest()
    grid = CircleGrid(args.grid_size or DEFAULT_GRID_SIZE)
    if args.preset == "inverse-cos":
        with np.errstate(divide="ignore"):
            v0 = 1.0 / (1.0 + np.cos(grid.nodes))
    else:
        v0 = np.ones(grid.size)
    source = f"preset:{args.preset}:{grid.size}"
    return v0, grid, source, hashlib.sha256(source.encode()).hexdigest()


def _cmd_scalar(args) -> int:
    from .koosis import koosis_pipeline

    v0, grid, source, digest = _scalar_input(args)
    result = koosis_pipeline(v0, grid, seed=args.seed, basis_size=args.basis_size)
    params = {"seed": args.seed, "basis-size": args.basis_size,
              "grid-size": grid.size}
    for key in sorted(result.diagnostics):
        value = result.diagnostics[key]
        params[key] = _fmt(value) if isinstance(value, float) else value
    header = _provenance("scalar", source, digest, params)
    columns = [grid.nodes, result.v0, result.v1, result.flags]
    _atomic_write(args.out, itertools.chain([header, "theta,v0,v1,flag\n"],
                                            _csv_rows(columns)))
    return 0


# -- report ----------------------------------------------------------------------

def _cmd_report(args) -> int:
    from .verify import parse_report

    with open(args.path) as fh:
        text = fh.read()
    if "status=" not in text:
        raise ValueError("not a report file: missing status line")
    rep = parse_report(text)
    sys.stdout.write(rep.summary())
    return 0 if rep.passed else 1


# -- wiring ----------------------------------------------------------------------

def _add_weight_source(parser, required: bool = True):
    group = parser.add_mutually_exclusive_group(required=required)
    group.add_argument("--weight-spec", help="path to a weight spec (JSON)")
    group.add_argument("--fixture", choices=FIXTURE_NAMES,
                       help="use a built-in fixture")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twoweight",
        description="companion-weight construction and verification tools")
    parser.add_argument("--version", action="version",
                        version=f"twoweight {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("construct", help="build the companion weight table")
    _add_weight_source(p)
    p.add_argument("--grid-size", "-M", type=_grid_size, default=DEFAULT_GRID_SIZE)
    p.add_argument("--out", "-o", default="companion.csv")
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("verify", help="run the check suite")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--weight-spec", help="check a user-supplied weight")
    group.add_argument("--fixtures", action="store_true",
                       help="run the full built-in suite")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--grid-size", "-M", type=_grid_size,
                   help="--fixtures only (default 256)")
    p.add_argument("--random-weights", type=int, help="--fixtures only (default 3)")
    p.add_argument("--tolerance", "-t", type=_tolerance, action="append",
                   metavar="[NAME=]VALUE", help="override check tolerances")
    p.add_argument("--report", "-o", default="report.txt")
    p.add_argument("--summary", action="store_true",
                   help="print the human-readable table to stdout")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("model-check",
                       help="truncated-model convergence and spectral table")
    _add_weight_source(p)
    p.add_argument("--modes", type=_grid_size, nargs="+",
                   default=[64, 128, 256])
    p.add_argument("--out", "-o", default="model.csv")
    p.set_defaults(handler=_cmd_model_check)

    p = sub.add_parser("scalar", help="inverse-weight companion pipeline")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=("inverse-cos", "const"))
    group.add_argument("--samples", help="JSON file with scalar samples")
    p.add_argument("--grid-size", "-M", type=_grid_size,
                   help=f"--preset only (default {DEFAULT_GRID_SIZE})")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--basis-size", type=int, default=12)
    p.add_argument("--out", "-o", default="scalar.csv")
    p.set_defaults(handler=_cmd_scalar)

    p = sub.add_parser("report", help="re-render a saved report")
    p.add_argument("path")
    p.set_defaults(handler=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
