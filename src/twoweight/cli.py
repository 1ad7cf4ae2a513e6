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
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .circle import CircleGrid, check_grid_size
from .debranges import build_system
from .model import SPECTRAL_CAP, build_model, cross_validate, spectral_nu1
from .verify import (DEFAULT_SEED, SuiteConfig, koosis_pipeline,
                     nondegeneracy_report, parse_report, run_suite,
                     run_weight_checks)
from .weights import (FIXTURE_NAMES, fixture, load_weight_spec, normalize,
                      weight_spec_document)

MODEL_POINTS = (0.3 + 0.0j, -0.2 + 0.35j, 0.45j)


def _fmt(x) -> str:
    return format(float(x), ".17e")


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

    def lines():
        yield header + ",".join(cols) + "\n"
        for theta, flag, cond, row in zip(result.grid.nodes.tolist(),
                                          result.singular_flags.tolist(),
                                          result.cond_profile.tolist(),
                                          parts.tolist()):
            yield ",".join([_fmt(theta), str(int(flag)), _fmt(cond),
                            *map(_fmt, row)]) + "\n"

    _atomic_write(args.out, lines())
    return 0


# -- verify --------------------------------------------------------------------

def _cmd_verify(args) -> int:
    tolerances = dict(args.tolerance or [])
    if args.weight_spec:
        with open(args.weight_spec, "rb") as fh:
            blob = fh.read()
        weight = load_weight_spec(args.weight_spec)
        source, digest = args.weight_spec, hashlib.sha256(blob).hexdigest()
        report = run_weight_checks(weight, seed=args.seed, tolerances=tolerances)
        params = {"seed": args.seed, "mode": "weight-spec"}
    else:
        config = SuiteConfig(seed=args.seed, grid_size=args.grid_size,
                             random_weights=args.random_weights,
                             tolerances=tolerances)
        report = run_suite(config)
        doc = json.dumps([weight_spec_document(fixture(n))
                          for n in config.fixtures], sort_keys=True).encode()
        source, digest = "fixtures", hashlib.sha256(doc).hexdigest()
        params = {"seed": args.seed, "mode": "fixtures",
                  "grid-size": args.grid_size,
                  "random-weights": args.random_weights}
    header = _provenance("verify", source, digest, params)
    _atomic_write(args.report, [header, report.to_text()])
    if args.summary:
        sys.stdout.write(report.summary())
    return 0 if report.passed else 1


# -- model-check ----------------------------------------------------------------

def _cmd_model_check(args) -> int:
    weight, source, digest = _load_weight(args)
    weight = normalize(weight)
    system = build_system(weight)
    sizes = sorted(set(args.modes))
    models = [build_model(weight, size) for size in sizes]
    table = cross_validate(system, MODEL_POINTS, models)
    measures = []
    skipped = []
    for model in models:
        if model.size * system.dim <= SPECTRAL_CAP:
            measures.append((model.size, spectral_nu1(model)))
        else:
            skipped.append(model.size)
    params = {"modes": " ".join(str(m) for m in sizes), "dim": system.dim}
    for size, measure in measures:
        trace_total = float(np.trace(measure.total_mass()).real)
        params[f"spectral-trace[{size}]"] = _fmt(trace_total)
    if skipped:
        params["spectral-skipped"] = " ".join(str(m) for m in skipped)
    header = _provenance("model-check", source, digest, params)
    legend = ("# legend: xval rows a=Re z, b=Im z, value=|psi1_model-psi1|;"
              " spectral rows a=angle, b=0, value=trace mass\n")
    rows = ["kind,size,a,b,value"]
    for z, size, err in table.rows():
        rows.append(f"xval,{size},{_fmt(z.real)},{_fmt(z.imag)},{_fmt(err)}")
    for size, measure in measures:
        for omega, mass in measure.rows():
            rows.append(f"spectral,{size},{_fmt(omega)},{_fmt(0.0)},{_fmt(mass)}")
    _atomic_write(args.out, [header, legend, "\n".join(rows), "\n"])
    return 0


# -- scalar ----------------------------------------------------------------------

def _scalar_input(args):
    if args.samples:
        with open(args.samples, "rb") as fh:
            blob = fh.read()
        data = json.loads(blob.decode())
        v0 = np.asarray(data, dtype=float)
        if v0.ndim != 1:
            raise ValueError("samples file must hold a flat list of values")
        grid = CircleGrid(check_grid_size(v0.size))
        return v0, grid, args.samples, hashlib.sha256(blob).hexdigest()
    grid = CircleGrid(args.grid_size)
    if args.preset == "inverse-cos":
        with np.errstate(divide="ignore"):
            v0 = 1.0 / (1.0 + np.cos(grid.nodes))
    else:
        v0 = np.ones(grid.size)
    source = f"preset:{args.preset}:{grid.size}"
    return v0, grid, source, hashlib.sha256(source.encode()).hexdigest()


def _cmd_scalar(args) -> int:
    v0, grid, source, digest = _scalar_input(args)
    result = koosis_pipeline(v0, grid, seed=args.seed, basis_size=args.basis_size)
    params = {"seed": args.seed, "basis-size": args.basis_size,
              "grid-size": grid.size}
    for key in sorted(result.diagnostics):
        value = result.diagnostics[key]
        params[key] = _fmt(value) if isinstance(value, float) else value
    header = _provenance("scalar", source, digest, params)
    rows = ["theta,v0,v1,flag"]
    for idx, theta in enumerate(grid.nodes):
        rows.append(f"{_fmt(theta)},{_fmt(result.v0[idx])},"
                    f"{_fmt(result.v1[idx])},{int(result.flags[idx])}")
    _atomic_write(args.out, [header, "\n".join(rows), "\n"])
    return 0


# -- report ----------------------------------------------------------------------

def _cmd_report(args) -> int:
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
    p.add_argument("--grid-size", "-M", type=_grid_size, default=256)
    p.add_argument("--out", "-o", default="companion.csv")
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("verify", help="run the check suite")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--weight-spec", help="check a user-supplied weight")
    group.add_argument("--fixtures", action="store_true",
                       help="run the full built-in suite")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--grid-size", "-M", type=_grid_size, default=256)
    p.add_argument("--random-weights", type=int, default=3)
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
    p.add_argument("--grid-size", "-M", type=_grid_size, default=256)
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
