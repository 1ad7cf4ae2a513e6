#!/usr/bin/env python3
"""Benchmark of the twoweight command line, driven in-process.

    python3 bench/run.py --workload {construct,verify,model,sampled} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  One process per run: it generates
the workload's inputs from the seed (workloads.py), times set-up on fresh
interpreters, then calls `twoweight.cli.main(argv)` in a closed loop with one
client, one pass over the workload's operations after another, while at
least half of the next pass is expected to fit in S seconds (two passes at
least).  Outputs are checked against independent oracles (oracle.py) outside
the timed window, and every later pass must reproduce the first pass's
bytes.  Failure probes (valid inputs on which the program fails today) run
once, after the timed passes.

End-to-end metrics (--trace 0):
  wall_s           median pass time
  setup_s          median time for a fresh interpreter to import twoweight.cli
  peak_rss_mb      peak resident memory of the run's process
  success_rate     operations that never failed (nonzero exit, oracle
                   rejection or changed bytes) over all operations, probes
                   included; the complement of an error rate, kept nonzero
  accuracy_digits  -log10 of the worst oracle error; on verify, of the
                   suite's closed-form companion entries

--trace 1 spends half the time on untraced passes and half on traced ones
(tracing.py) and reports the per-layer metrics of BENCHMARK.json.  The last
line of stdout is the result as JSON; the lines before it give the
environment, each operation's outcome, the error rate and, in traced runs,
the cross-check against the ROADMAP.md baseline and the self-time
reconciliation.  The run record (and in traced runs every span) is written
under .bench_run/results/.  Exit code 2, with no result, when the checkout
holds no twoweight sources.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import gzip
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")

SETUP_REPEATS = 3
BLAS_THREADS = 1
MIN_PASSES = 2
ACCURACY_FLOOR = 1e-16
IMPORT_CHILD = ("import time; t = time.perf_counter(); import twoweight.cli; "
                "print(time.perf_counter() - t)")
IMPORT_PACKAGES = ("numpy", "scipy", "twoweight")
SANDBOX_NOTE = ("no CPU pinning, page-cache dropping or CPU frequency control: the "
                "benchmark runs unprivileged, next to whatever else loads the machine")
# baseline recorded in ROADMAP.md (2-core box, OpenBLAS), in s or as a share
BASELINE = {
    "import total": 0.56,
    "import scipy": 0.33,
    "companion_weight k=4 M=4096": 0.221,
    "companion_weight k=4 M=8192": 0.506,
    "hilbert_quadrature share of verify": 5.1 / 9.4,
    "spectral_nu1 M=512": 1.15,
    "spectral_nu1 M=1024": 4.4,
}


def _pin_blas_threads() -> None:
    # one BLAS thread: on a shared 2-core box a second thread makes pass
    # times spread several times wider.  Set before numpy loads OpenBLAS;
    # the setup interpreters inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _blas_record() -> dict:
    import numpy as np
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def environment(load_start) -> dict:
    import numpy as np
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": _blas_record(),
        "load_average_start": [round(x, 2) for x in load_start],
        "sandbox": SANDBOX_NOTE,
    }


# -- set-up time ------------------------------------------------------------------

def _import_child(breakdown: bool):
    cmd = [sys.executable, *(["-X", "importtime"] if breakdown else []), "-c", IMPORT_CHILD]
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    return float(done.stdout.strip()), _import_breakdown(done.stderr)


def _import_breakdown(log: str) -> dict:
    """Seconds spent importing each of IMPORT_PACKAGES, from `-X importtime`
    output.  Everything imported inside the first import of numpy or scipy
    counts for that package (the numpy submodules that only scipy loads
    count for scipy); the rest inside twoweight counts for twoweight."""
    # lines come in post-order: "import time: self [us] | cumulative | name",
    # with two spaces of indent per nesting level in the name
    pending = []
    for line in log.splitlines():
        fields = line[len("import time:"):].split("|")
        if not line.startswith("import time:") or not fields[0].strip().isdigit():
            continue
        name = fields[2].rstrip()
        level = (len(name) - len(name.lstrip())) // 2
        node = (int(fields[0]) * 1e-6, name.strip().split(".", 1)[0], [])
        while pending and pending[-1][0] > level:
            node[2].append(pending.pop()[1])
        pending.append((level, node))
    parts = dict.fromkeys(IMPORT_PACKAGES, 0.0)

    def attribute(node, owner):
        seconds, package, children = node
        if owner not in ("numpy", "scipy") and package in parts:
            owner = package
        if owner is not None:
            parts[owner] += seconds
        for child in children:
            attribute(child, owner)

    for _, root in pending:
        attribute(root, None)
    return parts


def measure_setup(breakdown: bool):
    """Median over fresh interpreters of the time to import twoweight.cli,
    after one untimed import that compiles the bytecode."""
    _import_child(False)
    totals, parts = [], []
    for _ in range(SETUP_REPEATS):
        total, part = _import_child(breakdown)
        totals.append(total)
        parts.append(part)
    medians = {f"import.{p}_s": statistics.median(x[p] for x in parts)
               for p in IMPORT_PACKAGES}
    return statistics.median(totals), medians


# -- timed passes -----------------------------------------------------------------

class Runner:
    """Runs passes over a workload's operations and keeps every outcome."""

    def __init__(self, cli, ops):
        self.cli = cli
        self.ops = ops
        self.digests = {}
        self.outcomes = {}
        self.failures = {op.name: [] for op in ops}
        self.attempted = 0
        self.passes = 0
        self.bytes_written = 0

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(argv)
            except Exception:  # an escaped exception is a failed operation
                rc = None
                err.write(traceback.format_exc(limit=2))
        return rc, err.getvalue().strip()

    def run_pass(self, tracer=None) -> float:
        results = []
        start = time.perf_counter()
        for op in self.ops:
            if tracer is not None:
                tracer.operation = f"pass{self.passes}/{op.name}"
            results.append(self.call(op.argv))
        wall = time.perf_counter() - start
        self.passes += 1
        self.bytes_written = 0
        for op, (rc, message) in zip(self.ops, results):
            self.attempted += 1
            if rc != 0:
                last = message.splitlines()[-1] if message else ""
                self.failures[op.name].append(f"exit {rc}: {last}")
                continue
            digest = hashlib.sha256()
            for path in op.outputs:
                with open(path, "rb") as fh:
                    blob = fh.read()
                digest.update(blob)
                self.bytes_written += len(blob)
            if op.name not in self.outcomes:
                self.outcomes[op.name] = op.check()
                self.digests[op.name] = digest.hexdigest()
            if digest.hexdigest() != self.digests[op.name]:
                self.failures[op.name].append("output differs from the first pass")
            elif not self.outcomes[op.name].ok:
                self.failures[op.name].append("oracle: " + self.outcomes[op.name].detail)
        return wall

    def run_until(self, deadline: float, min_passes: int, tracer=None) -> list:
        """Passes while at least half of the next one is expected to fit
        before the deadline."""
        walls = []
        while (len(walls) < min_passes
               or time.perf_counter() + statistics.median(walls) / 2 <= deadline):
            walls.append(self.run_pass(tracer))
        return walls

    @property
    def failed(self) -> int:
        return sum(len(v) for v in self.failures.values())


def run_probes(runner: Runner, probes) -> list:
    rows = []
    for probe in probes:
        rc, message = runner.call(probe.argv)
        # a failing verify exits 1 and still writes its report
        written = rc is not None and all(os.path.exists(p) for p in probe.outputs)
        outcome = probe.check() if written else None
        ok = rc == 0 and outcome.ok
        last = message.splitlines()[-1] if message else ""
        rows.append({"name": probe.name, "ok": ok, "exit": rc, "message": last,
                     "detail": outcome.detail if outcome else ""})
    return rows


# -- reporting --------------------------------------------------------------------

def _median_dict(dicts) -> dict:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def baseline_check(workload, spans, layers, traced_wall, setup_parts, setup_total):
    import tracing
    measured = {"import total": setup_total, "import scipy": setup_parts["import.scipy_s"]}
    if workload == "construct":
        for m in (4096, 8192):
            durations = tracing.span_durations(
                spans, "debranges.DeBrangesSystem.companion_weight", M=m, k=4)
            measured[f"companion_weight k=4 M={m}"] = statistics.median(durations)
    if workload == "verify":
        measured["hilbert_quadrature share of verify"] = \
            layers["hardy.hilbert_quadrature_s"] / traced_wall
    if workload == "model":
        for m in (512, 1024):
            durations = tracing.span_durations(spans, "model.spectral_nu1", M=m, k=1)
            measured[f"spectral_nu1 M={m}"] = statistics.median(durations)
    rows = []
    for item, value in measured.items():
        base = BASELINE[item]
        rows.append({"item": item, "measured": value, "roadmap": base,
                     "difference": value - base, "ratio": value / base})
    return rows


def metric_block(names_units, values) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in names_units}


def traced_passes(runner: Runner, deadline: float):
    """Passes with every library call traced, until the deadline (at least
    one).  Returns the pass walls, per-pass layer metrics and all spans."""
    import tracing
    from twoweight import debranges
    # companion extraction inverts one k x k block per node on each ladder rung
    rungs = getattr(debranges, "LADDER_HI", -1) - getattr(debranges, "LADDER_LO", 0) + 1
    tracer = tracing.Tracer()
    walls, passes = [], []
    tracer.install()
    try:
        while not walls or time.perf_counter() + statistics.median(walls) / 2 <= deadline:
            first = len(tracer.spans)
            walls.append(runner.run_pass(tracer))
            pass_spans = tracer.spans[first:]
            layers = tracing.layer_metrics(pass_spans, rungs)
            layers["cli.bytes_written"] = runner.bytes_written
            passes.append((layers, pass_spans, walls[-1]))
    finally:
        tracer.uninstall()
    return walls, passes, tracer.spans


def trace_report(args, spec, values, traced, setup_parts, record) -> dict:
    """Per-layer metrics of a traced run; prints the baseline cross-check and
    the self-time reconciliation and writes the spans."""
    import tracing
    walls, passes, spans = traced
    layers = _median_dict([p[0] for p in passes])
    layers.update(setup_parts)
    traced_wall = statistics.median(walls)
    layers["trace.overhead_s"] = traced_wall - values["wall_s"]

    # self times partition the time inside cli.main: together with the time
    # outside the library they make up the traced pass
    _, one_pass, one_wall = sorted(passes, key=lambda p: p[2])[len(passes) // 2]
    grouped = {n for names in tracing.GROUPS.values() for n in names}
    reported = sum(s[tracing.SELF] for s in one_pass if s[tracing.NAME] in grouped)
    total_self = tracing.self_time_total(one_pass)
    outside = one_wall - tracing.root_time_total(one_pass)
    reconcile = {"traced_wall_s": one_wall, "self_reported_layers_s": reported,
                 "self_other_wrapped_s": total_self - reported,
                 "outside_library_s": outside,
                 "residual_s": one_wall - outside - total_self,
                 "trace_overhead_s": layers["trace.overhead_s"]}
    baseline = baseline_check(args.workload, spans, layers, traced_wall,
                              setup_parts, values["setup_s"])
    for row in baseline:
        print("baseline {item}: measured {measured:.4g}, ROADMAP {roadmap:.4g}, "
              "difference {difference:+.4g} (x{ratio:.2f})".format(**row))
    print("self-time check " + json.dumps(reconcile))
    record.update(per_layer=layers, baseline=baseline, reconcile=reconcile,
                  traced_walls=walls)
    spans_path = os.path.join(
        RUN_DIR, "results", f"{args.workload}-seed{args.seed}-spans.jsonl.gz")
    with gzip.open(spans_path, "wt", encoding="utf-8") as fh:
        for row in tracing.span_rows(spans):
            fh.write(json.dumps(row) + "\n")
    return metric_block([(m["name"], m["unit"]) for m in spec["per_layer"]], layers)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("construct", "verify", "model", "sampled"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "twoweight", "cli.py")):
        print(f"error: no twoweight sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    load_start = os.getloadavg()
    _pin_blas_threads()
    sys.path.insert(0, SRC)
    import workloads  # numpy loads here, after the thread pin

    env = environment(load_start)
    print("environment " + json.dumps(env), flush=True)
    setup_total, setup_parts = measure_setup(breakdown=bool(args.trace))

    os.makedirs(os.path.join(RUN_DIR, "results"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=RUN_DIR)
    try:
        workload = workloads.build(args.workload, args.seed, work)
        import twoweight.cli as cli

        runner = Runner(cli, workload.ops)
        start = time.perf_counter()
        # a traced run spends half its time untraced, for trace.overhead_s
        budget = args.seconds / 2 if args.trace else args.seconds
        walls = runner.run_until(start + budget, 1 if args.trace else MIN_PASSES)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced = traced_passes(runner, start + args.seconds) if args.trace else None
        probes = run_probes(runner, workload.probes)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for op in workload.ops:
        outcome = runner.outcomes.get(op.name)
        fails = runner.failures[op.name]
        state = "ok" if not fails else "FAILED " + "; ".join(fails[:3])
        print(f"operation {op.name}: {state}" + (f" ({outcome.detail})" if outcome else ""))
    for row in probes:
        state = "ok" if row["ok"] else \
            f"fails today: exit {row['exit']} {row['message'] or row['detail']}"
        print(f"probe {row['name']}: {state}")
    probe_failures = sum(not p["ok"] for p in probes)
    print(f"error_rate = {(runner.failed + probe_failures) / (runner.attempted + len(probes)):.4g}"
          f" ({runner.failed} of {runner.attempted} timed operations and "
          f"{probe_failures} of {len(probes)} probes failed)")

    errors = [o.error for o in runner.outcomes.values() if o.error is not None]
    succeeded = sum(not f for f in runner.failures.values()) + len(probes) - probe_failures
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": setup_total,
        "peak_rss_mb": peak_rss_mb,
        "success_rate": succeeded / (len(workload.ops) + len(probes)),
        "accuracy_digits": -math.log10(max(max(errors, default=1.0), ACCURACY_FLOOR)),
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "pass_walls": walls,
              "failures": runner.failures, "probes": probes, "end_to_end": values}
    if args.trace:
        metrics = trace_report(args, spec, values, traced, setup_parts, record)
    else:
        metrics = metric_block([(m["name"], m["unit"]) for m in spec["end_to_end"]], values)

    for name, block in metrics.items():
        print(f"metric {name} = {block['value']:.6g} {block['unit']}")
    record_path = os.path.join(
        RUN_DIR, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
