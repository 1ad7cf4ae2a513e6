import multiprocessing
import os
import re
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from twoweight import verify
from twoweight.circle import CircleGrid, next_power_of_two
from twoweight.debranges import build_system
from twoweight.hardy import HardyOperators
from twoweight.herglotz import neville_extrapolate, radial_limit
from twoweight.model import BUILD_CAP
from twoweight.verify import (CHECKS, EVERY, FIXTURE, RANDOM, CheckResult,
                              Report, SuiteConfig, enumerate_checks,
                              koosis_pipeline, nondegeneracy_report, parse_report,
                              run_suite, run_weight_checks)
from twoweight.weights import (FIXTURE_NAMES, MAX_ORDER, MatrixWeight, fixture,
                               imag_part, random_polynomial_weight)

FAST = SuiteConfig(fixtures=("W_CONST",), random_weights=0)


def cpus(monkeypatch, count):
    """Pin run_suite's worker count: 1 is the in-process route, 2 the pool."""
    monkeypatch.setattr(verify, "_available_cpus", lambda: count)


def check_names(config):
    return tuple(sorted(name for group in enumerate_checks(config) for name, _, _ in group))


def test_suite_config_validation():
    with pytest.raises(ValueError, match="fixture"):
        SuiteConfig(fixtures=("W_NOPE",))
    with pytest.raises(ValueError, match="distinct"):
        SuiteConfig(fixtures=("W_COS", "W_COS"))
    with pytest.raises(ValueError, match="seed"):
        SuiteConfig(seed=-1)
    with pytest.raises(ValueError):
        SuiteConfig(grid_size=100)
    with pytest.raises(ValueError):
        SuiteConfig(tolerances={"*": -1.0})
    # zero is allowed: it turns a check into a roundoff probe
    SuiteConfig(tolerances={"*": 0.0})


def test_tolerance_override_must_name_a_check():
    for key in ("no.such.check", "herglotz.symetry", "herglotz.symmetry[W_COS]"):
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            SuiteConfig(tolerances={key: 0.0})
    with pytest.raises(ValueError, match="no.such.check"):
        run_weight_checks(fixture("W_CONST"), tolerances={"no.such.check": 1.0})
    # a fixture suffix is not checked, only the base name before "["
    SuiteConfig(tolerances={"hardy.contraction[W_COS]": 1.0, "hardy.x_gram": 1.0})


def test_check_table_scopes():
    diag = check_names(SuiteConfig(fixtures=("W_DIAG",), random_weights=0))
    assert "model.spectral_ramp" in diag
    assert "hardy.x_gram[W_DIAG]" in diag
    for name in ("model.spectral_atom_window", "hardy.projection_quadrature_rate",
                 "verify.koosis_inverse_cos", "verify.koosis_galerkin",
                 "debranges.sandwich_random", "hardy.gram_identity_random"):
        assert name not in diag

    cos = check_names(SuiteConfig(fixtures=("W_COS",), random_weights=2))
    for name in ("model.spectral_atom_window", "hardy.x_gram[W_COS]",
                 "debranges.sandwich_random"):
        assert name in cos
    assert "model.spectral_ramp" not in cos


def test_tolerance_resolution_order():
    config = SuiteConfig(tolerances={
        "hardy.contraction[W_COS]": 5.0,
        "hardy.contraction": 2.0,
        "*": 1.0,
    })
    assert config.tolerance_for("hardy.contraction[W_COS]", 1e-6) == 5.0
    assert config.tolerance_for("hardy.contraction[W_DIAG]", 1e-6) == 2.0
    assert config.tolerance_for("herglotz.pair_kernel[W_COS]", 1e-6) == 1.0
    bare = SuiteConfig()
    assert bare.tolerance_for("herglotz.pair_kernel[W_COS]", 1e-6) == 1e-6


def test_report_rejects_duplicate_names():
    entry = CheckResult("a.b", "pass", 0.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="exactly once"):
        Report((entry, entry))


def test_report_text_roundtrip_and_status():
    entries = (
        CheckResult("b.second", "fail", 2.0, 1.0, 0.1),
        CheckResult("a.first", "pass", 0.5, 1.0, 0.2),
    )
    report = Report(entries)
    assert report.names() == ("a.first", "b.second")  # sorted on assembly
    assert report.status == "fail"
    back = parse_report(report.to_text())
    assert back.names() == report.names()
    assert back.status == "fail"
    assert back.entries[1].value == 2.0


def test_parse_report_rejects_malformed_lines():
    with pytest.raises(ValueError, match="malformed"):
        parse_report("check=a.b status=pass value=zzz tolerance=1.0")


def test_empty_fixture_list_is_vacuous_pass():
    report = run_suite(SuiteConfig(fixtures=()))
    assert report.status == "vacuous-pass"
    assert report.passed
    assert report.to_text() == "status=vacuous-pass\nchecks=0\n"


def test_suite_covers_every_enumerated_check_and_is_deterministic():
    report1 = run_suite(FAST)
    report2 = run_suite(FAST)
    assert report1.to_text() == report2.to_text()
    assert report1.names() == check_names(FAST)
    assert report1.passed, report1.summary()


def test_zero_tolerance_turns_failures_into_entries():
    config = SuiteConfig(fixtures=("W_CONST",), random_weights=0,
                         tolerances={"*": 0.0})
    report = run_suite(config)
    assert not report.passed
    assert len(report.failures()) > 0
    assert len(report.entries) == len(check_names(config))


def test_run_weight_checks_on_random_weight():
    rng = np.random.default_rng(11)
    weight = random_polynomial_weight(rng, 1)
    report = run_weight_checks(weight, seed=7, label="RANDOM")
    assert report.passed, report.summary()
    assert all(name.endswith("[RANDOM]") for name in report.names())
    # the table's every-weight rows; no closed-form or deficit row
    bases = {name[:-len("[RANDOM]")] for name in report.names()}
    assert bases == {name for name, _, scope, _ in CHECKS if scope == EVERY}


def test_run_weight_checks_sizes_the_grid_from_the_degree():
    # 2048 samples of |q|^2, q a random polynomial of degree 300: the suite's
    # 256-node grid cannot hold its degree-300 Herglotz series, so every grid
    # row used to be an error entry
    rng = np.random.default_rng(41)
    q = rng.standard_normal(301) + 1j * rng.standard_normal(301)
    grid = CircleGrid(2048)
    weight = MatrixWeight.from_samples(np.abs(np.fft.ifft(q, grid.size)) ** 2, grid)
    assert weight.degree == 300
    report = run_weight_checks(weight, seed=7)
    assert "debranges.sandwich[WEIGHT]" in report.names()
    assert [e.name for e in report.entries if e.status == "error"] == []
    # k = 1 Fourier weights 1 + sum c_n cos(n theta) with sum |c_n| = 0.4: the
    # rows on fixed 512..4096-node grids, and every row once the degree grid
    # passed the old 8192-node cap (d = 4096), used to be "too coarse" errors.
    # The ladder row passes because its rungs start at the degree grid: on a
    # j = 6..14 ladder it reads 3.1e-9 (d = 1024) and 4.5e-6 (d = 4096)
    for degree in (1024, 4096):
        c = np.random.default_rng(degree).standard_normal(degree + 1) + 0j
        c *= 0.4 / np.abs(c[1:]).sum()
        c[0] = 1.0
        report = run_weight_checks(MatrixWeight.from_fourier(c))
        assert [e.message for e in report.entries if "too coarse" in e.message] == []
        assert [e.name for e in report.entries if e.status == "error"] == [], degree
        ladder, = (e for e in report.entries if e.name == "herglotz.ladder_vs_exact[WEIGHT]")
        assert ladder.passed, (degree, ladder.value)


def test_model_sizes_follow_the_degree_grid():
    # the old rule: the degree grid cut to BUILD_CAP, raised to 64; no spec
    # order reaches the cap, so dropping it moves no size
    ctx = verify._SuiteContext(SuiteConfig())
    for degree in range(MAX_ORDER + 1):
        ctx.register("D", SimpleNamespace(degree=degree))
        old = max(64, min(BUILD_CAP, next_power_of_two(2 * (degree + 1))))
        assert ctx.model_sizes("D") == (old, 2 * old), degree


def test_model_rows_size_from_the_degree():
    # degree 100 asks for models of N = 256 and 2N = 512 nodes, 2N k = 2048
    # at k = 4; smaller models make the rows errors ("grid too coarse")
    for dim in (1, 4):
        weight = random_polynomial_weight(np.random.default_rng(5), dim, half_degree=100)
        assert weight.degree == 100
        report = run_weight_checks(weight)
        model_rows = [e for e in report.entries if e.name.startswith("model.")]
        assert len(model_rows) == 5
        assert [e.name for e in model_rows if e.status == "error"] == [], dim


def test_model_rows_past_the_build_cap_carry_its_message():
    # degree 4096 at k = 4: N = 16384 from the degree, and 2N k = 131072 is
    # past BUILD_CAP, so the rows on the finer model are errors that say so
    # samples of 1 + 0.1 cos(4096 theta) on 16384 nodes, exact
    wave = np.array([1.0, 0.0, -1.0, 0.0])[np.arange(16384) % 4]
    ctx = verify._SuiteContext(SuiteConfig())
    ctx.register("BIG", MatrixWeight.from_samples((1.0 + 0.1 * wave)[:, None, None] * np.eye(4)))
    assert ctx.weight("BIG").degree == 4096
    assert ctx.model_sizes("BIG") == (16384, 32768)
    with pytest.raises(ValueError, match="model size cap exceeded"):
        verify._check_model_unitarity("BIG", ctx, None)


def test_model_rows_stay_small_on_many_samples(monkeypatch):
    """1024 samples of a smooth k = 3 weight trim to degree 511; the model
    rows build sizes 1024 and 2048 from the degree alone and read only the
    factors of U1, so no dense 6144 x 6144 U1 (GBs) is formed."""
    theta = CircleGrid(1024).nodes
    rng = np.random.default_rng(7)
    values = np.broadcast_to(0.2 * np.eye(3), (1024, 3, 3)).astype(complex)
    for _ in range(3):
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        # the Poisson kernel at radius r
        r, t = 0.945, theta - rng.uniform(0, 2 * np.pi)
        bump = (1.0 - r * r) / (1.0 + r * r - 2.0 * r * np.cos(t))
        values = values + bump[:, None, None] * np.outer(v, v.conj()) / np.vdot(v, v).real
    weight = MatrixWeight.from_samples(values)
    assert weight.degree == 511
    built = []
    build = verify.build_model

    def recording_build(w0, size):
        built.append(build(w0, size))
        return built[-1]

    # the recorder and tracemalloc see this process only, so the rows must run here
    cpus(monkeypatch, 1)
    monkeypatch.setattr(verify, "build_model", recording_build)
    tracemalloc.start()
    try:
        report = run_weight_checks(weight)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted({model.size for model in built}) == [1024, 2048]
    assert not any("u1" in vars(model) for model in built)
    model_rows = [e for e in report.entries if e.name.startswith("model.")]
    assert len(model_rows) == 5 and all(e.status == "pass" for e in model_rows)
    # about 24 MB
    assert peak <= 100e6, peak


def test_suite_holds_one_subject_at_a_time(monkeypatch):
    """At the start of every row, the live operators were all built for one
    subject (a fixture, or the random weights)."""
    subject_of = weakref.WeakKeyDictionary()
    running, live = [], []
    init = HardyOperators.__init__

    def recording_init(self, system, grid):
        init(self, system, grid)
        subject_of[self] = running[-1]

    def row(scope, fn):
        def run(*args):
            live.append(set(subject_of.values()))
            running.append(args[0] if scope in (EVERY, FIXTURE) else scope)
            return fn(*args)
        return run

    # the recorders live in this process, so the rows must run here too
    cpus(monkeypatch, 1)
    monkeypatch.setattr(HardyOperators, "__init__", recording_init)
    monkeypatch.setattr(verify, "CHECKS", tuple((name, tol, scope, row(scope, fn))
                                                for name, tol, scope, fn in CHECKS))
    report = run_suite(SuiteConfig())
    assert len(live) == len(report.entries)
    assert {subject for subjects in live for subject in subjects} == set(FIXTURE_NAMES) | {RANDOM}
    assert max(len(subjects) for subjects in live) == 1


def test_suite_traced_peak_stays_small(monkeypatch):
    # about 18 MB while every fixture's operators stayed cached to the end;
    # tracemalloc sees this process only, so the rows must run here
    cpus(monkeypatch, 1)
    tracemalloc.start()
    try:
        report = run_suite(SuiteConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= 12e6, peak


def _reports_and_pids_by_cpu_count(monkeypatch, tmp_path, run):
    """run().to_text() with one CPU and with two, and the pids its rows ran in."""
    pids = tmp_path / "pids"

    def row(fn):
        def record(*args):
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return fn(*args)
        return record

    monkeypatch.setattr(verify, "CHECKS", tuple((name, tol, scope, row(fn))
                                                for name, tol, scope, fn in CHECKS))
    texts, ran_in = {}, {}
    for count in (1, 2):
        cpus(monkeypatch, count)
        texts[count] = run().to_text()
        ran_in[count] = set(pids.read_text().split())
        pids.unlink()
    return texts, ran_in


def test_pool_and_in_process_reports_are_byte_identical(monkeypatch, tmp_path):
    config = SuiteConfig(seed=502245490, fixtures=("W_DIAG",), random_weights=0,
                         grid_size=512)
    texts, ran_in = _reports_and_pids_by_cpu_count(monkeypatch, tmp_path,
                                                   lambda: run_suite(config))
    assert texts[1] == texts[2]
    assert ran_in[1] == {str(os.getpid())}
    assert ran_in[2] and str(os.getpid()) not in ran_in[2]


def test_no_worker_outlives_the_suite(monkeypatch):
    cpus(monkeypatch, 2)
    assert run_suite(FAST).passed
    assert multiprocessing.active_children() == []

    def broken(ctx, rng):
        raise RuntimeError("row broke")

    # an error that is not a row's ValueError entry reaches the caller
    monkeypatch.setattr(verify, "CHECKS", tuple(
        (name, tol, scope, broken if name == "weights.koosis_roundtrip" else fn)
        for name, tol, scope, fn in CHECKS))
    with pytest.raises(RuntimeError, match="row broke"):
        run_suite(FAST)
    assert multiprocessing.active_children() == []


K3 = random_polynomial_weight(np.random.default_rng(3), 3)


def _contraction_requests(monkeypatch, run):
    """The rows, by report name, that asked the suite cache for operators on
    CONTRACTION_GRID while run() ran them in this process."""
    running, requested = [], set()
    ops = verify._SuiteContext.ops

    def recording_ops(self, label, size):
        if size == verify.CONTRACTION_GRID:
            requested.add(running[-1])
        return ops(self, label, size)

    def row(name, scope, fn):
        def run_row(*args):
            running.append(f"{name}[{args[0]}]" if scope in (EVERY, FIXTURE) else name)
            return fn(*args)
        return run_row

    cpus(monkeypatch, 1)
    monkeypatch.setattr(verify._SuiteContext, "ops", recording_ops)
    monkeypatch.setattr(verify, "CHECKS", tuple((name, tol, scope, row(name, scope, fn))
                                                for name, tol, scope, fn in CHECKS))
    report = run()
    assert len(running) == len(report.entries)
    return requested


def _group_names(groups):
    return [{name for name, _, _ in group} for group in groups]


def test_contraction_grid_rows_are_each_subjects_first_group(monkeypatch):
    config = SuiteConfig()
    requested = _contraction_requests(monkeypatch, lambda: run_suite(config))
    groups = _group_names(enumerate_checks(config))
    # each fixture's two groups, then the random weights' and the suite's
    assert [bool(names & requested) for names in groups] == \
        [True, False] * len(config.fixtures) + [False, False]
    assert set().union(*groups[0:-2:2]) == requested


def test_contraction_grid_rows_form_the_weights_first_group(monkeypatch):
    requested = _contraction_requests(monkeypatch, lambda: run_weight_checks(K3))
    config = SuiteConfig(random_weights=0)
    first, rest = _group_names(verify._groups(config, ("WEIGHT", K3)))
    assert first == requested
    assert "hardy.contraction[WEIGHT]" in first and not rest & requested


def test_weight_checks_pool_and_in_process_reports_are_byte_identical(monkeypatch, tmp_path):
    texts, ran_in = _reports_and_pids_by_cpu_count(
        monkeypatch, tmp_path, lambda: run_weight_checks(K3, seed=502245490))
    assert texts[1] == texts[2]
    assert ran_in[1] == {str(os.getpid())}
    assert ran_in[2] and str(os.getpid()) not in ran_in[2]


def test_no_worker_outlives_the_weight_checks(monkeypatch):
    cpus(monkeypatch, 2)
    weight = random_polynomial_weight(np.random.default_rng(11), 1)

    def broken(label, ctx, rng):
        raise RuntimeError("row broke")

    # an error that is not a row's ValueError entry reaches the caller
    monkeypatch.setattr(verify, "CHECKS", tuple(
        (name, tol, scope, broken if name == "hardy.contraction" else fn)
        for name, tol, scope, fn in CHECKS))
    with pytest.raises(RuntimeError, match="row broke"):
        run_weight_checks(weight)
    assert multiprocessing.active_children() == []


def test_quadrature_rows_pass_across_seeds():
    """The projection and Hilbert quadrature rows hold 200/M^2 on every
    fixture at suite seeds 0..199 and 502245490; the operators are built
    once and handed to the rows."""
    size = verify.QUADRATURE_GRID
    ops = {(fx, size): HardyOperators(build_system(fixture(fx)), CircleGrid(size))
           for fx in FIXTURE_NAMES}
    ctx = SimpleNamespace(ops=lambda fx, grid_size: ops[fx, grid_size])
    rows = (("hardy.projection_vs_quadrature", verify._check_projection_vs_quadrature),
            ("hardy.hilbert_vs_quadrature", verify._check_hilbert_vs_quadrature))
    for seed in [*range(200), 502245490]:
        for fx in FIXTURE_NAMES:
            for base, check in rows:
                name = f"{base}[{fx}]"
                value = check(fx, ctx, verify._rng_for(seed, name))
                assert value <= 200.0 / size ** 2, (seed, name, value)


def test_run_weight_checks_rejects_fixture_label():
    with pytest.raises(ValueError, match="label"):
        run_weight_checks(fixture("W_CONST"), label="W_CONST")


def test_koosis_pipeline_inverse_cos():
    grid = CircleGrid(256)
    with np.errstate(divide="ignore"):
        v0 = 1.0 / (1.0 + np.cos(grid.nodes))
    result = koosis_pipeline(v0, grid)
    assert abs(result.constant - 1.0) < 1e-10
    assert np.abs(result.v1[result.unflagged] - 0.5).max() < 1e-8
    diag = result.diagnostics
    assert abs(diag["log_integral"] - np.log(2.0)) < 1e-8
    assert diag["galerkin_estimate"] <= 1.0 + 1e-6
    assert abs(diag["deficit"] - 0.5) < 5.0 / 256
    assert np.isfinite(diag["muckenhoupt_sup"])


def test_koosis_pipeline_rejects_vanishing_input():
    grid = CircleGrid(64)
    v0 = np.ones(grid.size)
    v0[0] = 0.0
    with pytest.raises(ValueError):
        koosis_pipeline(v0, grid)


def test_nondegeneracy_ranks():
    expectations = {
        "W_DIAG": (2, 2),
        "W_RANK1": (1, 1),
        "W_COS": (1, 1),
    }
    for name, (r0, r1) in expectations.items():
        system = build_system(fixture(name))
        result = system.companion_weight(CircleGrid(256))
        report = nondegeneracy_report(system, result)
        usable = report.usable
        assert usable.shape == (256,) and usable.any(), name
        assert np.all(report.rank_w0[usable] == r0), name
        assert np.all(report.rank_w1[usable] == r1), name
        assert report.rank_mismatches == 0, name
        assert report.bound_violations == 0, name


def test_nondegeneracy_shared_factorisations_match_direct_route():
    """Ranks and norms from the shared SVD of D0+ and the spectra carried
    from validation agree with an SVD per norm and an eigvalsh per rank."""
    weights = [fixture(name) for name in FIXTURE_NAMES]
    weights += [random_polynomial_weight(np.random.default_rng(50 + k), k)
                for k in (2, 3, 4)]
    for weight in weights:
        system = build_system(weight)
        result = system.companion_weight(CircleGrid(256))
        report = nondegeneracy_report(system, result)
        w0 = weight.samples_on(result.grid)
        w1 = result.w1.values

        def opnorm(values):
            return np.linalg.svd(values, compute_uv=False)[..., 0]

        def rank(values):
            return (np.linalg.eigvalsh(values) > 1e-8).sum(axis=-1)

        d0_norm = opnorm(result.d0_plus)
        bound = np.divide(opnorm(w0), d0_norm ** 2,
                          out=np.full(result.grid.size, np.inf), where=d0_norm > 0)
        keep = report.usable
        assert np.array_equal(report.rank_w0, rank(w0))
        assert np.array_equal(report.rank_w1, rank(w1))
        assert np.array_equal(result.d0_norm, d0_norm)
        assert np.allclose(report.norm_w1, opnorm(w1), rtol=1e-14, atol=0.0)
        assert np.allclose(report.norm_bound, bound, rtol=1e-14, atol=0.0)
        assert report.rank_mismatches == int((rank(w0) != rank(w1))[keep].sum())
        gaps = (bound - opnorm(w1))[keep]
        assert report.bound_violations == int((gaps > 1e-8).sum())


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_batched_ladder_matches_per_radius_stack(name):
    """The ladders of the companion and Herglotz checks evaluate all their
    radii in one call; the limit is bit for bit the one extrapolated from a
    stack of one-point evaluations."""
    system = build_system(fixture(name))
    for point in CircleGrid(256).points[[3, 64, 131]]:
        ladders = (
            (lambda r: imag_part(system.psi1(r * point)), "inner", 13, 20),
            (lambda r: system.psi0.psi(r * point), "inner", 6, 14),
            (lambda r: system.psi0.psi(r * point), "outer", 6, 14),
        )
        for fn, side, j_lo, j_hi in ladders:
            sign = -1.0 if side == "inner" else 1.0
            radii = [1.0 + sign * 2.0 ** -j for j in range(j_lo, j_hi + 1)]
            stack = np.stack([fn(r) for r in radii])
            assert np.array_equal(radial_limit(fn, side, j_lo, j_hi),
                                  neville_extrapolate(stack)), (name, side)
