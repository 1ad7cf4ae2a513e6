import re
import tracemalloc
import weakref

import numpy as np
import pytest

from twoweight import verify
from twoweight.circle import CircleGrid, poisson_kernel
from twoweight.debranges import build_system
from twoweight.hardy import HardyOperators
from twoweight.herglotz import neville_extrapolate, radial_limit
from twoweight.verify import (CHECKS, EVERY, FIXTURE, RANDOM, X_GRAM, CheckResult,
                              Report, SuiteConfig, _imag_part, enumerate_checks,
                              koosis_pipeline, nondegeneracy_report, parse_report,
                              run_suite, run_weight_checks)
from twoweight.weights import (FIXTURE_NAMES, MatrixWeight, fixture,
                               random_polynomial_weight)

FAST = SuiteConfig(fixtures=("W_CONST",), random_weights=0)


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
    assert "hardy.x_gram_preservation[W_DIAG]" in diag
    assert "hardy.x_gram_onesided[W_DIAG]" not in diag
    for name in ("model.spectral_atom_window", "hardy.projection_quadrature_rate",
                 "verify.koosis_inverse_cos", "verify.koosis_galerkin",
                 "debranges.sandwich_random", "hardy.gram_identity_random"):
        assert name not in diag

    cos = check_names(SuiteConfig(fixtures=("W_COS",), random_weights=2))
    for name in ("model.spectral_atom_window", "hardy.x_gram_onesided[W_COS]",
                 "debranges.sandwich_random"):
        assert name in cos
    assert "hardy.x_gram_preservation[W_COS]" not in cos
    assert "model.spectral_ramp" not in cos


def test_tolerance_resolution_order():
    config = SuiteConfig(tolerances={
        "hardy.contraction[W_COS]": 5.0,
        "hardy.contraction": 2.0,
        "*": 1.0,
    })
    assert config.tolerance_for("hardy.contraction[W_COS]", 1e-6) == 5.0
    assert config.tolerance_for("hardy.contraction[W_DIAG]", 1e-6) == 2.0
    assert config.tolerance_for("circle.parseval[W_COS]", 1e-6) == 1.0
    bare = SuiteConfig()
    assert bare.tolerance_for("circle.parseval[W_COS]", 1e-6) == 1e-6


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
    # the table's every-weight rows plus the X Gram row picked by the
    # measured deficit; no closed-form or deficit row
    bases = {name[:-len("[RANDOM]")] for name in report.names()}
    every = {name for name, _, scope, _ in CHECKS if scope == EVERY}
    assert bases == every | {"hardy.x_gram"}


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
    assert "debranges.companion_psd[WEIGHT]" in report.names()
    assert [e.name for e in report.entries if e.status == "error"] == []


def test_model_rows_size_from_the_degree():
    # degree 100: the fixed sizes 64 and 128 made every model row an error
    weight = random_polynomial_weight(np.random.default_rng(5), 1, half_degree=100)
    assert weight.degree == 100
    report = run_weight_checks(weight)
    model_rows = [e for e in report.entries if e.name.startswith("model.")]
    assert len(model_rows) == 5
    assert [e.name for e in model_rows if e.status == "error"] == []


def test_model_rows_stay_small_on_many_samples(monkeypatch):
    """1024 samples of a smooth k = 3 weight trim to degree 511; the model
    rows build models of size N with N k <= MODEL_ROWS_CAP, where sizes 1024
    and 2048 from the degree alone would eigensolve a dense 6144 x 6144 U1
    (GBs)."""
    theta = CircleGrid(1024).nodes
    rng = np.random.default_rng(7)
    values = np.broadcast_to(0.2 * np.eye(3), (1024, 3, 3)).astype(complex)
    for _ in range(3):
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        bump = poisson_kernel(0.945, theta - rng.uniform(0, 2 * np.pi))
        values = values + bump[:, None, None] * np.outer(v, v.conj()) / np.vdot(v, v).real
    weight = MatrixWeight.from_samples(values)
    assert weight.degree == 511
    built = []
    build = verify.build_model

    def capped_build(w0, size):
        assert size * w0.dim <= verify.MODEL_ROWS_CAP, size
        built.append(size)
        return build(w0, size)

    monkeypatch.setattr(verify, "build_model", capped_build)
    tracemalloc.start()
    try:
        report = run_weight_checks(weight)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(set(built)) == [128, 256]
    model_rows = [e for e in report.entries if e.name.startswith("model.")]
    assert len(model_rows) == 5 and all(e.status == "pass" for e in model_rows)
    # about 37 MB with the cap
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
            running.append(args[0] if scope in (EVERY, FIXTURE, X_GRAM) else scope)
            return fn(*args)
        return run

    monkeypatch.setattr(HardyOperators, "__init__", recording_init)
    monkeypatch.setattr(verify, "CHECKS", tuple((name, tol, scope, row(scope, fn))
                                                for name, tol, scope, fn in CHECKS))
    report = run_suite(SuiteConfig())
    assert len(live) == len(report.entries)
    assert {subject for subjects in live for subject in subjects} == set(FIXTURE_NAMES) | {RANDOM}
    assert max(len(subjects) for subjects in live) == 1


def test_suite_traced_peak_stays_small():
    # about 18 MB while every fixture's operators stayed cached to the end
    tracemalloc.start()
    try:
        report = run_suite(SuiteConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= 12e6, peak


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
            (lambda r: _imag_part(system.psi1(r * point)), "inner", 13, 20),
            (lambda r: system.psi0.psi(r * point), "inner", 6, 14),
            (lambda r: system.psi0.psi(r * point), "outer", 6, 14),
        )
        for fn, side, j_lo, j_hi in ladders:
            sign = -1.0 if side == "inner" else 1.0
            radii = [1.0 + sign * 2.0 ** -j for j in range(j_lo, j_hi + 1)]
            stack = np.stack([fn(r) for r in radii])
            assert np.array_equal(radial_limit(fn, side, j_lo, j_hi),
                                  neville_extrapolate(stack)), (name, side)
