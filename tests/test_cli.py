import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

import twoweight
from twoweight.circle import CircleGrid
from twoweight import cli
from twoweight import model as model_module
from twoweight.cli import _fmt, main
from twoweight.debranges import DeBrangesSystem, build_system
from twoweight.model import (CrossValidation, build_model, cross_validate, psi_direct,
                             spectral_nu1)
from twoweight import DEFAULT_SEED
from twoweight.koosis import koosis_pipeline
from twoweight.verify import parse_report
from twoweight.weights import (MatrixWeight, fixture, load_weight_spec, normalize,
                               random_polynomial_weight, save_weight_spec)


def _read(path):
    with open(path) as fh:
        return fh.read()


def _header_lines(path):
    lines = []
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            lines.append(line.rstrip("\n"))
    return lines


def _src_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(twoweight.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def _table(path):
    lines = [line for line in _read(path).splitlines()
             if line and not line.startswith("#")]
    names = lines[0].split(",")
    data = np.array([[float(cell) for cell in line.split(",")]
                     for line in lines[1:]])
    return {name: data[:, i] for i, name in enumerate(names)}


def test_order_limit_spec_constructs_on_the_largest_grid(tmp_path):
    # the highest order a spec may carry; each realization of it is one
    # inverse FFT, where a table of z^n on its natural grid would be 137 GB
    spec = tmp_path / "limit.json"
    spec.write_text(json.dumps({"dim": 1, "kind": "fourier", "data": [
        {"n": 0, "real": [[1.0]]}, {"n": 32767, "real": [[0.25]]}]}))
    assert load_weight_spec(spec).degree == 32767
    out = tmp_path / "limit.csv"
    assert main(["construct", "--weight-spec", str(spec), "-M", "65536", "-o", str(out)]) == 0
    table = _table(out)
    assert len(table["theta"]) == 65536
    assert not table["flag"].any()


def test_construct_diag_table(tmp_path):
    out = tmp_path / "diag.csv"
    rc = main(["construct", "--fixture", "W_DIAG", "-M", "64", "-o", str(out)])
    assert rc == 0
    header = _header_lines(out)
    assert header[0].startswith("# twoweight ")
    assert "# command: construct" in header
    assert any(line.startswith("# input-sha256: ") for line in header)
    table = _table(out)
    assert len(table["theta"]) == 64
    assert not table["flag"].any()
    assert np.allclose(table["w1_00_re"], 0.6, atol=1e-10)
    assert np.allclose(table["w1_11_re"], 0.8, atol=1e-10)
    assert np.allclose(table["w1_01_re"], 0.0, atol=1e-10)
    assert np.allclose(table["w1_01_im"], 0.0, atol=1e-10)


def test_construct_cos_deterministic(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    argv = ["construct", "--fixture", "W_COS", "-M", "256"]
    assert main(argv + ["-o", str(first)]) == 0
    assert main(argv + ["-o", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    table = _table(first)
    flagged = np.flatnonzero(table["flag"])
    assert list(flagged) == [128]
    assert abs(table["theta"][128] - np.pi) < 1e-12
    keep = table["flag"] == 0
    assert np.allclose(table["w1_00_re"][keep], 0.5, atol=1e-8)


def test_construct_rejects_malformed_spec(tmp_path, capsys):
    spec = tmp_path / "broken.json"
    spec.write_text("{ this is not json")
    out = tmp_path / "companion.csv"
    rc = main(["construct", "--weight-spec", str(spec), "-o", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def test_construct_rejects_non_psd_spec(tmp_path):
    values = [1.0] * 64
    values[3] = -1.0
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({
        "dim": 1,
        "kind": "samples",
        "data": [{"real": [[v]]} for v in values],
    }))
    out = tmp_path / "companion.csv"
    rc = main(["construct", "--weight-spec", str(spec), "-o", str(out)])
    assert rc == 2
    assert not out.exists()


def test_bad_grid_size_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--fixture", "W_CONST", "-M", "100"])
    assert exc.value.code == 2


def test_verify_weight_spec_report(tmp_path, capsys):
    spec = tmp_path / "const.json"
    save_weight_spec(fixture("W_CONST"), spec)
    report_path = tmp_path / "report.txt"
    rc = main(["verify", "--weight-spec", str(spec),
               "-o", str(report_path), "--summary"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "-> pass" in stdout
    text = _read(report_path)
    assert "status=pass" in text
    report = parse_report(text)
    assert report.passed
    assert f"checks={len(report.entries)}" in text
    assert all("[WEIGHT]" in e.name for e in report.entries)

    rc = main(["report", str(report_path)])
    assert rc == 0
    assert "-> pass" in capsys.readouterr().out

    # sampled input: the model checks realise it on a coarser grid (128 nodes)
    grid = CircleGrid(256)
    band = random_polynomial_weight(np.random.default_rng(11), 2)
    spec = tmp_path / "band_k2_256.json"
    save_weight_spec(MatrixWeight.from_samples(band.samples_on(grid), grid), spec)
    rc = main(["verify", "--weight-spec", str(spec), "-o", str(report_path)])
    assert rc == 0
    assert parse_report(_read(report_path)).passed

    # a valid step weight whose upsampled samples overshoot below zero:
    # the checks that need a finer grid become error entries, not exit 2
    step = np.where(grid.nodes < np.pi, 1.0, 0.1)
    spec = tmp_path / "step_256.json"
    save_weight_spec(MatrixWeight.from_samples(step, grid), spec)
    rc = main(["verify", "--weight-spec", str(spec), "-o", str(report_path),
               "--summary"])
    assert rc == 1
    assert "not positive semidefinite" in capsys.readouterr().out
    errors = [e for e in parse_report(_read(report_path)).entries if e.status == "error"]
    assert errors and all(np.isnan(e.value) for e in errors)
    assert main(["report", str(report_path)]) == 1


def test_verify_fixtures_zero_tolerance_fails(tmp_path):
    report_path = tmp_path / "report.txt"
    rc = main(["verify", "--fixtures", "--random-weights", "0",
               "--tolerance", "0", "-o", str(report_path)])
    assert rc == 1
    text = _read(report_path)
    assert "status=fail" in text
    report = parse_report(text)
    assert report.failures()
    assert all(e.tolerance == 0.0 for e in report.entries)


def test_verify_unknown_tolerance_name_exits_two(tmp_path, capsys):
    report_path = tmp_path / "report.txt"
    rc = main(["verify", "--fixtures", "-t", "no.such=1", "-o", str(report_path)])
    assert rc == 2
    assert "'no.such'" in capsys.readouterr().err
    assert not report_path.exists()


@pytest.mark.parametrize("override, message", [
    ("nan", "tolerance override '*' must be finite and >= 0"),
    ("W=-1", "tolerance override 'W' names no check"),
    ("weights.normalized=-1", "tolerance override 'weights.normalized' must be finite and >= 0"),
])
def test_verify_bad_tolerance_exits_two_with_one_line(tmp_path, capsys, override, message):
    # the option parses [NAME=]VALUE; SuiteConfig alone checks the name and range
    report_path = tmp_path / "report.txt"
    assert main(["verify", "--fixtures", "-t", override, "-o", str(report_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not report_path.exists()


def test_report_fail_and_garbage(tmp_path, capsys):
    path = tmp_path / "saved.txt"
    path.write_text("status=fail\nchecks=1\n"
                    "check=demo status=fail value=2.0e+00 tolerance=1.0e-08\n")
    rc = main(["report", str(path)])
    assert rc == 1
    assert "-> fail" in capsys.readouterr().out

    garbage = tmp_path / "garbage.txt"
    garbage.write_text("nothing to see here\n")
    rc = main(["report", str(garbage)])
    assert rc == 2
    assert "missing status line" in capsys.readouterr().err


def test_model_check_table(tmp_path):
    out = tmp_path / "model.csv"
    rc = main(["model-check", "--fixture", "W_CONST",
               "--modes", "64", "128", "-o", str(out)])
    assert rc == 0
    header = _header_lines(out)
    assert any("spectral-trace[64]" in line for line in header)
    assert any("spectral-trace[128]" in line for line in header)
    assert any(line.startswith("# legend:") for line in header)
    kinds, sizes, values = [], [], []
    for line in _read(out).splitlines():
        if line.startswith("#") or line.startswith("kind,"):
            continue
        kind, size, _, _, value = line.split(",")
        kinds.append(kind)
        sizes.append(int(size))
        values.append(float(value))
    kinds = np.array(kinds)
    sizes = np.array(sizes)
    values = np.array(values)
    assert set(kinds) == {"xval", "spectral"}
    # three probe points per truncation size
    assert int((kinds == "xval").sum()) == 6
    assert values[kinds == "xval"].max() < 1e-8
    for size in (64, 128):
        mass = values[(kinds == "spectral") & (sizes == size)].sum()
        assert abs(mass - 1.0) < 1e-10


def test_model_check_builds_one_model_per_size(tmp_path, monkeypatch):
    built = []

    def counting(weight, size):
        built.append(size)
        return build_model(weight, size)

    monkeypatch.setattr(model_module, "build_model", counting)
    rc = main(["model-check", "--fixture", "W_COS",
               "--modes", "64", "128", "-o", str(tmp_path / "model.csv")])
    assert rc == 0
    assert sorted(built) == [64, 128]


def test_model_check_spectral_rows_above_old_cap(tmp_path):
    # every size gets its spectral rows; there is no skipped-size header
    out = tmp_path / "model.csv"
    rc = main(["model-check", "--fixture", "W_COS", "--modes", "8192", "-o", str(out)])
    assert rc == 0
    header = _header_lines(out)
    assert any("spectral-trace[8192]" in line for line in header)
    assert not any("spectral-skipped" in line for line in header)
    rows = [line for line in _read(out).splitlines() if line.startswith("spectral,")]
    assert len(rows) == 8192


def test_model_check_cap_exits_two(tmp_path):
    out = tmp_path / "model.csv"
    rc = main(["model-check", "--fixture", "W_DIAG",
               "--modes", "65536", "-o", str(out)])
    assert rc == 2
    assert not out.exists()


def test_model_check_modes_out_of_range(tmp_path):
    out = tmp_path / "model.csv"
    with pytest.raises(SystemExit) as exc:
        main(["model-check", "--fixture", "W_CONST",
              "--modes", "131072", "-o", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_scalar_inverse_cos_preset(tmp_path):
    out = tmp_path / "scalar.csv"
    rc = main(["scalar", "--preset", "inverse-cos", "-M", "256",
               "-o", str(out)])
    assert rc == 0
    table = _table(out)
    flagged = np.flatnonzero(table["flag"])
    assert list(flagged) == [128]
    keep = table["flag"] == 0
    assert np.allclose(table["v1"][keep], 0.5, atol=1e-8)
    assert np.isinf(table["v0"][128])


def test_scalar_const_preset(tmp_path):
    out = tmp_path / "scalar.csv"
    rc = main(["scalar", "--preset", "const", "-M", "128", "-o", str(out)])
    assert rc == 0
    table = _table(out)
    assert not table["flag"].any()
    assert np.allclose(table["v1"], 1.0, atol=1e-10)


def test_scalar_samples_file(tmp_path):
    samples = tmp_path / "samples.json"
    samples.write_text(json.dumps([1.0] * 128))
    out = tmp_path / "scalar.csv"
    rc = main(["scalar", "--samples", str(samples), "-o", str(out)])
    assert rc == 0
    assert len(_table(out)["theta"]) == 128

    bad_count = tmp_path / "short.json"
    bad_count.write_text(json.dumps([1.0] * 100))
    rc = main(["scalar", "--samples", str(bad_count),
               "-o", str(tmp_path / "never.csv")])
    assert rc == 2
    assert not (tmp_path / "never.csv").exists()


_ONE_ORDER = {"n": 0, "real": [[1.0]]}
_INFINITE_SAMPLE = {"dim": 1, "kind": "samples",
                    "data": [{"real": [[float("inf") if i == 3 else 1.0]], "imag": [[0.0]]}
                             for i in range(64)]}
MALFORMED = {
    "samples-object": ("scalar", "--samples", {"values": [1, 2, 3]}),
    "samples-of-objects": ("scalar", "--samples", [{"v": 1.0}] * 64),
    "fourier-entries-not-objects": ("construct", "--weight-spec",
                                    {"dim": 1, "kind": "fourier", "data": [1, 2]}),
    "samples-entries-not-objects": ("construct", "--weight-spec",
                                    {"dim": 1, "kind": "samples", "data": [1.0] * 64}),
    "schatten-p-null": ("construct", "--weight-spec",
                        {"dim": 1, "schatten_p": None, "kind": "fourier",
                         "data": [_ONE_ORDER]}),
    "dim-null": ("construct", "--weight-spec",
                 {"dim": None, "kind": "fourier", "data": [_ONE_ORDER]}),
    "order-null": ("construct", "--weight-spec",
                   {"dim": 1, "kind": "fourier", "data": [{"n": None, "real": [[1.0]]}]}),
    "matrix-object": ("construct", "--weight-spec",
                      {"dim": 1, "kind": "fourier", "data": [{"n": 0, "real": {"a": 1}}]}),
    # a JSON integer beyond double range overflows float()
    "matrix-huge-integer": ("construct", "--weight-spec",
                            {"dim": 1, "kind": "fourier",
                             "data": [{"n": 0, "real": [[10 ** 400]]}]}),
    "sample-huge-integer": ("construct", "--weight-spec",
                            {"dim": 1, "kind": "samples",
                             "data": [{"real": [[10 ** 400 if i == 3 else 1]]}
                                      for i in range(64)]}),
    # refused before any coefficient stack is allocated (it would be 14.6 TiB)
    "order-huge": ("construct", "--weight-spec",
                   {"dim": 1, "kind": "fourier",
                    "data": [{"n": 1000000000000, "real": [[1.0]]}]}),
    # json writes and reads Infinity; int() of it overflows
    "order-infinite": ("construct", "--weight-spec",
                       {"dim": 1, "kind": "fourier",
                        "data": [{"n": float("inf"), "real": [[1.0]]}]}),
    "dim-infinite": ("construct", "--weight-spec",
                     {"dim": float("inf"), "kind": "fourier",
                      "data": [{"n": 0, "real": [[1.0]]}]}),
    # int() would cut these to 1, and JSON true would read as 1; read so,
    # each spec is a valid weight (1 + cos(theta)/2 for the orders)
    "dim-fractional": ("construct", "--weight-spec",
                       {"dim": 1.5, "kind": "fourier", "data": [_ONE_ORDER]}),
    "order-fractional": ("construct", "--weight-spec",
                         {"dim": 1, "kind": "fourier",
                          "data": [_ONE_ORDER, {"n": 1.5, "real": [[0.25]]}]}),
    "dim-bool": ("construct", "--weight-spec",
                 {"dim": True, "kind": "fourier", "data": [_ONE_ORDER]}),
    "order-bool": ("construct", "--weight-spec",
                   {"dim": 1, "kind": "fourier",
                    "data": [_ONE_ORDER, {"n": True, "real": [[0.25]]}]}),
    "schatten-p-bool": ("construct", "--weight-spec",
                        {"dim": 1, "schatten_p": True, "kind": "fourier",
                         "data": [_ONE_ORDER]}),
    "samples-bool": ("scalar", "--samples", [True] * 64),
    # float() and int() read these strings, and a bool entry reads as 1.0;
    # read so, each spec is a valid weight
    "dim-string": ("construct", "--weight-spec",
                   {"dim": "1", "kind": "fourier", "data": [_ONE_ORDER]}),
    "order-string": ("construct", "--weight-spec",
                     {"dim": 1, "kind": "fourier",
                      "data": [_ONE_ORDER, {"n": "1", "real": [[0.25]]}]}),
    "schatten-p-string": ("construct", "--weight-spec",
                          {"dim": 1, "schatten_p": "2", "kind": "fourier",
                           "data": [_ONE_ORDER]}),
    "coeff-bool": ("construct", "--weight-spec",
                   {"dim": 2, "kind": "fourier",
                    "data": [{"n": 0, "real": [[1.0, 0.0], [0.0, True]]}]}),
    "coeff-string": ("construct", "--weight-spec",
                     {"dim": 1, "kind": "fourier",
                      "data": [_ONE_ORDER, {"n": 1, "real": [["0.25"]]}]}),
    # the one-conversion samples read takes these as 0.5, 0.0 and 1.0
    "samples-string": ("construct", "--weight-spec",
                       {"dim": 1, "kind": "samples",
                        "data": [{"real": [["0.5"]], "imag": [[0.0]]}] * 64}),
    "samples-bool-imag": ("construct", "--weight-spec",
                          {"dim": 1, "kind": "samples",
                           "data": [{"real": [[1.0]], "imag": [[False]]}] * 64}),
    "samples-true": ("construct", "--weight-spec",
                     {"dim": 1, "kind": "samples",
                      "data": [{"real": [[True]], "imag": [[0]]}] * 64}),
    # JSON reads 1e309 as inf (and json writes inf as Infinity, read back so)
    "samples-infinite": ("construct", "--weight-spec", _INFINITE_SAMPLE),
    "fourier-infinite": ("construct", "--weight-spec",
                         {"dim": 1, "kind": "fourier",
                          "data": [_ONE_ORDER, {"n": 1, "real": [[float("inf")]]}]}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_two_with_one_error_line(tmp_path, case):
    command, flag, doc = MALFORMED[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.csv"
    done = subprocess.run([sys.executable, "-m", "twoweight.cli", command, flag, str(path),
                           "-o", str(out)], env=_src_env(), capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), done.stderr
    assert not out.exists()


_UNIT_SAMPLES = [{"real": [[1.0]], "imag": [[0.0]]}] * 64
# spec text -> the one stderr line of construct and of verify --weight-spec
HOSTILE = {
    "string-entry": (json.dumps({"dim": 1, "kind": "fourier", "data": [_ONE_ORDER, "x"]}),
                     "weight spec data entries must be JSON objects"),
    "bool": (json.dumps({"dim": 1, "kind": "fourier",
                         "data": [_ONE_ORDER, {"n": 1, "real": [[True]]}]}),
             "coefficient n=1 must be a 1x1 real/imag matrix pair"),
    # JSON reads 1e309 as inf
    "1e309": ('{"dim": 1, "kind": "fourier", "data": [{"n": 0, "real": [[1.0]]}, '
              '{"n": 1, "real": [[1e309]]}]}', "coefficient n=1 must be finite"),
    "wrong-shape": (json.dumps({"dim": 2, "kind": "fourier",
                                "data": [{"n": 0, "real": [[1.0, 0.0]]}]}),
                    "coefficient n=0 must be a 2x2 real/imag matrix pair"),
    # entry 0's matrix is read before entry 1's order
    "two-faults": (json.dumps({"dim": 1, "kind": "fourier",
                               "data": [{"n": 0, "real": [[1.0, 2.0]]},
                                        {"n": -1, "real": [[1.0]]}]}),
                   "coefficient n=0 must be a 1x1 real/imag matrix pair"),
    "string-sample": (json.dumps({"dim": 1, "kind": "samples", "data": [
        *_UNIT_SAMPLES[:5], {"real": [["1"]], "imag": [[0.0]]}, *_UNIT_SAMPLES[6:]]}),
                      "sample 5 must be a 1x1 real/imag matrix pair"),
    "infinite-sample": (json.dumps({"dim": 1, "kind": "samples", "data": [
        *_UNIT_SAMPLES[:7], {"real": [[float("inf")]], "imag": [[0.0]]},
        *_UNIT_SAMPLES[8:]]}), "sample 7 must be finite"),
    # the entry-by-entry read names the first faulty entry, whichever its fault
    "infinite-then-string": (json.dumps({"dim": 1, "kind": "samples", "data": [
        *_UNIT_SAMPLES[:2], {"real": [[float("inf")]]}, *_UNIT_SAMPLES[3:5],
        {"real": [["1"]]}, *_UNIT_SAMPLES[6:]]}), "sample 2 must be finite"),
    "string-then-infinite": (json.dumps({"dim": 1, "kind": "samples", "data": [
        *_UNIT_SAMPLES[:2], {"real": [["1"]]}, *_UNIT_SAMPLES[3:5],
        {"real": [[float("inf")]]}, *_UNIT_SAMPLES[6:]]}),
                             "sample 2 must be a 1x1 real/imag matrix pair"),
    # refused before any entry is read
    "dim-zero": (json.dumps({"dim": 0, "kind": "fourier", "data": [{"n": 0, "real": []}]}),
                 "weight spec dim must be >= 1"),
    "dim-negative": (json.dumps({"dim": -1, "kind": "samples", "data": _UNIT_SAMPLES}),
                     "weight spec dim must be >= 1"),
    # json reads NaN; p = nan used to load (k = 1) or fail as non-finite samples
    "nan-p-k1": ('{"dim": 1, "schatten_p": NaN, "kind": "fourier", "data": '
                 '[{"n": 0, "real": [[1.0]]}, {"n": 1, "real": [[0.25]]}]}',
                 "Schatten index schatten_p must be >= 1, got nan"),
    "nan-p-k2": ('{"dim": 2, "schatten_p": NaN, "kind": "fourier", "data": '
                 '[{"n": 0, "real": [[1.0, 0.0], [0.0, 2.0]]}, '
                 '{"n": 1, "real": [[0.25, 0.0], [0.0, 0.5]]}]}',
                 "Schatten index schatten_p must be >= 1, got nan"),
}


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_spec_exits_two_with_its_message(tmp_path, capsys, case):
    text, message = HOSTILE[case]
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    out = tmp_path / "out"
    for command in ("construct", "verify"):
        assert main([command, "--weight-spec", str(spec), "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_imagless_and_repeated_order_specs_still_load(tmp_path):
    spec = tmp_path / "spec.json"
    # every entry without imag: the one-conversion read takes imag = 0
    spec.write_text(json.dumps({"dim": 1, "kind": "fourier",
                                "data": [_ONE_ORDER, {"n": 1, "real": [[0.25]]}]}))
    assert load_weight_spec(spec).fourier[:, 0, 0].tolist() == [1.0, 0.25]
    # a repeated order: the last entry wins
    spec.write_text(json.dumps({"dim": 1, "kind": "fourier", "data": [
        _ONE_ORDER, {"n": 1, "real": [[0.4]]},
        {"n": 1, "real": [[0.25]], "imag": [[0.125]]}]}))
    assert load_weight_spec(spec).fourier[:, 0, 0].tolist() == [1.0, 0.25 + 0.125j]
    # "imag": null reads as an absent imag, beside entries that carry one
    spec.write_text(json.dumps({"dim": 1, "kind": "fourier", "data": [
        {"n": 0, "real": [[1.0]], "imag": None}, {"n": 1, "real": [[0.25]], "imag": [[0.125]]}]}))
    assert load_weight_spec(spec).fourier[:, 0, 0].tolist() == [1.0, 0.25 + 0.125j]


def test_verify_infinite_spec_exits_two_naming_the_sample(tmp_path):
    spec = tmp_path / "infinite.json"
    spec.write_text(json.dumps(_INFINITE_SAMPLE))
    report = tmp_path / "report.txt"
    done = subprocess.run([sys.executable, "-m", "twoweight.cli", "verify", "--weight-spec",
                           str(spec), "-o", str(report)], env=_src_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stderr.splitlines() == ["error: sample 3 must be finite"], done.stderr
    assert not report.exists()


@pytest.mark.parametrize("argv", [
    ["construct", "-M", "1024"],
    ["construct", "-M", "2048"],
    ["model-check", "--modes", "1024"],
])
def test_too_coarse_grid_names_the_grid_it_needs(tmp_path, argv):
    # degree 1024 needs 2(d + 1) = 2050 nodes, so 4096; construct checks w0's
    # grid before the Herglotz series, which alone would pass on 2048
    c = np.random.default_rng(1024).standard_normal(1025) + 0j
    c *= 0.4 / np.abs(c[1:]).sum()
    c[0] = 1.0
    spec = tmp_path / "degree1024.json"
    save_weight_spec(MatrixWeight.from_fourier(c), spec)
    out = tmp_path / "out.csv"
    done = subprocess.run([sys.executable, "-m", "twoweight.cli", argv[0], "--weight-spec",
                           str(spec), *argv[1:], "-o", str(out)], env=_src_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stderr.splitlines() == [
        f"error: grid of {argv[-1]} nodes is too coarse for degree 1024: needs 4096"]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--weight-spec", "SPEC", "-M", "8192"],
    ["verify", "--weight-spec", "SPEC", "--random-weights", "7"],
    ["scalar", "--samples", "SAMPLES", "-M", "512"],
])
def test_options_that_cannot_act_exit_two(tmp_path, capsys, argv):
    spec = tmp_path / "spec.json"
    save_weight_spec(random_polynomial_weight(np.random.default_rng(3), 1), spec)
    samples = tmp_path / "samples.json"
    samples.write_text(json.dumps([1.0] * 64))
    out = tmp_path / "never.txt"
    paths = {"SPEC": str(spec), "SAMPLES": str(samples)}
    rc = main([paths.get(arg, arg) for arg in argv] + ["-o", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "only" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--basis-size", "0", "basis_size must be >= 1"),
    ("--basis-size", "-2", "basis_size must be >= 1"),
    ("--seed", "-1", "seed must be a nonnegative integer"),
])
def test_scalar_bad_arguments_exit_two_naming_the_field(tmp_path, flag, value, message):
    out = tmp_path / "never.csv"
    done = subprocess.run([sys.executable, "-m", "twoweight.cli", "scalar", "--preset", "const",
                           flag, value, "-o", str(out)], env=_src_env(), capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 2, done.stderr
    assert done.stderr.splitlines() == [f"error: {message}"], done.stderr
    assert not out.exists()


def _unit_samples_with(index, text):
    """The text of a JSON list of 64 ones whose entry index reads text."""
    return "[" + ", ".join(text if i == index else "1.0" for i in range(64)) + "]"


# samples file text -> the one stderr line of scalar (None: a valid file)
SCALAR_SAMPLES = {
    # a JSON integer beyond double range overflows float()
    "huge-integer": (_unit_samples_with(3, "1" + "0" * 400),
                     "samples file must hold a flat list of values"),
    "nan": (_unit_samples_with(2, "NaN"), "sample 2 must be finite or +inf, got nan"),
    "minus-infinity": (_unit_samples_with(3, "-Infinity"),
                       "sample 3 must be finite or +inf, got -inf"),
    "string": (_unit_samples_with(4, '"1.0"'), "samples file must hold a flat list of values"),
    "bool": (_unit_samples_with(5, "true"), "samples file must hold a flat list of values"),
    "nested": (_unit_samples_with(6, "[1.0]"), "samples file must hold a flat list of values"),
    # a zero of the inverse weight
    "plus-infinity": (_unit_samples_with(7, "Infinity"), None),
}


@pytest.mark.parametrize("case", sorted(SCALAR_SAMPLES))
def test_scalar_samples_file_is_read_by_the_number_rule(tmp_path, capsys, case):
    text, message = SCALAR_SAMPLES[case]
    samples = tmp_path / "samples.json"
    samples.write_text(text)
    out = tmp_path / "scalar.csv"
    rc = main(["scalar", "--samples", str(samples), "-o", str(out)])
    err = capsys.readouterr().err
    if message is None:
        assert rc == 0 and err == "" and out.exists()
        assert np.isinf(_table(out)["v0"][7])
    else:
        assert rc == 2 and err == f"error: {message}\n" and not out.exists()


def test_scalar_vanishing_sample_exits_two(tmp_path):
    samples = tmp_path / "samples.json"
    values = [1.0] * 64
    values[5] = 0.0
    samples.write_text(json.dumps(values))
    rc = main(["scalar", "--samples", str(samples),
               "-o", str(tmp_path / "never.csv")])
    assert rc == 2
    assert not (tmp_path / "never.csv").exists()


def test_version_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "twoweight" in capsys.readouterr().out


def _loaded_after(code):
    """The twoweight modules, and the other named ones, that a fresh
    interpreter holds after running `code`."""
    probe = (code + "\nimport sys; print(*sorted(name for name in sys.modules if "
             "name.split('.')[0] in ('twoweight', 'scipy', 'multiprocessing') "
             "or name == 'concurrent.futures'))")
    done = subprocess.run([sys.executable, "-c", probe], env=_src_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    return set(done.stdout.split())


def test_import_cli_loads_only_the_parser_modules():
    # the package runs on numpy alone, verify imports the process pool
    # modules only when it forks workers, and the handlers import the layers
    # they run: starting the CLI loads the parser's modules and nothing else
    assert _loaded_after("import twoweight.cli") == {
        "twoweight", "twoweight.cli", "twoweight.circle", "twoweight.weights"}


@pytest.mark.parametrize("argv, absent", [
    (["construct", "--fixture", "W_COS", "-M", "64"],
     {"twoweight.verify", "twoweight.hardy", "twoweight.model"}),
    (["model-check", "--fixture", "W_COS", "--modes", "64"],
     {"twoweight.verify", "twoweight.hardy"}),
    (["scalar", "--preset", "const", "-M", "64"],
     {"twoweight.verify", "twoweight.model"}),
])
def test_each_subcommand_loads_only_its_layers(tmp_path, argv, absent):
    out = tmp_path / "out.csv"
    loaded = _loaded_after(f"from twoweight.cli import main; "
                           f"assert main({[*argv, '-o', str(out)]!r}) == 0")
    assert out.exists()
    assert "twoweight.debranges" in loaded
    assert not loaded & absent, loaded & absent
    assert not {"scipy", "multiprocessing"} & loaded


def test_package_names_resolve_to_their_home_modules():
    code = """
import importlib, twoweight
for name in twoweight.__all__:
    value = getattr(twoweight, name)
    home = importlib.import_module("twoweight." + twoweight._HOMES[name]) \
        if name in twoweight._HOMES else twoweight
    assert value is getattr(home, name), name
    assert getattr(value, "__module__", home.__name__) == home.__name__, name
    assert name in dir(twoweight), name
from twoweight import DEFAULT_SEED, koosis_pipeline, nondegeneracy_report
assert DEFAULT_SEED == 1729
try:
    twoweight.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("an unknown name resolved")
"""
    loaded = _loaded_after(code)
    # resolving every public name loads every layer, and still no scipy
    assert {"twoweight.verify", "twoweight.koosis", "twoweight.model"} <= loaded
    assert "scipy" not in loaded


def test_verify_bytes_do_not_depend_on_blas_threads(tmp_path):
    # fresh processes under one and two BLAS threads write the same reports
    spec = tmp_path / "k4.json"
    save_weight_spec(random_polynomial_weight(np.random.default_rng(4), 4), str(spec))
    for name, args in (("fixtures", ["--fixtures"]), ("k4", ["--weight-spec", str(spec)])):
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"{name}_{threads}.txt"
            env = dict(_src_env(), OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-m", "twoweight.cli", "verify", *args,
                            "-o", str(out)], env=env, capture_output=True, timeout=300,
                           check=True)
            reports.append(out.read_bytes())
        assert reports[0] == reports[1], name


def test_construct_bytes_do_not_depend_on_blas_threads(tmp_path):
    # fresh processes under one and two BLAS threads write the same tables
    spec = tmp_path / "k4.json"
    save_weight_spec(random_polynomial_weight(np.random.default_rng(4), 4), str(spec))
    for name, args in (("W_COS", ["--fixture", "W_COS"]), ("k4", ["--weight-spec", str(spec)])):
        tables = []
        for threads in ("1", "2"):
            out = tmp_path / f"{name}_{threads}.csv"
            env = dict(_src_env(), OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-m", "twoweight.cli", "construct", *args,
                            "-M", "8192", "-o", str(out)], env=env, capture_output=True,
                           timeout=300, check=True)
            tables.append(out.read_bytes())
        assert tables[0] == tables[1], name


def test_model_check_bytes_do_not_depend_on_blas_threads(tmp_path):
    # fresh processes under one and two BLAS threads write the same tables;
    # the k = 3 spec takes LAPACK's eigensolver in the spectral pass.  Larger
    # models (W_COS at M = 16384, k = 3 at M = 2048) still write tables that
    # depend on the thread count, through the BLAS products and the SVD over
    # M*k terms in psi_direct and build_model
    spec = tmp_path / "k3.json"
    save_weight_spec(random_polynomial_weight(np.random.default_rng(3), 3), str(spec))
    for name, args in (("W_COS", ["--fixture", "W_COS", "--modes", "64", "4096"]),
                       ("k3", ["--weight-spec", str(spec), "--modes", "64", "1024"])):
        tables = []
        for threads in ("1", "2"):
            out = tmp_path / f"{name}_{threads}.csv"
            env = dict(_src_env(), OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-m", "twoweight.cli", "model-check", *args,
                            "-o", str(out)], env=env, capture_output=True, timeout=300,
                           check=True)
            tables.append(out.read_bytes())
        assert tables[0] == tables[1], name


# -- the block CSV writer ----------------------------------------------------------

def _assert_formats_exactly(values, cols=64):
    """The block writer renders every value as format(x, ".17e") does."""
    values = np.asarray(values, dtype=float).ravel()
    values = np.concatenate([values, np.zeros(-values.size % cols)])
    text = "".join(cli._csv_rows(list(values.reshape(-1, cols).T)))
    got = text.replace("\n", ",").split(",")[:-1]
    want = [format(x, ".17e") for x in values.tolist()]
    if got != want:
        bad = [(x, w, g) for x, w, g in zip(values, want, got) if w != g]
        raise AssertionError(f"{len(got)} cells for {len(want)} values; {bad[:5]}")


def test_block_writer_formats_random_bit_patterns_and_specials():
    bits = np.random.default_rng(20260).integers(0, 2 ** 64, size=120_000,
                                                 dtype=np.uint64)
    values = bits.view(np.float64)
    finite = values[np.isfinite(values)]
    # the draw spans subnormals and both extreme exponents
    assert np.abs(finite[finite != 0]).min() < np.finfo(float).tiny
    assert np.abs(finite).max() > 1e300
    _assert_formats_exactly(values)
    _assert_formats_exactly([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-5, -1e-5,
                             np.nextafter(1e18, 0.0), 1e18, 5e-324])


def test_block_writer_formats_decade_neighbours():
    decades = [float(f"1e{e}") for e in range(-320, 309)]
    values = np.array([np.nextafter(t, d) for t in decades
                       for d in (0.0, t, np.inf)])
    # includes a double below a decade that rounds up to it at 18 digits
    ups = [x for x in values if x > 0.0 and format(x, ".17e").startswith("1.0000")
           and Fraction(x) < 10 ** Fraction(format(x, ".17e").split("e")[1])]
    assert ups
    _assert_formats_exactly(values)
    _assert_formats_exactly(-values)
    _assert_formats_exactly([np.nextafter(float(f"1e{e}"), d)
                             for e in range(-6, 19) for d in (0.0, np.inf)])


def test_block_writer_formats_exact_halfway_cases():
    j = np.arange(1, 20_001, dtype=np.float64)
    m = np.arange(64)
    values = np.ldexp(j[None, :], -m[:, None])
    # j * 2^-m * 10^p (p = 17 - exponent) is an exact 18-digit tie when
    # m = p + 1 + (trailing zero bits of j)
    twos = (np.arange(1, 20_001) & -np.arange(1, 20_001)).astype(float)
    p = 17 - np.floor(np.log10(values))
    ties = (m[:, None] == p + 1 + np.log2(twos)[None, :]) \
        & (values >= 1e-5) & (values < 1e18)
    assert ties.sum() > 100
    _assert_formats_exactly(values)


def test_block_writer_mixes_float_and_integer_columns():
    theta = np.array([0.0, 0.5, np.pi, 1e-7])
    counts = np.array([0, 7, 12, -3])
    flags = np.array([False, True, False, True])
    text = "".join(cli._csv_rows([theta, counts, flags, -theta]))
    want = "".join(f"{_fmt(t)},{c},{int(f)},{_fmt(-t)}\n"
                   for t, c, f in zip(theta, counts, flags))
    assert text == want


def _body(path):
    return "".join(line for line in _read(path).splitlines(keepends=True)
                   if not line.startswith("#"))


def _old_construct_body(weight, size):
    """The construct table rendered value by value with _fmt."""
    system = build_system(normalize(weight))
    result = system.companion_weight(CircleGrid(size))
    k = system.dim
    cols = ["theta", "flag", "cond"]
    for i in range(k):
        for j in range(k):
            cols.extend([f"w1_{i}{j}_re", f"w1_{i}{j}_im"])
    lines = [",".join(cols)]
    w1 = result.w1.values.reshape(-1, k * k)
    for theta, flag, cond, row in zip(result.grid.nodes, result.singular_flags,
                                      result.cond_profile, w1):
        parts = [v for z in row for v in (z.real, z.imag)]
        lines.append(",".join([_fmt(theta), str(int(flag)), _fmt(cond),
                               *map(_fmt, parts)]))
    return "\n".join(lines) + "\n"


def _quiet_main(argv, capfd):
    """main() with every warning an error; asserts nothing reaches stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    assert capfd.readouterr().err == ""
    return rc


@pytest.mark.parametrize("name", ["W_COS", "W_RANK1"])
def test_construct_fixture_bytes_match_per_value_render(tmp_path, capfd, name):
    out = tmp_path / "table.csv"
    assert _quiet_main(["construct", "--fixture", name, "-M", "256", "-o", str(out)],
                       capfd) == 0
    body = _body(out)
    assert body == _old_construct_body(fixture(name), 256)
    if name == "W_COS":
        assert ",inf," in body  # the atom at pi takes the _fmt fallback
    else:
        assert "0.00000000000000000e+00" in body


def test_construct_spec_bytes_match_per_value_render(tmp_path, capfd):
    spec = tmp_path / "k3.json"
    save_weight_spec(random_polynomial_weight(np.random.default_rng(31), 3), spec)
    out = tmp_path / "table.csv"
    assert _quiet_main(["construct", "--weight-spec", str(spec), "-M", "1024",
                        "-o", str(out)], capfd) == 0
    assert _body(out) == _old_construct_body(load_weight_spec(str(spec)), 1024)


def test_scalar_bytes_match_per_value_render(tmp_path, capfd):
    out = tmp_path / "scalar.csv"
    assert _quiet_main(["scalar", "--preset", "inverse-cos", "-o", str(out)],
                       capfd) == 0
    grid = CircleGrid(256)
    with np.errstate(divide="ignore"):
        v0 = 1.0 / (1.0 + np.cos(grid.nodes))
    result = koosis_pipeline(v0, grid, seed=DEFAULT_SEED, basis_size=12)
    rows = ["theta,v0,v1,flag"]
    for idx, theta in enumerate(grid.nodes):
        rows.append(f"{_fmt(theta)},{_fmt(result.v0[idx])},"
                    f"{_fmt(result.v1[idx])},{int(result.flags[idx])}")
    assert _body(out) == "\n".join(rows) + "\n"


@pytest.mark.parametrize("schatten_p", ["1e6", "1e309"])
def test_construct_at_huge_and_infinite_schatten_index(tmp_path, capfd, schatten_p):
    # JSON reads 1e309 as inf; s^p of the mean norm used to overflow at 1e6
    # (the weight scaled to zero) and read 1 at inf (normalization violated)
    spec = tmp_path / "spec.json"
    spec.write_text('{"dim": 2, "kind": "fourier", "schatten_p": %s, "data": ['
                    '{"n": 0, "real": [[3.0, 0.0], [0.0, 0.5]]}, '
                    '{"n": 1, "real": [[0.5, 0.0], [0.0, 0.1]]}]}' % schatten_p)
    out = tmp_path / "table.csv"
    assert _quiet_main(["construct", "--weight-spec", str(spec), "-M", "64",
                        "-o", str(out)], capfd) == 0
    table = _table(out)
    assert max(np.abs(table[f"w1_{i}{i}_re"]).max() for i in range(2)) > 0.1


def _old_model_body(weight, sizes):
    """The model-check table rendered value by value with _fmt."""
    weight = normalize(weight)
    models = [build_model(weight, size) for size in sizes]
    table = cross_validate(build_system(weight), cli.MODEL_POINTS, models)
    rows = ["kind,size,a,b,value"]
    for i, z in enumerate(table.zs):
        for j, size in enumerate(table.sizes):
            rows.append(f"xval,{size},{_fmt(z.real)},{_fmt(z.imag)},"
                        f"{_fmt(table.errors[i, j])}")
    for model in models:
        measure = spectral_nu1(model)
        for omega, mass in zip(measure.angles, measure.trace_masses()):
            rows.append(f"spectral,{model.size},{_fmt(omega)},{_fmt(0.0)},{_fmt(mass)}")
    return "\n".join(rows) + "\n"


def test_model_check_fixture_bytes_match_per_value_render(tmp_path, capfd):
    out = tmp_path / "model.csv"
    assert _quiet_main(["model-check", "--fixture", "W_COS", "--modes", "64", "256",
                        "1024", "-o", str(out)], capfd) == 0
    assert _body(out) == _old_model_body(fixture("W_COS"), [64, 256, 1024])


def test_model_check_spec_bytes_match_per_value_render(tmp_path, capfd):
    spec = tmp_path / "k2.json"
    save_weight_spec(random_polynomial_weight(np.random.default_rng(32), 2), spec)
    out = tmp_path / "model.csv"
    assert _quiet_main(["model-check", "--weight-spec", str(spec), "-o", str(out)],
                       capfd) == 0
    assert _body(out) == _old_model_body(load_weight_spec(str(spec)), [64, 128, 256])


def _per_point_cross_validate(system, zs, models):
    """cross_validate with one psi1 call per probe point and model size."""
    zs = np.asarray(list(zs), dtype=complex)
    errors = np.array([[np.linalg.norm(psi_direct(model, 1, z) - system.psi1(z), 2)
                        for model in models] for z in zs])
    return CrossValidation(zs=zs, sizes=np.array([m.size for m in models]), errors=errors)


@pytest.mark.parametrize("source", ["fixture", "spec"])
def test_model_check_takes_psi1_once(tmp_path, capfd, monkeypatch, source):
    if source == "fixture":
        argv = ["--fixture", "W_COS", "--modes", "64", "128", "256"]
    else:
        spec = tmp_path / "k2.json"
        save_weight_spec(random_polynomial_weight(np.random.default_rng(32), 2), spec)
        argv = ["--weight-spec", str(spec)]
    calls = []
    psi1 = DeBrangesSystem.psi1

    def counted(self, z):
        calls.append(np.size(z))
        return psi1(self, z)

    monkeypatch.setattr(DeBrangesSystem, "psi1", counted)
    out = tmp_path / "model.csv"
    assert _quiet_main(["model-check", *argv, "-o", str(out)], capfd) == 0
    assert calls == [len(cli.MODEL_POINTS)]
    monkeypatch.setattr(model_module, "cross_validate", _per_point_cross_validate)
    reference = tmp_path / "reference.csv"
    assert _quiet_main(["model-check", *argv, "-o", str(reference)], capfd) == 0
    assert out.read_bytes() == reference.read_bytes()


def test_construct_eigensolves_each_stack_once(tmp_path, monkeypatch):
    """No eigh and two eigvalsh (w1 = Im psi1 and w0) over the M-node stacks;
    the report reuses both spectra.  A 1x1 stack takes no SVD."""
    spec = tmp_path / "k3.json"
    save_weight_spec(random_polynomial_weight(np.random.default_rng(31), 3), spec)
    calls = {"eigh": 0, "eigvalsh": 0, "svd": 0}
    shapes = []
    for name in calls:
        solver = getattr(np.linalg, name)

        def counted(a, *args, _solver=solver, _name=name, **kwargs):
            if np.ndim(a) == 3 and np.shape(a)[0] == 1024:
                calls[_name] += 1
                shapes.append((_name, np.shape(a)))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    out = tmp_path / "table.csv"
    assert main(["construct", "--weight-spec", str(spec), "-M", "1024",
                 "-o", str(out)]) == 0
    assert calls == {"eigh": 0, "eigvalsh": 2, "svd": 1}
    shapes.clear()
    assert main(["construct", "--fixture", "W_COS", "-M", "1024", "-o", str(out)]) == 0
    assert ("svd", (1024, 1, 1)) not in shapes
