"""Mutation adequacy of the check table (DeMillo, Lipton and Sayward, "Hints on
test data selection", 1978).

Each mutant is one plausible fault planted in one function of the program: a
sign, a conjugate, a transpose, a factor, a dropped term or flag clause, a
one-node roll or two swapped arguments, never a scaling tuned to a
tolerance.  It is planted by recompiling that function with one snippet
of its source replaced and patching the copy in wherever the package holds
the function.  With the mutant in place, the full default suite and the
every-weight rows of a seeded k = 2 weight run in this process, and the rows
that fail (value over tolerance) and the rows that raise must be exactly the
ones listed with the mutant.  Every base name of verify.CHECKS must fail
under some mutant: a row that passes under every fault shows nothing.

A row set is written as space-separated tokens, `base[label,...]` for
per-weight rows (WEIGHT is the seeded weight, `*` every fixture and WEIGHT)
and a bare name for a suite row.  When a row set changes, the assertion
message prints the observed sets in this notation.
"""

import __future__

import importlib
import inspect
import sys
import textwrap
from dataclasses import dataclass

import numpy as np
import pytest

from twoweight import verify
from twoweight.verify import CHECKS, SuiteConfig, run_suite, run_weight_checks
from twoweight.weights import FIXTURE_NAMES, random_polynomial_weight

SUBJECTS = (*FIXTURE_NAMES, "WEIGHT")


@dataclass(frozen=True)
class Mutant:
    name: str
    site: str  # "module.function" or "module.Class.method" under twoweight
    old: str   # a snippet that occurs once in the site's source
    new: str
    fails: str
    errors: str = ""


MUTANTS = (
    # spec reader: imaginary parts read with the wrong sign
    Mutant("spec-reader-conjugate", "weights._matrix_stack",
           "return real + 1j * imag",
           "return real - 1j * imag",
           fails="weights.spec_roundtrip[WEIGHT]"),
    # normalization: the weight comes back unscaled
    Mutant("normalize-dropped", "weights.normalize",
           "return w.scaled(1.0 / mean_norm)",
           "return w",
           fails="model.identities[WEIGHT] weights.moment_contraction[WEIGHT] "
                 "weights.normalized[WEIGHT]",
           errors="debranges.alpha_identity[WEIGHT] debranges.companion_ladder[WEIGHT] "
                  "debranges.norm_bound[WEIGHT] debranges.psi1_positivity[WEIGHT] "
                  "debranges.rank_equality[WEIGHT] debranges.reconstruction[WEIGHT] "
                  "debranges.sandwich[WEIGHT] debranges.sandwich_random "
                  "debranges.trace_budget[WEIGHT] hardy.contraction[WEIGHT] "
                  "hardy.gram_identity[WEIGHT] hardy.gram_identity_random "
                  "hardy.hilbert_vs_quadrature[WEIGHT] hardy.linearity[WEIGHT] "
                  "hardy.mult_norm_estimate[WEIGHT] "
                  "hardy.multiplication_identity[WEIGHT] "
                  "hardy.projection_vs_quadrature[WEIGHT] hardy.x_gram[WEIGHT] "
                  "hardy.y_isometry[WEIGHT] herglotz.jump_recovers_weight[WEIGHT] "
                  "herglotz.ladder_vs_exact[WEIGHT] herglotz.pair_kernel[WEIGHT] "
                  "herglotz.positivity[WEIGHT] herglotz.series_vs_quadrature[WEIGHT] "
                  "model.cross_validation[WEIGHT]"),
    # scalar transform: 1/c handed back as the constant c
    Mutant("koosis-constant-inverted", "weights.koosis_transform",
           "grid), c",
           "grid), mean_norm",
           fails="weights.koosis_roundtrip"),
    # Muckenhoupt averages: the trapezoid end-point halves dropped
    Mutant("muckenhoupt-endpoints-dropped", "weights.muckenhoupt_sup",
           "cs_v[a] - 0.5 * (vz[a] + vz[b])",
           "cs_v[a]",
           fails="weights.muckenhoupt_lower"),
    # psi0 series: the coefficients conjugated
    Mutant("psi0-series-conjugate", "herglotz.HerglotzEvaluator.__post_init__",
           "series = coeffs.copy()",
           "series = coeffs.conj()",
           fails="debranges.norm_bound[WEIGHT] debranges.reconstruction[WEIGHT] "
                 "debranges.sandwich_random debranges.trace_budget[WEIGHT] "
                 "hardy.contraction[WEIGHT] hardy.gram_identity[WEIGHT] "
                 "hardy.gram_identity_random hardy.hilbert_vs_quadrature[WEIGHT] "
                 "hardy.multiplication_identity[WEIGHT] "
                 "hardy.projection_vs_quadrature[WEIGHT] hardy.x_gram[WEIGHT] "
                 "hardy.y_isometry[WEIGHT] herglotz.jump_recovers_weight[WEIGHT] "
                 "herglotz.pair_kernel[WEIGHT] herglotz.series_vs_quadrature[WEIGHT] "
                 "model.cross_validation[WEIGHT]"),
    # psi0 off the circle: psi = -iF
    Mutant("psi0-interior-sign", "herglotz.HerglotzEvaluator.psi",
           "values = 1j * evaluate_series",
           "values = -1j * evaluate_series",
           fails="debranges.companion_ladder[*] debranges.psi1_positivity[*] "
                 "hardy.contraction[WEIGHT] hardy.gram_identity[*] "
                 "hardy.gram_identity_random hardy.hilbert_closed_forms "
                 "hardy.hilbert_vs_quadrature[*] hardy.pnorm_projection_const "
                 "hardy.projection_closed_forms hardy.projection_quadrature_rate "
                 "hardy.projection_vs_quadrature[*] hardy.x_gram[WEIGHT] "
                 "herglotz.ladder_vs_exact[*] herglotz.pair_kernel[*] "
                 "herglotz.positivity[*] herglotz.series_vs_quadrature[*] "
                 "model.cross_validation[*]"),
    # alpha: sqrt(I - gg*) in place of sqrt(I - gg*^2)
    Mutant("alpha-square-dropped", "debranges.build_system",
           "1.0 - lam ** 2",
           "1.0 - lam",
           fails="debranges.alpha_identity[WEIGHT,W_DIAG] "
                 "debranges.companion_closed_form[W_DIAG] debranges.deficit[W_DIAG] "
                 "debranges.trace_budget[WEIGHT,W_DIAG] "
                 "model.cross_validation[WEIGHT,W_DIAG]"),
    # D0+ boundary values: one node late
    Mutant("d0-boundary-roll", "debranges.DeBrangesSystem.boundary_profile",
           "self.psi0.ring_values(grid)",
           "np.roll(self.psi0.ring_values(grid), 1, axis=0)",
           fails="debranges.companion_ladder[WEIGHT] "
                 "debranges.norm_bound[W_COS,W_RANK1] "
                 "debranges.rank_equality[W_COS,W_RANK1] "
                 "debranges.reconstruction[WEIGHT,W_COS,W_RANK1] "
                 "debranges.sandwich_random "
                 "hardy.hilbert_vs_quadrature[WEIGHT,W_COS,W_RANK1] "
                 "hardy.multiplication_identity[WEIGHT,W_COS,W_RANK1] "
                 "hardy.projection_quadrature_rate "
                 "hardy.projection_vs_quadrature[WEIGHT,W_COS,W_RANK1] "
                 "hardy.x_gram[WEIGHT,W_COS,W_RANK1] "
                 "hardy.y_isometry[WEIGHT,W_COS,W_RANK1]"),
    # w1: Im of the transpose of psi1+
    Mutant("w1-transpose", "debranges.DeBrangesSystem.companion_weight",
           "imag_part(psi1)",
           "imag_part(np.swapaxes(psi1, -1, -2))",
           fails="debranges.companion_ladder[WEIGHT] debranges.reconstruction[WEIGHT] "
                 "debranges.sandwich[WEIGHT] debranges.sandwich_random "
                 "hardy.x_gram[WEIGHT] hardy.y_isometry[WEIGHT]"),
    # flag rule: the cond(D0+) clause dropped
    Mutant("flag-cond-clause-dropped", "debranges.DeBrangesSystem.companion_weight",
           "flags = flags | (lam",
           "flags = (lam",
           fails="debranges.companion_closed_form[W_COS,W_RANK1] "
                 "debranges.norm_bound[W_COS] verify.koosis_inverse_cos"),
    # X rotation: D0(z) applied to conj(chi)
    Mutant("x-rotation-conjugate", "hardy.HardyOperators._rotate",
           "coefficients[:, :, None]",
           "coefficients.conj()[:, :, None]",
           fails="hardy.contraction[WEIGHT,W_CONST,W_COS,W_RANK1] "
                 "hardy.hilbert_vs_quadrature[*] hardy.linearity[*] "
                 "hardy.pnorm_projection_const hardy.projection_vs_quadrature[*] "
                 "hardy.x_gram[*]"),
    # P- sign: +(i/2)(Xf - Y- f)
    Mutant("p-minus-sign", "hardy.HardyOperators._project",
           "else (-1.0, self.d0_outer)",
           "else (1.0, self.d0_outer)",
           fails="hardy.hilbert_closed_forms "
                 "hardy.hilbert_vs_quadrature[WEIGHT,W_CONST,W_COS,W_RANK1] "
                 "hardy.multiplication_identity[*] hardy.projection_closed_forms "
                 "hardy.projection_vs_quadrature[*]"),
    # Gram matrices: the left factor not conjugated
    Mutant("gram-conjugate-dropped", "hardy.HardyOperators.gram_data",
           "np.tensordot(v.conj(),",
           "np.tensordot(v,",
           fails="hardy.inner_closed_forms "
                 "hardy.mult_norm_estimate[WEIGHT,W_COS,W_RANK1] hardy.x_gram[*] "
                 "hardy.y_isometry[*]"),
    # model factors: V scaled by the singular values of G
    Mutant("model-v-scaled", "model.build_model",
           "v = vh.conj().T",
           "v = vh.conj().T * s",
           fails="model.cross_validation[WEIGHT] model.identities[WEIGHT,W_DIAG] "
                 "model.intertwine[WEIGHT,W_DIAG] model.spectral_ramp "
                 "model.spectral_total_mass[WEIGHT,W_DIAG] "
                 "model.unitarity[WEIGHT,W_DIAG]"),
    # spectral masses: the near node's term dropped from c* K' c
    Mutant("spectral-mass-near-term-dropped", "model._secular_roots",
           "x, far + near / np.sin(0.5 * si) ** 2",
           "x, far",
           fails="model.spectral_atom_window model.spectral_ramp "
                 "model.spectral_total_mass[*]"),
    # scalar pipeline: the Galerkin estimate with its Grams swapped
    Mutant("koosis-grams-swapped", "koosis.koosis_pipeline",
           "gram_norm_estimate(hermitian_part(gram1), hermitian_part(gram0))",
           "gram_norm_estimate(hermitian_part(gram0), hermitian_part(gram1))",
           fails="verify.koosis_const verify.koosis_galerkin"),
)


def _rows(spec: str) -> set:
    """The row names of a row-set spec (see the module docstring)."""
    rows = set()
    for token in spec.split():
        base, _, labels = token.partition("[")
        if labels:
            labels = labels.rstrip("]")
            rows.update(f"{base}[{label}]"
                        for label in (SUBJECTS if labels == "*" else labels.split(",")))
        else:
            rows.add(base)
    return rows


def _spec(names) -> str:
    """The inverse of _rows."""
    labels = {}
    for name in sorted(names):
        base, _, label = name.partition("[")
        labels.setdefault(base, []).append(label.rstrip("]"))
    tokens = []
    for base, ls in labels.items():
        if ls == [""]:
            tokens.append(base)
        else:
            tokens.append(f"{base}[{'*' if sorted(ls) == sorted(SUBJECTS) else ','.join(ls)}]")
    return " ".join(tokens)


def _plant(monkeypatch, mutant: Mutant) -> None:
    """Patch the mutant's copy of its site in wherever twoweight holds it."""
    module_name, _, path = mutant.site.partition(".")
    module = importlib.import_module(f"twoweight.{module_name}")
    *owners, attr = path.split(".")
    owner = module
    for part in owners:
        owner = getattr(owner, part)
    original = vars(owner)[attr]
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(mutant.old) == 1, f"{mutant.name}: the site no longer reads {mutant.old!r}"
    code = compile(source.replace(mutant.old, mutant.new), inspect.getsourcefile(original),
                   "exec", flags=__future__.annotations.compiler_flag, dont_inherit=True)
    namespace = {}
    exec(code, vars(module), namespace)
    if owner is not module:
        monkeypatch.setattr(owner, attr, namespace[attr])
        return
    for name, held in list(sys.modules.items()):
        if name.split(".")[0] == "twoweight":
            for key, value in list(vars(held).items()):
                if value is original:
                    monkeypatch.setattr(held, key, namespace[attr])


def _observed(monkeypatch) -> dict:
    """Rows that fail and rows that raise, over both subjects, in this process."""
    monkeypatch.setattr(verify, "_available_cpus", lambda: 1)
    weight = random_polynomial_weight(np.random.default_rng(7), 2)
    entries = run_suite(SuiteConfig()).entries + run_weight_checks(weight).entries
    return {status: {e.name for e in entries if e.status == status}
            for status in ("fail", "error")}


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_mutant_fails_exactly_its_rows(monkeypatch, mutant):
    _plant(monkeypatch, mutant)
    observed = _observed(monkeypatch)
    expected = {"fail": _rows(mutant.fails), "error": _rows(mutant.errors)}
    assert observed == expected, \
        f"fails={_spec(observed['fail'])!r}\nerrors={_spec(observed['error'])!r}"


def test_every_row_fails_under_some_mutant():
    caught = {name.split("[", 1)[0] for mutant in MUTANTS for name in _rows(mutant.fails)}
    assert caught == {name for name, _, _, _ in CHECKS}
