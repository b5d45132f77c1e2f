import re

import numpy as np
import pytest

from spectral_nsr.errors import BadParams, EmptyRuleSet, FormatError
from spectral_nsr.graph import combinatorial_laplacian
from spectral_nsr.pipeline import REFERENCE_LAMBDA_MAX, rule_rows
from spectral_nsr.rules import SpectralRule, builtin_template, load_rules, parse_rules, rule_coefficients
from spectral_nsr.spectral import (
    ChebyshevFilter,
    FrequencyResponse,
    chebyshev_filter,
    eigendecompose,
    exact_filter,
    fit_chebyshev,
    sample_response,
    vertex_signal,
)

from conftest import random_graph

ORDER = 16


@pytest.fixture
def basis30(rng):
    """A 30-node graph's Laplacian and its dense eigenbasis, the oracle."""
    g = random_graph(rng, 30, density=0.2)
    lap = combinatorial_laplacian(g)
    return lap, eigendecompose(lap)


def top(basis):
    return max(float(basis.eigenvalues[-1]), 1e-9)


def unit_rule(rule_id="r", weight=1.0):
    return SpectralRule(rule_id, FrequencyResponse(lambda lam: np.ones_like(lam)), weight)


def rule_filter(rules, lam_max, order=ORDER, weights=None):
    """The pipeline's composed rule filter: weights @ rule_coefficients rows."""
    if weights is None:
        weights = np.array([r.weight for r in rules])
    return ChebyshevFilter(weights @ rule_coefficients(tuple(rules), lam_max, order), lam_max)


def apply(lap, filt, b):
    return chebyshev_filter(lap, filt, vertex_signal(b)).values


def operator_matrix(lap, filt):
    return np.column_stack([apply(lap, filt, e) for e in np.eye(lap.node_count)])


def sup_error(filt, template):
    grid = np.linspace(0.0, filt.lambda_max, 512)
    return np.abs(sample_response(filt, grid) - template(grid)).max()


class TestRuleOperator:
    def test_identity_template(self, basis30):
        lap, basis = basis30
        op = operator_matrix(lap, rule_filter([unit_rule()], top(basis)))
        assert np.abs(op - np.eye(30)).max() <= 1e-9

    def test_lambda_template_reconstructs_laplacian(self, basis30):
        lap, basis = basis30
        op = operator_matrix(lap, rule_filter([SpectralRule("lam", FrequencyResponse(lambda lam: lam))], top(basis)))
        assert np.abs(op - lap.toarray()).max() <= 1e-7

    def test_low_pass_matches_dense_oracle(self, basis30, rng):
        lap, basis = basis30
        template = FrequencyResponse(lambda lam: 1.0 / (1.0 + lam))
        filt = rule_filter([SpectralRule("lp", template)], top(basis))
        b = rng.standard_normal(30)
        oracle = exact_filter(basis, template, vertex_signal(b)).values
        assert np.abs(apply(lap, filt, b) - oracle).max() <= sup_error(filt, template) * np.linalg.norm(b) + 1e-9

    def test_dense_operator_symmetric(self, basis30):
        lap, basis = basis30
        op = operator_matrix(lap, rule_filter([SpectralRule("h", FrequencyResponse(lambda lam: np.exp(-lam)))], top(basis)))
        assert np.abs(op - op.T).max() <= 1e-12

    def test_operator_eigenvalues_equal_template(self, basis30):
        lap, basis = basis30
        template = FrequencyResponse(lambda lam: 1.0 / (1.0 + 2.0 * lam))
        filt = rule_filter([SpectralRule("lp", template)], top(basis))
        op = operator_matrix(lap, filt)
        got = np.sort(np.linalg.eigvalsh((op + op.T) / 2.0))
        # the operator's eigenvalues are the fitted response on the spectrum,
        # which is the template up to the fit's sup error
        assert np.abs(got - np.sort(sample_response(filt, basis.eigenvalues))).max() <= 1e-9
        assert np.abs(got - np.sort(template(basis.eigenvalues))).max() <= sup_error(filt, template) + 1e-9

    def test_chebyshev_path_agrees_with_dense(self, basis30, rng):
        lap, basis = basis30
        template = FrequencyResponse(lambda lam: np.exp(-0.7 * lam))
        filt = rule_filter([SpectralRule("heat", template)], top(basis), order=24)
        b = rng.standard_normal(30)
        dense_out = exact_filter(basis, template, vertex_signal(b)).values
        # agreement bounded by the fit's sampled sup-norm error
        assert np.abs(dense_out - apply(lap, filt, b)).max() <= sup_error(filt, template) * np.linalg.norm(b) + 1e-9


class TestApplyRule:
    def test_identity(self, basis30, rng):
        lap, basis = basis30
        b = rng.standard_normal(30)
        assert np.abs(apply(lap, rule_filter([unit_rule()], top(basis)), b) - b).max() <= 1e-9

    def test_zero_signal(self, basis30):
        lap, basis = basis30
        assert np.allclose(apply(lap, rule_filter([unit_rule()], top(basis)), np.zeros(30)), 0.0, atol=0)

    def test_linearity(self, basis30, rng):
        lap, basis = basis30
        filt = rule_filter([SpectralRule("h", FrequencyResponse(lambda lam: np.exp(-lam)))], top(basis))
        b1, b2 = rng.standard_normal(30), rng.standard_normal(30)
        a = 1.7
        lhs = apply(lap, filt, a * b1 + b2)
        rhs = a * apply(lap, filt, b1) + apply(lap, filt, b2)
        assert np.abs(lhs - rhs).max() <= 1e-10 * max(np.abs(rhs).max(), 1.0)


class TestComposeRules:
    def three_rules(self, lam_max):
        return [
            SpectralRule("lp", builtin_template("low-pass", lam_max, beta=1.5), weight=0.7),
            SpectralRule("hp", builtin_template("high-pass", lam_max), weight=0.2),
            SpectralRule("band", builtin_template("band-pass", lam_max), weight=1.1),
        ]

    def test_single_rule_equals_rule_operator(self, basis30):
        _, basis = basis30
        template = FrequencyResponse(lambda lam: 1.0 / (1.0 + lam))
        composed = rule_filter([SpectralRule("lp", template, weight=1.0)], top(basis))
        single = fit_chebyshev(template, ORDER, top(basis))
        assert np.array_equal(composed.coefficients, single.coefficients)

    def test_two_half_weight_copies_equal_one(self, basis30, rng):
        lap, basis = basis30
        template = FrequencyResponse(lambda lam: np.exp(-lam))
        halves = rule_filter([SpectralRule("a", template, 0.5), SpectralRule("b", template, 0.5)], top(basis))
        one = rule_filter([SpectralRule("c", template, 1.0)], top(basis))
        assert np.abs(halves.coefficients - one.coefficients).max() <= 1e-12
        b = rng.standard_normal(30)
        assert np.abs(apply(lap, halves, b) - apply(lap, one, b)).max() <= 1e-12 * max(np.linalg.norm(b), 1.0)

    def test_matches_term_by_term_application(self, basis30, rng):
        lap, basis = basis30
        rules = self.three_rules(top(basis))
        composed = rule_filter(rules, top(basis))
        singles = [rule_filter([r], top(basis), weights=np.ones(1)) for r in rules]
        for _ in range(50):
            b = rng.standard_normal(30)
            summed = sum(r.weight * apply(lap, f, b) for r, f in zip(rules, singles))
            assert np.abs(apply(lap, composed, b) - summed).max() <= 1e-9

    def test_weight_scaling_scales_contribution(self, basis30, rng):
        lap, basis = basis30
        template = FrequencyResponse(lambda lam: np.exp(-lam))
        other = SpectralRule("other", FrequencyResponse(lambda lam: np.ones_like(lam)), weight=1.0)
        b = rng.standard_normal(30)
        c = 3.0
        base_out = apply(lap, rule_filter([SpectralRule("r", template, 1.0), other], top(basis)), b)
        scaled_out = apply(lap, rule_filter([SpectralRule("r", template, c), other], top(basis)), b)
        other_out = apply(lap, rule_filter([other], top(basis)), b)
        assert np.allclose(scaled_out - other_out, c * (base_out - other_out), atol=1e-9)

    def test_empty_rule_set(self):
        with pytest.raises(EmptyRuleSet):
            rule_coefficients((), 2.0, ORDER)

    def test_scoped_rules_rejected(self):
        # every rule acts on the whole graph, so a scope is an unknown key
        with pytest.raises(FormatError):
            parse_rules("rule s kind=low-pass w=1.0 scope=1,2\n", 2.0)

    def test_chebyshev_path_coefficient_sum(self, basis30):
        _, basis = basis30
        lam_max = top(basis)
        rules = self.three_rules(lam_max)
        weights = np.array([r.weight for r in rules])
        total = FrequencyResponse(lambda lam: sum(r.weight * r.template(lam) for r in rules))
        # least squares is linear in its target: summed rows fit the summed response
        fitted = fit_chebyshev(total, 12, lam_max).coefficients
        assert np.allclose(weights @ rule_coefficients(tuple(rules), lam_max, 12), fitted, atol=1e-12)


class TestBuiltinTemplates:
    def test_low_pass_small_beta_is_identity(self):
        template = builtin_template("low-pass", 2.0, beta=1e-12)
        grid = np.linspace(0, 2, 20)
        assert np.abs(template(grid) - 1.0).max() <= 1e-11

    def test_high_pass_zero_at_dc(self):
        template = builtin_template("high-pass", 2.0)
        assert template(np.array([0.0]))[0] == 0.0
        assert template(np.array([2.0]))[0] == pytest.approx(1.0)

    def test_heat_kernel_value(self):
        template = builtin_template("heat-kernel", 4.0, t=0.5)
        assert template(np.array([2.0]))[0] == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_band_pass_peaks_at_center(self):
        template = builtin_template("band-pass", 2.0, center=1.0, sigma=0.2)
        assert template(np.array([1.0]))[0] == pytest.approx(1.0)
        assert template(np.array([0.0]))[0] < 0.01

    @pytest.mark.parametrize(
        "kind,params",
        [("low-pass", {"beta": 0.0}), ("heat-kernel", {"t": -1.0}), ("band-pass", {"sigma": 0.0}), ("high-pass", {"gain": 0.0})],
    )
    def test_bad_params(self, kind, params):
        with pytest.raises(BadParams):
            builtin_template(kind, 2.0, **params)

    def test_unknown_kind(self):
        with pytest.raises(BadParams):
            builtin_template("notch", 2.0)


class TestRuleDsl:
    def test_high_pass_scale_is_the_parse_bound(self):
        # a rule file is parsed on the reference interval [0, 2]; each graph
        # stretches it over its own spectrum, so gain is reached at every
        # graph's bound, from the same rows
        (rule,) = parse_rules("rule sharp kind=high-pass w=1.0 gain=0.7\n", REFERENCE_LAMBDA_MAX)
        (row,) = rule_rows([rule], 5)
        for lam_max in (2.0, 6.0):
            grid = np.linspace(0.0, lam_max, 25)
            fitted = ChebyshevFilter(row, lam_max)
            assert np.abs(sample_response(fitted, grid) - 0.7 * grid / lam_max).max() <= 1e-12
            assert sample_response(fitted, [lam_max])[0] == pytest.approx(0.7, abs=1e-12)

    def test_rule_kind_is_its_templates(self):
        assert SpectralRule("r", builtin_template("heat-kernel", 2.0)).kind == "heat-kernel"
        assert SpectralRule("r", FrequencyResponse(lambda lam: lam)).kind == "custom"
        with pytest.raises(TypeError):
            SpectralRule("r", builtin_template("low-pass", 2.0), kind="high-pass")

    def test_parse_basic(self):
        text = "rule r1 kind=low-pass w=0.5 beta=2.0\nrule r2 kind=heat w=1.5 t=0.2\n"
        rules = parse_rules(text, 2.0)
        assert [r.rule_id for r in rules] == ["r1", "r2"]
        assert rules[0].weight == 0.5
        assert rules[0].kind == "low-pass"
        assert rules[1].kind == "heat-kernel"
        assert rules[1].template(np.array([1.0]))[0] == pytest.approx(np.exp(-0.2))

    def test_parse_custom_csv(self, tmp_path):
        (tmp_path / "resp.csv").write_text("0.0,1.0\n1.0,0.5\n2.0,0.0\n")
        rules = parse_rules("rule c kind=custom w=1 file=resp.csv\n", 2.0, base_dir=tmp_path)
        assert rules[0].template(np.array([0.5]))[0] == pytest.approx(0.75)

    @pytest.mark.parametrize("name", ["missing.csv", "."])
    def test_unreadable_custom_file(self, tmp_path, name):
        path = tmp_path / name
        with pytest.raises(FormatError, match=re.escape(f"line 1: {path}: cannot read {path}: ")):
            parse_rules(f"rule c kind=custom w=1 file={name}\n", 2.0, base_dir=tmp_path)

    def test_load_rules_file(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("# comment\nrule lp kind=low-pass w=1.0\n")
        rules = load_rules(path, 2.0)
        assert len(rules) == 1

    @pytest.mark.parametrize(
        "line",
        [
            "rule r1 w=1.0",  # missing kind
            "rule r1 kind=custom w=1.0",  # custom without file
            "rule r1 kind=low-pass w=abc",  # malformed weight
            "rule r1 kind=low-pass w=1.0 bogus=3",  # unknown key
            "rulex r1 kind=low-pass",  # unknown record
        ],
    )
    def test_parse_errors(self, line):
        with pytest.raises(FormatError):
            parse_rules(line + "\n", 2.0)

    @pytest.mark.parametrize(
        "line, what",
        [
            ("rule r1 kind=low-pass w=-1", "weight"),
            ("rule r1 kind=low-pass w=1.0 beta=0", "beta"),
            ("rule r1 kind=band-pass w=1.0 sigma=-1", "sigma"),
            ("rule r1 kind=bogus w=1.0", "bogus"),
        ],
    )
    def test_invalid_value_names_its_line(self, line, what):
        with pytest.raises(FormatError, match=f"line 2: .*{what}"):
            parse_rules("# a comment\n" + line + "\n", 2.0)

    def test_repeated_rule_id_rejected(self):
        # a checkpoint names its weights by rule id, so an id names one rule
        text = "rule lp kind=low-pass w=1.0\nrule hp kind=high-pass\nrule lp kind=heat w=0.5\n"
        with pytest.raises(FormatError, match="line 3: rule id 'lp' is given twice"):
            parse_rules(text, 2.0)

    @pytest.mark.parametrize(
        "line, key",
        [
            ("rule r1 kind=low-pass w=0.5 w=0.9", "w"),
            ("rule r1 kind=low-pass w=1.0 beta=1 beta=3", "beta"),
            ("rule r1 kind=low-pass kind=heat w=1.0", "kind"),
            ("rule r1 kind=custom w=1 file=a.csv file=b.csv", "file"),
        ],
    )
    def test_repeated_key_rejected(self, line, key):
        # the last value of a repeated key used to win silently
        with pytest.raises(FormatError, match=f"line 2: key '{key}' is given twice"):
            parse_rules("# a comment\n" + line + "\n", 2.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(BadParams):
            SpectralRule("r", FrequencyResponse(lambda lam: lam), weight=-0.1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "kind, param",
        [
            ("low-pass", "beta"),
            ("heat-kernel", "t"),
            ("band-pass", "center"),
            ("band-pass", "sigma"),
            ("high-pass", "gain"),
        ],
    )
    def test_non_finite_template_param_rejected(self, kind, param, value):
        with pytest.raises(BadParams, match=param):
            builtin_template(kind, 2.0, **{param: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, value):
        with pytest.raises(BadParams, match="weight"):
            SpectralRule("r", FrequencyResponse(lambda lam: lam), weight=value)
