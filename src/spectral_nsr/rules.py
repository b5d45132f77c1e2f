"""Symbolic rules as spectral templates.

A rule is a frequency response phi_r(lambda) with a non-negative weight:
transitive-style rules live at low frequencies (smooth propagation),
conflict-detection rules at high frequencies (local contrast). A template
is a curve on a reference interval, for a rule file [0,
`pipeline.REFERENCE_LAMBDA_MAX`], which every graph stretches over its
own [0, lambda_max] as it does the learned filter. So `rule_coefficients`
fits each template once per rule set and order, as a row of Chebyshev
coefficients on that interval, and a weighted sum of the rows is one
polynomial filter of every graph's rescaled Laplacian. The fit is least
squares at Chebyshev nodes, which has a closed form: one fixed linear map
per order takes a template's samples to its row (`spectral.fit_coefficients`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BadParams, EmptyRuleSet, FormatError, read_text, reading, records
from .spectral import FrequencyResponse, fit_coefficients


def builtin_template(kind: str, lambda_max: float, **params) -> FrequencyResponse:
    """Parametric response families used by the rule DSL.

    low-pass 1/(1 + beta*lambda); high-pass gain*lambda/lambda_max;
    band-pass exp(-(lambda-center)^2 / (2 sigma^2)), centre lambda_max/2
    and sigma lambda_max/10 by default; heat-kernel exp(-t*lambda).

    Each is a curve on the reference interval [0, ``lambda_max``], for a
    rule file the parse-time `pipeline.REFERENCE_LAMBDA_MAX` of 2.0. A
    graph sees the curve stretched over its own [0, lambda_max]: its
    eigenvalue lambda takes the template's value at ``lambda_max`` *
    lambda / (the graph's lambda_max). So high-pass is gain at every
    graph's bound, and the band-pass defaults sit at the middle and a
    tenth of every graph's spectrum. Low-pass, band-pass and heat-kernel
    stay in [0, 1] for every lambda >= 0.
    """
    if not lambda_max > 0.0:
        raise BadParams(f"lambda_max must be positive, got {lambda_max}")

    def reject_unknown(allowed):
        extra = set(params) - set(allowed)
        if extra:
            raise BadParams(f"{kind} template got unknown params {sorted(extra)}")

    if kind == "low-pass":
        reject_unknown({"beta"})
        beta = float(params.get("beta", 1.0))
        if not 0.0 < beta < math.inf:
            raise BadParams(f"low-pass beta must be finite and > 0, got {beta}")
        return FrequencyResponse(lambda lam: 1.0 / (1.0 + beta * lam), kind="low-pass")
    if kind == "high-pass":
        reject_unknown({"gain"})
        gain = float(params.get("gain", 1.0))
        if not 0.0 < gain < math.inf:
            raise BadParams(f"high-pass gain must be finite and > 0, got {gain}")
        return FrequencyResponse(lambda lam: gain * np.asarray(lam) / lambda_max, kind="high-pass")
    if kind == "band-pass":
        reject_unknown({"center", "sigma"})
        center = float(params.get("center", lambda_max / 2.0))
        sigma = float(params.get("sigma", lambda_max / 10.0))
        if not math.isfinite(center):
            raise BadParams(f"band-pass center must be finite, got {center}")
        if not 0.0 < sigma < math.inf:
            raise BadParams(f"band-pass sigma must be finite and > 0, got {sigma}")
        return FrequencyResponse(
            lambda lam: np.exp(-((np.asarray(lam) - center) ** 2) / (2.0 * sigma**2)),
            kind="band-pass",
        )
    if kind in ("heat-kernel", "heat"):
        reject_unknown({"t"})
        t = float(params.get("t", 1.0))
        if not 0.0 < t < math.inf:
            raise BadParams(f"heat-kernel t must be finite and > 0, got {t}")
        return FrequencyResponse(lambda lam: np.exp(-t * np.asarray(lam)), kind="heat-kernel")
    raise BadParams(f"unknown template kind {kind!r}")


@dataclass(frozen=True)
class SpectralRule:
    """A frequency template phi_r with weight w_r; it acts on the whole graph."""

    rule_id: str
    template: FrequencyResponse
    weight: float = 1.0
    kind = property(lambda self: self.template.kind)

    def __post_init__(self):
        if not 0.0 <= self.weight < math.inf:
            raise BadParams(f"rule {self.rule_id}: weight must be finite and >= 0, got {self.weight}")


def rule_coefficients(rules: tuple[SpectralRule, ...], lambda_max: float, order: int) -> np.ndarray:
    """Per-rule Chebyshev coefficient rows (R, order+1) over [0, lambda_max].

    ``weights @ rows`` is the coefficient vector of the composed filter
    sum_r w_r phi_r: the least-squares fit is linear in its target, so
    summing the rows equals fitting the summed response. The output is
    linear in w_r, which is what the trainer differentiates. Fitted at
    the reference bound the templates were parsed at, the rows serve
    every graph (`pipeline.rule_rows`).
    """
    if not rules:
        raise EmptyRuleSet("rule_coefficients needs at least one rule")
    return fit_coefficients([r.template for r in rules], order, lambda_max)


# ---------------------------------------------------------------------------
# rule file DSL, one rule per line:
#   rule <id> kind=<low-pass|high-pass|band-pass|heat|custom> w=<float> [params...]
# params: beta= (low-pass), t= (heat), center=/sigma= (band-pass),
# gain= (high-pass), file= (custom: CSV of lambda,value samples).
# Every rule acts on the whole graph; any other key, scope= included,
# is a FormatError. A template is a curve on the reference interval
# [0, lambda_max] of the lambda_max given to parse_rules (2.0 for a
# config's rule file): the high-pass slope gain/lambda_max, the band-pass
# defaults and a custom file's lambda column are on it, and each graph
# stretches the interval over its own [0, lambda_max].
# ---------------------------------------------------------------------------

_FLOAT_PARAMS = ("beta", "t", "center", "sigma", "gain", "w")


def _custom_response(path: Path) -> FrequencyResponse:
    lams, vals = [], []
    with reading(path):
        for lineno, line in records(read_text(path)):
            with reading(f"line {lineno}"):
                lam, val = map(float, line.split(","))
                if not (math.isfinite(lam) and math.isfinite(val)):
                    raise FormatError(f"sample {line!r} is not finite")
                lams.append(lam)
                vals.append(val)
        if len(lams) < 2:
            raise FormatError("custom response needs >= 2 samples")
    lam = np.asarray(lams)
    val = np.asarray(vals)
    idx = np.argsort(lam)
    lam, val = lam[idx], val[idx]
    return FrequencyResponse(lambda x: np.interp(np.asarray(x), lam, val), kind="custom")


def _finite_float(text: str, what: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise FormatError(f"{what} must be finite, got {text!r}")
    return value


def parse_rules(text: str, lambda_max: float, base_dir: str | Path = ".") -> list[SpectralRule]:
    """Parse the rule DSL into SpectralRule values. Malformed or invalid
    content raises `FormatError` naming its line, as does a key given twice
    on a line or a rule id given twice: a checkpoint names its weights by
    rule id."""
    rules = []
    for lineno, line in records(text):
        with reading(f"line {lineno}"):
            parts = line.split()
            if parts[0] != "rule" or len(parts) < 3:
                raise FormatError("expected 'rule <id> key=value ...'")
            rule_id = parts[1]
            if any(rule.rule_id == rule_id for rule in rules):
                raise FormatError(f"rule id {rule_id!r} is given twice")
            kv = {}
            for tok in parts[2:]:
                if "=" not in tok:
                    raise FormatError(f"malformed token {tok!r}")
                key, val = tok.split("=", 1)
                if key in kv:
                    raise FormatError(f"key {key!r} is given twice")
                kv[key] = val
            kind = kv.pop("kind", None)
            if kind is None:
                raise FormatError(f"rule {rule_id} is missing kind=")
            weight = _finite_float(kv.pop("w", "1.0"), "weight")
            if kind == "custom":
                if "file" not in kv:
                    raise FormatError(f"custom rule {rule_id} needs file=")
                template = _custom_response(Path(base_dir) / kv.pop("file"))
            else:
                params = {key: _finite_float(kv.pop(key), f"param {key}") for key in _FLOAT_PARAMS if key in kv}
                template = builtin_template(kind, lambda_max, **params)
            if kv:
                raise FormatError(f"unknown keys {sorted(kv)}")
            rules.append(SpectralRule(rule_id, template, weight=weight))
    return rules


def load_rules(path: str | Path, lambda_max: float) -> list[SpectralRule]:
    with reading(path):
        return parse_rules(read_text(path), lambda_max, base_dir=Path(path).parent)
