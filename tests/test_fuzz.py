"""Every parser fed token soup, and the reference checkpoint with one field
changed and then run: anything that goes wrong must be a `SpectralNsrError`,
and a checkpoint that does not load must be refused with a `FormatError`."""

import copy
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_nsr.errors import BadParams, FormatError, SpectralNsrError
from spectral_nsr.graph import load_graph_json, load_graph_text
from spectral_nsr.harness import gen_transitive
from spectral_nsr.pipeline import REFERENCE_LAMBDA_MAX, PipelineConfig
from spectral_nsr.rules import parse_rules
from spectral_nsr.spectral import load_filter
from spectral_nsr.symbolic import parse_kb
from spectral_nsr.trainer import Checkpoint

DATA = Path(__file__).parent / "data"

FUZZ = settings(max_examples=60, deadline=None, derandomize=True)

# the words of the graph, KB, rule and config formats, and values that stress them
WORDS = [
    "N", "node", "edge", "entity", "fact", "proposition", "atom", "clause", ":-", ",", "exclusive", "rule", "#",
    "low-pass", "high-pass", "band-pass", "heat", "custom", "combinatorial", "normalized", "hard", "logistic",
    "chebyshev", "exact",
]
VALUES = [
    "0", "1", "2", "3", "-1", "0.5", "1e999", "nan", "inf", "-inf", "99999999999999999999", "x", "", "a", "b",
    ".", "reference_rules.txt", "missing.csv",
]
NON_FINITE = ["nan", "inf", "-inf", "1e999", "NaN", "-Infinity"]
KEYS = [
    "kind", "w", "beta", "t", "center", "sigma", "gain", "file", "scope", "laplacian", "order", "bands", "rules",
    "threshold_mode", "tau", "alpha", "seed", "crossover", "path",
]
TOKEN = st.one_of(
    st.sampled_from(WORDS + VALUES),
    st.tuples(st.sampled_from(KEYS), st.sampled_from(VALUES + WORDS)).map("=".join),
)
LINE = st.tuples(st.sampled_from(WORDS + KEYS), st.lists(TOKEN, max_size=5)).map(
    lambda parts: " ".join([parts[0], *parts[1]])
)
SOUP = st.lists(st.one_of(LINE, st.lists(TOKEN, max_size=5).map(" ".join)), max_size=8).map("\n".join)

SCALAR = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 12),
    st.sampled_from([0.5, -1.0, 8.0, 1e300, float("nan"), float("inf"), float("-inf"), 10**30]),
    st.sampled_from(VALUES + WORDS),
)
JSON_KEYS = ["nodes", "edges", "id", "kind", "label", "config", "params", "optimizer", "metadata", "step", "m", "v"]
JSON = st.recursive(
    SCALAR,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(JSON_KEYS + KEYS), inner, max_size=4),
    max_leaves=12,
)
GRAPH_JSON = st.one_of(
    JSON,
    st.fixed_dictionaries({
        "nodes": st.lists(st.dictionaries(st.sampled_from(["id", "kind", "label"]), SCALAR, max_size=3), max_size=4),
        "edges": st.lists(st.lists(SCALAR, min_size=2, max_size=4), max_size=4),
    }),
)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def only_package_errors(parse, value):
    try:
        parse(value)
    except SpectralNsrError:
        pass


def load_checkpoint(text):
    """The checkpoint in ``text``, or None where loading refuses it, which it may do only with `FormatError`."""
    try:
        return Checkpoint.from_json(text)
    except FormatError:
        return None


class TestParsers:
    @FUZZ
    @given(text=SOUP)
    def test_text_formats(self, scratch, text):
        path = scratch / "graph.txt"
        path.write_text(text)
        only_package_errors(PipelineConfig.from_text, text)
        only_package_errors(parse_kb, text)
        only_package_errors(lambda t: parse_rules(t, REFERENCE_LAMBDA_MAX, base_dir=DATA), text)
        only_package_errors(load_graph_text, path)

    @FUZZ
    @given(payload=GRAPH_JSON)
    def test_json_formats(self, scratch, payload):
        path = scratch / "graph.json"
        path.write_text(json.dumps(payload))
        only_package_errors(load_graph_json, path)
        load_checkpoint(json.dumps(payload))


class TestNonFinite:
    """A non-finite number is malformed input wherever a setting takes a float."""

    @pytest.mark.parametrize("token", NON_FINITE)
    def test_config(self, token):
        for key in ("tau", "alpha"):
            with pytest.raises(FormatError, match="line 1: .*finite"):
                PipelineConfig.from_text(f"{key}={token}")

    @pytest.mark.parametrize("token", NON_FINITE)
    def test_rules(self, token):
        lines = [f"rule r kind=low-pass w={token}", f"rule r kind=custom w={token} file=x.csv"]
        lines += [f"rule r kind={kind} {key}={token}" for kind, key in
                  [("low-pass", "beta"), ("heat", "t"), ("band-pass", "center"), ("band-pass", "sigma"),
                   ("high-pass", "gain")]]
        for line in lines:
            with pytest.raises(FormatError, match="finite"):
                parse_rules(line, REFERENCE_LAMBDA_MAX)

    def test_custom_response_samples(self, scratch):
        path = scratch / "response.csv"
        path.write_text("0.0,1.0\n1.0,nan\n")
        with pytest.raises(FormatError, match="not finite"):
            parse_rules("rule r kind=custom file=response.csv", REFERENCE_LAMBDA_MAX, base_dir=scratch)


REFERENCE = json.loads((DATA / "reference_checkpoint.json").read_text())
# independent of the working directory
REFERENCE["config"]["rules"] = str(DATA / "reference_rules.txt")
# a field is its path in the checkpoint: the header keys, the series, tau and
# the metadata as wholes, every entry of the series and every key of the
# config and metadata
FIELDS = [("format",), ("version",), ("series",), ("tau",), ("metadata",)] + [
    ("series", i) for i in range(len(REFERENCE["series"]))
] + [(section, key) for section in ("config", "metadata") for key in REFERENCE[section]]
TASK = gen_transitive(3, width=2, seed=0)


def run_checkpoint(ckpt):
    ckpt.pipeline().run_task(TASK)


class TestMutatedCheckpoint:
    def test_reference_runs(self):
        run_checkpoint(load_checkpoint(json.dumps(REFERENCE)))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(field=st.sampled_from(FIELDS), value=JSON)
    def test_one_field_changed(self, field, value):
        payload = copy.deepcopy(REFERENCE)
        *sections, key = field
        target = payload
        for section in sections:
            target = target[section]
        target[key] = value
        ckpt = load_checkpoint(json.dumps(payload))
        if ckpt is not None:
            only_package_errors(run_checkpoint, ckpt)


class TestJsonNumbers:
    """A bool, a string or null where a file needs a number is a `FormatError` naming the file."""

    @pytest.mark.parametrize("value", [True, "0.5", None], ids=["bool", "string", "null"])
    @pytest.mark.parametrize(
        "load, payload",
        [
            (load_graph_json, lambda v: {"nodes": [{"id": 0}, {"id": 1}], "edges": [[0, 1, v]]}),
            (load_filter, lambda v: {"lambda_max": v, "coefficients": [1.0]}),
            (load_filter, lambda v: {"lambda_max": 2.0, "coefficients": [1.0, v]}),
            (Checkpoint.load, lambda v: {**REFERENCE, "tau": v}),
            (Checkpoint.load, lambda v: {**REFERENCE, "series": [*REFERENCE["series"][:-1], v]}),
        ],
        ids=["edge-weight", "lambda-max", "coefficient", "tau", "series"],
    )
    def test_non_number_is_refused(self, tmp_path, load, payload, value):
        path = tmp_path / "file.json"
        path.write_text(json.dumps(payload(value)))
        with pytest.raises(FormatError, match=re.escape(f"{path}: ")):
            load(path)
