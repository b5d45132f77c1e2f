import json
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from spectral_nsr.cli import main
from spectral_nsr.errors import BadParams, FormatError
from spectral_nsr.harness import gen_dataset, save_dataset, split_dataset
from spectral_nsr.pipeline import REFERENCE_LAMBDA_MAX, PipelineConfig
from spectral_nsr.rules import load_rules
from spectral_nsr.trainer import Checkpoint, TrainRun, train

REFERENCE = Path(__file__).parent / "data" / "reference_checkpoint.json"
RULES = REFERENCE.parent / "reference_rules.txt"


def reference_payload():
    return json.loads(REFERENCE.read_text())


def corrupt(edit):
    payload = reference_payload()
    edit(payload)
    return json.dumps(payload)


def extra_param(payload):
    payload["params"]["bogus"] = [0.0]


def ungated_with_gate_vectors(payload):
    # the gate vectors without the bands key that says the file is gated
    del payload["config"]["bands"]
    payload["params"]["theta"] = payload["params"]["theta"][0]


@pytest.fixture(params=[(extra_param, ["bogus"]), (ungated_with_gate_vectors, ["q", "s"])], ids=["bogus", "s-q"])
def unknown(request):
    """An edit of the reference checkpoint that leaves params it does not
    know, and their names."""
    return request.param


class TestConfigSchema:
    def test_seven_fields(self):
        assert [f.name for f in fields(PipelineConfig)] == [
            "laplacian", "order", "rules", "threshold_mode", "tau", "alpha", "seed",
        ]

    def test_text_round_trip(self):
        cfg = PipelineConfig(laplacian="normalized", order=3, rules="r.txt", tau=0.25, alpha=4.5, seed=9)
        assert PipelineConfig.from_text(cfg.to_text()) == cfg

    def test_retired_keys_are_dropped(self):
        text = "order=3\ncrossover=64\npath=chebyshev\nbands=1\n"
        assert PipelineConfig.from_text(text) == PipelineConfig(order=3)

    def test_exact_path_rejected(self):
        with pytest.raises(FormatError):
            PipelineConfig.from_text("order=3\npath=exact\n")

    @pytest.mark.parametrize("value", ["0", "2", "3", "1.0", "one"])
    def test_band_gate_rejected(self, value):
        with pytest.raises(FormatError, match="band gate is retired"):
            PipelineConfig.from_text(f"order=3\nbands={value}\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(FormatError):
            PipelineConfig.from_text("crossovers=64\n")

    def test_seed_comes_only_from_the_text(self, monkeypatch):
        monkeypatch.setenv("SPECTRAL_NSR_SEED", "7")
        assert PipelineConfig.from_text("seed=3\n").seed == 3
        assert PipelineConfig.from_text("order=3\n").seed == 0

    @pytest.mark.parametrize("key, text, value", [
        ("tau", "nan", float("nan")), ("alpha", "inf", float("inf")), ("order", "-1", -1), ("seed", "-3", -3),
        ("laplacian", "bogus", "bogus"), ("threshold_mode", "soft", "soft"),
    ])
    def test_refused_value_names_its_line(self, key, text, value):
        with pytest.raises(FormatError, match=f"line 3: malformed value for {key}: {key} must"):
            PipelineConfig.from_text(f"order=3\n# a comment\n{key}={text}\n")
        # called directly, the config still raises BadParams
        with pytest.raises(BadParams, match=f"{key} must"):
            PipelineConfig(**{key: value})

    @pytest.mark.parametrize("field, value", [("order", "5"), ("order", 1.5), ("tau", None), ("seed", True), ("seed", -1)])
    def test_field_types_and_seed_sign(self, field, value):
        with pytest.raises(BadParams, match=field):
            PipelineConfig(**{field: value})

    def test_integer_float_fields_become_floats(self):
        cfg = PipelineConfig(tau=1, alpha=np.float64(4.0), seed=np.int64(2))
        assert (type(cfg.tau), type(cfg.alpha), type(cfg.seed)) == (float, float, int)


class TestCheckpointFormat:
    def test_reference_checkpoint_loads_without_retired_keys(self):
        assert {"crossover", "path", "bands"} <= set(reference_payload()["config"])
        ckpt = Checkpoint.load(REFERENCE)
        assert ckpt.config == PipelineConfig(rules="tests/data/reference_rules.txt", tau=0.4)
        assert set(json.loads(ckpt.to_json())["config"]) == {f.name for f in fields(PipelineConfig)}

    @pytest.mark.parametrize("bands", [1, "1"], ids=["number", "text"])
    def test_gated_checkpoint_keeps_its_one_theta_row(self, bands):
        # files from before the band gate was retired hold theta as one row
        # and the gate vectors s and q, which a single band never read
        reference = reference_payload()
        assert reference["config"]["bands"] == 1 and {"s", "q"} <= set(reference["params"])
        ckpt = Checkpoint.from_json(corrupt(lambda p: p["config"].update(bands=bands)))
        assert sorted(ckpt.params) == ["alpha", "rule_weights", "tau", "theta"]
        assert np.array_equal(ckpt.params["theta"], np.asarray(reference["params"]["theta"][0]))
        assert set(json.loads(ckpt.to_json())["params"]) == set(ckpt.params)

    def test_only_a_gated_checkpoint_holds_theta_as_a_row(self):
        def ungated(payload):
            del payload["config"]["bands"]
            del payload["params"]["s"], payload["params"]["q"]

        with pytest.raises(FormatError, match="theta"):
            Checkpoint.from_json(corrupt(ungated))

    def test_unknown_params_rejected(self, unknown):
        edit, names = unknown
        with pytest.raises(FormatError, match="unknown") as info:
            Checkpoint.from_json(corrupt(edit))
        assert all(repr(name) in str(info.value) for name in names)

    @pytest.mark.parametrize("command", ["eval", "inspect-ckpt"])
    def test_unknown_params_exit_one(self, tmp_path, unknown, command):
        edit, names = unknown
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(corrupt(edit))
        args = [command, "--ckpt", str(ckpt), "--json-errors"]
        if command == "eval":
            data = tmp_path / "data"
            save_dataset(gen_dataset("transitive", 3, seed=1), data, splits=(1, 1, 1))
            args += ["--data", str(data)]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1
        record = json.loads(result.stderr.strip().splitlines()[-1])
        assert record["error"] == "FormatError" and all(repr(name) in record["message"] for name in names)

    @pytest.mark.parametrize("value", [2, 0, "2", 1.5, None, [1]], ids=["2", "0", "text-2", "1.5", "null", "list"])
    def test_band_gate_rejected(self, value):
        with pytest.raises(FormatError, match="band gate is retired"):
            Checkpoint.from_json(corrupt(lambda p: p["config"].update(bands=value)))

    def test_round_trip(self):
        ckpt = Checkpoint.load(REFERENCE)
        back = Checkpoint.from_json(ckpt.to_json())
        assert back.config == ckpt.config
        assert back.metadata == ckpt.metadata
        assert back.params.keys() == ckpt.params.keys()
        for key, value in ckpt.params.items():
            assert np.array_equal(back.params[key], value)
        assert json.loads(back.to_json())["config"] == asdict(ckpt.config)

    def test_exact_path_rejected(self):
        with pytest.raises(FormatError):
            Checkpoint.from_json(corrupt(lambda p: p["config"].update(path="exact")))

    def test_truncated_json(self):
        with pytest.raises(FormatError):
            Checkpoint.from_json(REFERENCE.read_text()[:200])

    @pytest.mark.parametrize("where", [("metadata",), ("config", "order"), ("params", "theta")])
    def test_missing_key(self, where):
        def drop(payload):
            *path, last = where
            for key in path:
                payload = payload[key]
            del payload[last]

        with pytest.raises(FormatError):
            Checkpoint.from_json(corrupt(drop))

    @pytest.mark.parametrize("value", [["a", "b"], [None], [[1.0], [1.0, 2.0]], {"x": 1.0}])
    def test_non_numeric_array(self, value):
        with pytest.raises(FormatError):
            Checkpoint.from_json(corrupt(lambda p: p["params"].update(rule_weights=value)))

    @pytest.mark.parametrize(
        "name, value",
        [
            ("theta", [[0.5, 0.1, 0.0]]),  # width 3 under order=5
            ("theta", [[0.0] * 6, [0.0] * 6]),  # two rows
            ("theta", [[[0.0] * 6]]),
            ("alpha", [8.0]),
            ("rule_weights", [[0.5, 0.5]]),
            # one threshold for every node, shape (1,)
            ("tau", 0.4),
            ("tau", [[0.4]]),
            ("tau", []),
        ],
    )
    def test_param_shape_disagrees_with_config(self, name, value):
        with pytest.raises(FormatError):
            Checkpoint.from_json(corrupt(lambda p: p["params"].update({name: value})))

    @pytest.mark.parametrize(
        "name, value",
        [("order", -1), ("order", 5.0), ("laplacian", "x"), ("tau", "abc"), ("threshold_mode", "soft"), ("seed", True)],
    )
    def test_malformed_config_value(self, tmp_path, name, value):
        text = corrupt(lambda p: p["config"].update({name: value}))
        with pytest.raises(FormatError, match=name):
            Checkpoint.from_json(text)
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(text)
        result = CliRunner().invoke(main, ["inspect-ckpt", "--ckpt", str(ckpt), "--json-errors"])
        assert result.exit_code == 1
        record = json.loads(result.stderr.strip().splitlines()[-1])
        assert record["error"] == "FormatError" and name in record["message"]

    @pytest.mark.parametrize(
        "name, value, error",
        [
            ("alpha", [8.0, 8.0], "FormatError"),
            ("rule_weights", [0.3, 0.3, 0.3], "BadParams"),
            ("tau", [0.4, 0.4], "FormatError"),
        ],
    )
    def test_params_that_do_not_fit_exit_one_from_eval(self, tmp_path, name, value, error):
        def edit(payload):
            payload["config"].update(rules=str(RULES))
            payload["params"][name] = value

        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(corrupt(edit))
        data = tmp_path / "data"
        save_dataset(gen_dataset("transitive", 3, seed=1), data, splits=(1, 1, 1))
        result = CliRunner().invoke(main, ["eval", "--ckpt", str(ckpt), "--data", str(data), "--json-errors"])
        assert result.exit_code == 1
        record = json.loads(result.stderr.strip().splitlines()[-1])
        assert record["error"] == error and name in record["message"]

    @pytest.mark.parametrize(
        "edit",
        [
            lambda p: p.update(metadata=["epoch", 12]),
            lambda p: p.update(metadata="epoch 12"),
            lambda p: p.update(metadata=None),
            lambda p: p.update(format="not-a-checkpoint"),
            lambda p: p.update(version=99),
            lambda p: p.pop("format"),
            lambda p: p.pop("version"),
            lambda p: p["metadata"].update(rule_ids="transitive"),
            lambda p: p["metadata"].update(rule_ids=[1, 2]),
            lambda p: p["metadata"].update(rule_ids=None),
        ],
        ids=[
            "metadata-list", "metadata-string", "metadata-null", "format", "version", "no-format", "no-version",
            "rule-ids-string", "rule-ids-numbers", "rule-ids-null",
        ],
    )
    def test_malformed_header_or_metadata_exits_one(self, tmp_path, edit):
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(corrupt(edit))
        result = CliRunner().invoke(main, ["inspect-ckpt", "--ckpt", str(ckpt), "--json-errors"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        record = json.loads(result.stderr.strip().splitlines()[-1])
        assert record["error"] == "FormatError"

    def test_trained_checkpoint_has_no_optimizer_state(self):
        tasks = gen_dataset("transitive", 12, seed=1)
        run = TrainRun(max_epochs=1, batch_size=4, seed=0, latency_probe=0)
        ckpt = train(PipelineConfig(tau=0.4, rules=str(RULES)), split_dataset(tasks, (8, 4, 0)), run).checkpoint
        assert set(json.loads(ckpt.to_json())) == {"format", "version", "config", "params", "metadata"}

    @pytest.mark.parametrize(
        "edit",
        [
            lambda o: o["m"].pop("theta"),
            lambda o: o["v"].update(extra=[0.0]),
            lambda o: o["m"].update(q=[0.0] * 7),
            lambda o: o["v"].update(theta=[[0.0] * 5]),
            lambda o: o.update(step=-1),
            lambda o: o.clear(),
        ],
        ids=["missing", "extra", "short-q", "narrow-theta", "negative-step", "empty"],
    )
    def test_optimizer_state_is_dropped_on_load(self, edit):
        # older files carry Adam's state; whatever it holds, the params load unchanged
        reference = reference_payload()
        assert reference["optimizer"]["step"] > 0
        ckpt = Checkpoint.from_json(corrupt(lambda p: edit(p["optimizer"])))
        # the file's gate vectors go too, and its one theta row is the filter
        expected = {name: value for name, value in reference["params"].items() if name not in ("s", "q")}
        expected["theta"] = expected["theta"][0]
        assert ckpt.params.keys() == expected.keys()
        for name, value in expected.items():
            assert np.array_equal(ckpt.params[name], np.asarray(value, dtype=np.float64)), name
        assert "optimizer" not in json.loads(ckpt.to_json())

    def test_inspect_ckpt_lists_no_gate_vectors(self):
        result = CliRunner().invoke(main, ["inspect-ckpt", "--ckpt", str(REFERENCE)])
        assert result.exit_code == 0, result.output
        params = result.output.split("params:\n")[1].split("metadata:")[0]
        assert [line.split(":")[0].strip() for line in params.splitlines()] == ["alpha", "rule_weights", "tau", "theta"]
        assert "theta: shape [6]" in params

    def test_inspect_ckpt_exit_codes(self, tmp_path):
        runner = CliRunner()
        assert runner.invoke(main, ["inspect-ckpt", "--ckpt", str(REFERENCE)]).exit_code == 0
        bad = tmp_path / "bad.json"
        for text in (REFERENCE.read_text()[:200], corrupt(lambda p: p["params"].update(theta=[[0.5, 0.1, 0.0]]))):
            bad.write_text(text)
            result = runner.invoke(main, ["inspect-ckpt", "--ckpt", str(bad)])
            assert result.exit_code == 1
            assert isinstance(result.exception, SystemExit)


def swapped_reference_rules(directory):
    """The reference rules with their two lines swapped, where the reference
    checkpoint's relative ``rules=`` path resolves from ``directory``."""
    path = directory / "tests" / "data" / RULES.name
    path.parent.mkdir(parents=True)
    lines = [line for line in RULES.read_text().splitlines() if line.startswith("rule ")]
    assert len(lines) == 2
    path.write_text("\n".join(reversed(lines)) + "\n")
    return path


class TestRuleIds:
    """A checkpoint's rule weights belong to the rules its metadata names, in order."""

    def test_rules_in_another_order_exit_one_from_eval(self, tmp_path, monkeypatch):
        data = tmp_path / "data"
        save_dataset(gen_dataset("transitive", 3, seed=1), data, splits=(1, 1, 1))
        monkeypatch.chdir(tmp_path)
        swapped_reference_rules(tmp_path)
        args = ["eval", "--ckpt", str(REFERENCE), "--data", str(data), "--no-latency", "--json-errors"]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1
        record = json.loads(result.stderr.strip().splitlines()[-1])
        assert record["error"] == "FormatError"
        assert "['transitive', 'conflict']" in record["message"]
        assert "['conflict', 'transitive']" in record["message"]

    def test_a_checkpoint_without_rule_ids_still_runs(self, tmp_path):
        # with nothing to compare against, any two rules fit its two weights
        ckpt = Checkpoint.from_json(corrupt(lambda p: p["metadata"].pop("rule_ids")))
        assert "rule_ids" not in ckpt.metadata
        pipe = ckpt.pipeline(rules=load_rules(swapped_reference_rules(tmp_path), REFERENCE_LAMBDA_MAX))
        pipe.run_task(gen_dataset("transitive", 1, seed=1)[0])
