import json
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from spectral_nsr.cli import main
from spectral_nsr.errors import BadParams, FormatError
from spectral_nsr.harness import gen_dataset, save_dataset, split_dataset
from spectral_nsr.pipeline import REFERENCE_LAMBDA_MAX, PipelineConfig, check_params, filter_coefficients, rule_rows
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


def extra_key(payload):
    payload["bogus"] = [0.0]


def gate_vectors(payload):
    # version 1's band gate vectors, for which version 2 has no place
    payload["s"], payload["q"] = [[0.0] * 8], [0.0] * 8


@pytest.fixture(params=[(extra_key, ["bogus"]), (gate_vectors, ["q", "s"])], ids=["bogus", "s-q"])
def unknown(request):
    """An edit of the reference checkpoint that adds top-level keys it does
    not know, and their names."""
    return request.param


class TestConfigSchema:
    def test_six_fields(self):
        assert [f.name for f in fields(PipelineConfig)] == ["laplacian", "order", "rules", "tau", "alpha", "seed"]

    def test_text_round_trip(self):
        cfg = PipelineConfig(laplacian="normalized", order=3, rules="r.txt", tau=0.25, alpha=4.5, seed=9)
        assert PipelineConfig.from_text(cfg.to_text()) == cfg

    def test_retired_keys_are_dropped(self):
        text = "order=3\ncrossover=64\npath=chebyshev\nbands=1\nthreshold_mode=hard\nthreshold_mode=logistic\n"
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
        ("laplacian", "bogus", "bogus"), ("alpha", "0", 0.0), ("alpha", "-1", -1.0),
    ])
    def test_refused_value_names_its_line(self, key, text, value):
        with pytest.raises(FormatError, match=f"line 3: malformed value for {key}: {key} must"):
            PipelineConfig.from_text(f"order=3\n# a comment\n{key}={text}\n")
        # called directly, the config still raises BadParams
        with pytest.raises(BadParams, match=f"{key} must"):
            PipelineConfig(**{key: value})

    @pytest.mark.parametrize("key, text, reason", [
        ("bands", "2", "the band gate is retired"),
        ("path", "dense", "only the Chebyshev path remains"),
        ("threshold_mode", "soft", "stage 3 binds y > tau"),
    ], ids=["bands", "path", "threshold_mode"])
    def test_refused_retired_value_names_its_line(self, key, text, reason):
        with pytest.raises(FormatError, match=f"line 2: malformed value for {key}: {key}='{text}' is no longer") as info:
            PipelineConfig.from_text(f"order=3\n{key}={text}\n")
        assert reason in str(info.value)

    @pytest.mark.parametrize("field, value", [("order", "5"), ("order", 1.5), ("tau", None), ("seed", True), ("seed", -1)])
    def test_field_types_and_seed_sign(self, field, value):
        with pytest.raises(BadParams, match=field):
            PipelineConfig(**{field: value})

    def test_repeated_key_names_its_second_line(self):
        with pytest.raises(FormatError, match="line 3: config key 'order' is given twice"):
            PipelineConfig.from_text("order=3\n# a comment\norder=4\n")
        with pytest.raises(FormatError, match="line 2: config key 'tau' is given twice"):
            PipelineConfig.from_text("tau=0.4\ntau=0.4\n")

    def test_integer_float_fields_become_floats(self):
        cfg = PipelineConfig(tau=1, alpha=np.float64(4.0), seed=np.int64(2))
        assert (type(cfg.tau), type(cfg.alpha), type(cfg.seed)) == (float, float, int)


class TestCheckpointFormat:
    def test_reference_checkpoint_loads_without_retired_keys(self):
        payload = reference_payload()
        assert set(payload) == {"format", "version", "config", "series", "tau", "metadata"}
        assert set(payload["config"]) == {f.name for f in fields(PipelineConfig)}
        ckpt = Checkpoint.load(REFERENCE)
        assert ckpt.config == PipelineConfig(rules=str(RULES), tau=0.4)
        assert set(json.loads(ckpt.to_json())["config"]) == {f.name for f in fields(PipelineConfig)}

    def test_version_one_says_to_re_train(self):
        # a version-1 file held the training parameters, not the filter
        with pytest.raises(FormatError, match="version 1 .* re-train"):
            Checkpoint.from_json(corrupt(lambda p: p.update(version=1)))

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
        # a checkpoint's config holds exactly the config's fields
        with pytest.raises(FormatError, match="'bands'"):
            Checkpoint.from_json(corrupt(lambda p: p["config"].update(bands=value)))

    def test_round_trip(self):
        ckpt = Checkpoint.load(REFERENCE)
        back = Checkpoint.from_json(ckpt.to_json())
        assert back.config == ckpt.config
        assert back.metadata == ckpt.metadata
        assert back.series.tobytes() == ckpt.series.tobytes() and back.tau == ckpt.tau
        assert json.loads(back.to_json())["config"] == asdict(ckpt.config)

    def test_exact_path_rejected(self):
        with pytest.raises(FormatError):
            Checkpoint.from_json(corrupt(lambda p: p["config"].update(path="exact")))

    def test_truncated_json(self):
        with pytest.raises(FormatError):
            Checkpoint.from_json(REFERENCE.read_text()[:200])

    @pytest.mark.parametrize("where", [("metadata",), ("config", "order"), ("series",)])
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
            Checkpoint.from_json(corrupt(lambda p: p.update(series=value)))

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
        # the parameters a checkpoint's metadata keeps are the trainer's:
        # each epoch's pass `check_params` before their series is made
        params = {key: np.asarray(v) for key, v in reference_payload()["metadata"]["params"].items()}
        with pytest.raises(BadParams, match=repr(name)):
            check_params(PipelineConfig(), {**params, name: np.asarray(value)}, 2)

    def test_rule_ids_name_one_rule_per_weight(self):
        # a trained checkpoint names the rules its series mixes, in order, one per weight
        tasks = gen_dataset("transitive", 12, seed=1)
        run = TrainRun(max_epochs=1, batch_size=4, seed=0, latency_probe=0)
        rules = load_rules(RULES, REFERENCE_LAMBDA_MAX)
        ckpt = train(PipelineConfig(tau=0.4), split_dataset(tasks, (8, 4, 0)), run, rules=rules).checkpoint
        assert ckpt.metadata["rule_ids"] == [rule.rule_id for rule in rules] == ["transitive", "conflict"]
        assert len(ckpt.metadata["params"]["rule_weights"]) == 2
        metadata = reference_payload()["metadata"]
        assert len(metadata["rule_ids"]) == len(metadata["params"]["rule_weights"])

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
        "name, value",
        [
            # neither order + 1 nor 2 order + 1 coefficients under order=5
            ("series", [0.5] * 7),
            ("series", [0.5] * 12),
            # one threshold for every node
            ("tau", [0.4, 0.4]),
            ("tau", float("inf")),
        ],
        ids=["series-7", "series-12", "tau-list", "tau-inf"],
    )
    def test_filter_that_does_not_fit_exits_one_from_eval(self, tmp_path, name, value):
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(corrupt(lambda p: p.update({name: value})))
        data = tmp_path / "data"
        save_dataset(gen_dataset("transitive", 3, seed=1), data, splits=(1, 1, 1))
        result = CliRunner().invoke(main, ["eval", "--ckpt", str(ckpt), "--data", str(data), "--json-errors"])
        assert result.exit_code == 1
        record = json.loads(result.stderr.strip().splitlines()[-1])
        assert record["error"] == "FormatError" and name in record["message"] and str(ckpt) in record["message"]

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
        assert set(json.loads(ckpt.to_json())) == {"format", "version", "config", "series", "tau", "metadata"}

    def test_inspect_ckpt_lists_no_gate_vectors(self):
        result = CliRunner().invoke(main, ["inspect-ckpt", "--ckpt", str(REFERENCE)])
        assert result.exit_code == 0, result.output
        # the filter it runs, between the config and the metadata
        shown = result.output.split("metadata:")[0].split("\n  seed=0\n")[1]
        assert shown == "series: length 11, |max| 0.382563\ntau: 0.3971356335954758\n"

    def test_inspect_ckpt_exit_codes(self, tmp_path):
        runner = CliRunner()
        assert runner.invoke(main, ["inspect-ckpt", "--ckpt", str(REFERENCE)]).exit_code == 0
        bad = tmp_path / "bad.json"
        for text in (REFERENCE.read_text()[:200], corrupt(lambda p: p.update(series=[0.5, 0.1, 0.0]))):
            bad.write_text(text)
            result = runner.invoke(main, ["inspect-ckpt", "--ckpt", str(bad)])
            assert result.exit_code == 1
            assert isinstance(result.exception, SystemExit)


class TestReferenceFile:
    """The committed reference checkpoint is canonical, and its series is
    the filter its trained parameters and rules make."""

    def test_saved_copy_is_the_committed_text(self, tmp_path, monkeypatch):
        # a copy read and written by relative paths in one directory, whose
        # rules path names a file beside it, as the original's does
        (tmp_path / REFERENCE.name).write_text(REFERENCE.read_text())
        monkeypatch.chdir(tmp_path)
        Checkpoint.load(REFERENCE.name).save("saved.json")
        assert (tmp_path / "saved.json").read_bytes() == REFERENCE.read_bytes()

    def test_series_is_the_trained_filter(self):
        payload = reference_payload()
        params = {name: np.asarray(value, dtype=np.float64) for name, value in payload["metadata"]["params"].items()}
        rows = rule_rows(load_rules(RULES, REFERENCE_LAMBDA_MAX), payload["config"]["order"])
        assert filter_coefficients(params, rows).tobytes() == np.asarray(payload["series"], dtype=np.float64).tobytes()
        assert params["tau"].tobytes() == np.float64(payload["tau"]).tobytes()


def swapped_reference_rules(directory):
    """The reference rules with their two lines swapped, where the reference
    checkpoint's relative ``rules=`` path resolves from a copy of it in
    ``directory``."""
    path = directory / RULES.name
    lines = [line for line in RULES.read_text().splitlines() if line.startswith("rule ")]
    assert len(lines) == 2
    path.write_text("\n".join(reversed(lines)) + "\n")
    return path


class TestRuleIds:
    """A checkpoint's rule weights belong to the rules its metadata names, in order."""

    def test_rules_in_another_order_are_refused(self, tmp_path):
        ckpt = Checkpoint.load(REFERENCE)
        with pytest.raises(FormatError) as info:
            ckpt.pipeline(rules=load_rules(swapped_reference_rules(tmp_path), REFERENCE_LAMBDA_MAX))
        assert "['transitive', 'conflict']" in str(info.value)
        assert "['conflict', 'transitive']" in str(info.value)
        # the rules it names, in order, run the checkpoint's own series
        pipe = ckpt.pipeline(rules=load_rules(RULES, REFERENCE_LAMBDA_MAX))
        assert pipe.coefficients.tobytes() == ckpt.series.tobytes() and pipe.tau == ckpt.tau

    def test_a_checkpoint_without_rule_ids_still_runs(self, tmp_path):
        # with nothing to compare against, any two rules fit its two weights
        ckpt = Checkpoint.from_json(corrupt(lambda p: p["metadata"].pop("rule_ids")))
        assert "rule_ids" not in ckpt.metadata
        pipe = ckpt.pipeline(rules=load_rules(swapped_reference_rules(tmp_path), REFERENCE_LAMBDA_MAX))
        pipe.run_task(gen_dataset("transitive", 1, seed=1)[0])
