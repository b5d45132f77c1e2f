"""The CLI end to end, its exit codes (1 for malformed datasets and rule
files, 2 for numerical failure), and its JSON error records."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import spectral_nsr
from spectral_nsr.cli import main
from spectral_nsr.errors import FormatError
from spectral_nsr.graph import load_graph, save_graph_json, save_graph_text
from spectral_nsr.harness import gen_dataset, gen_transitive, load_dataset, save_dataset, split_dataset
from spectral_nsr.pipeline import PipelineConfig, build_laplacian
from spectral_nsr.spectral import (
    ChebyshevFilter,
    eigendecompose,
    gft,
    load_signal,
    sample_response,
    save_filter,
    save_signal,
    vertex_signal,
)
from spectral_nsr.symbolic import save_kb
from spectral_nsr.trainer import Checkpoint, TrainRun, train

DATA = Path(__file__).parent / "data"


def invoke(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


@pytest.fixture
def dataset(tmp_path):
    out = tmp_path / "data"
    result = invoke("gen", "--n", 30, "--depth", 4, "--seed", 3, "--splits", "20,5,5", "--out", out)
    assert result.exit_code == 0, result.output
    return out


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "run.cfg"
    PipelineConfig(tau=0.4, rules=str(DATA / "reference_rules.txt")).save(path)
    return path


class TestEndToEnd:
    def test_gen_train_eval_inspect(self, tmp_path, dataset, config):
        ckpt = tmp_path / "ckpt.json"
        result = invoke("train", "--config", config, "--data", dataset, "--out", ckpt, "--epochs", 2)
        assert result.exit_code == 0, result.output
        result = invoke("eval", "--ckpt", ckpt, "--data", dataset, "--no-latency")
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["n_tasks"] == 5 and "latency_median_ms" not in report
        result = invoke("inspect-ckpt", "--ckpt", ckpt)
        assert result.exit_code == 0, result.output
        assert "epoch:" in result.output

    def test_inspect_ckpt_without_rules(self, tmp_path, dataset):
        # a checkpoint trained without rules holds an empty rule_weights
        config = tmp_path / "plain.cfg"
        PipelineConfig(tau=0.4).save(config)
        ckpt = tmp_path / "ckpt.json"
        result = invoke("train", "--config", config, "--data", dataset, "--out", ckpt, "--epochs", 1)
        assert result.exit_code == 0, result.output
        result = invoke("inspect-ckpt", "--ckpt", ckpt)
        assert result.exit_code == 0, result.output
        assert "\nseries: length 6, |max| " in result.output
        assert "'rule_weights': []" in result.output

    def test_training_twice_picks_the_same_checkpoint(self, tmp_path, dataset, config):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            result = invoke("train", "--config", config, "--data", dataset, "--out", path, "--epochs", 3)
            assert result.exit_code == 0, result.output
        a, b = (Checkpoint.load(path) for path in paths)
        assert a.metadata["epoch"] == b.metadata["epoch"]
        assert a.metadata["val_accuracy"] == b.metadata["val_accuracy"]
        assert a.series.tobytes() == b.series.tobytes() and a.tau == b.tau
        assert a.metadata["params"] == b.metadata["params"]

    def test_truncated_manifest_is_a_json_error_record(self, tmp_path, dataset):
        manifest = dataset / "manifest.json"
        manifest.write_text(manifest.read_text()[:100])
        result = invoke("eval", "--ckpt", DATA / "reference_checkpoint.json", "--data", dataset, "--json-errors")
        assert result.exit_code == 1
        record = json.loads(result.stderr.strip().splitlines()[-1])
        assert record["error"] == "FormatError" and "manifest.json" in record["message"]

    @pytest.mark.parametrize("splits", ["4,x,1", "4,1", "-1,4,1"])
    def test_malformed_splits_exit_one(self, tmp_path, splits):
        result = invoke("gen", "--n", 6, "--splits", splits, "--out", tmp_path / "d", "--json-errors")
        assert result.exit_code == 1
        record = json.loads(result.stderr.strip().splitlines()[-1])
        assert "splits" in record["message"]

    def test_non_finite_edge_weight_exits_one(self, dataset):
        tasks, _ = load_dataset(dataset)
        path = dataset / f"{tasks[-1].task_id}.graph.txt"
        lines = path.read_text().splitlines()
        first_edge = next(i for i, line in enumerate(lines) if line.startswith("edge"))
        lines[first_edge] = " ".join(lines[first_edge].split()[:3] + ["nan"])
        path.write_text("\n".join(lines) + "\n")
        result = invoke("eval", "--ckpt", DATA / "reference_checkpoint.json", "--data", dataset, "--json-errors")
        assert result.exit_code == 1
        record = json.loads(result.stderr.strip().splitlines()[-1])
        assert record["error"] == "FormatError" and "non-finite weight" in record["message"]
        assert record["message"].startswith(f"{path}: ")

    @pytest.mark.parametrize("setting", ["tau=nan", "alpha=inf", "tau=-inf"])
    def test_non_finite_config_value_exits_one(self, tmp_path, dataset, config, setting):
        config.write_text(config.read_text() + setting + "\n")
        result = invoke("train", "--config", config, "--data", dataset, "--out", tmp_path / "c.json",
                        "--epochs", 2, "--json-errors")
        assert result.exit_code == 1
        record = json.loads(result.stderr.strip().splitlines()[-1])
        line = len(config.read_text().splitlines())
        assert record["error"] == "FormatError" and f"line {line}: " in record["message"]
        assert "finite" in record["message"]

    @pytest.mark.parametrize("rule", [
        "rule r kind=low-pass w=0.5 beta=nan",
        "rule r kind=low-pass w=nan beta=1.0",
        "rule r kind=band-pass w=0.5 sigma=inf",
    ])
    def test_non_finite_rule_value_exits_one(self, tmp_path, dataset, rule):
        rules = tmp_path / "rules.txt"
        rules.write_text(rule + "\n")
        config = tmp_path / "run.cfg"
        PipelineConfig(rules=str(rules)).save(config)
        result = invoke("train", "--config", config, "--data", dataset, "--out", tmp_path / "c.json",
                        "--epochs", 2, "--json-errors")
        assert result.exit_code == 1
        record = json.loads(result.stderr.strip().splitlines()[-1])
        assert record["error"] == "FormatError" and "finite" in record["message"]

    @pytest.mark.parametrize("rule", [
        "rule s kind=low-pass w=-1",
        "rule s kind=bogus w=1.0",
        "rule r kind=heat w=1.0",
        "rule s kind=low-pass w=0.5 w=0.9 beta=1 beta=3",
    ])
    def test_invalid_rule_exits_one_naming_its_line(self, tmp_path, dataset, rule):
        rules = tmp_path / "rules.txt"
        rules.write_text("rule r kind=low-pass w=0.5\n" + rule + "\n")
        config = tmp_path / "run.cfg"
        PipelineConfig(rules=str(rules)).save(config)
        result = invoke("train", "--config", config, "--data", dataset, "--out", tmp_path / "c.json",
                        "--epochs", 2, "--json-errors")
        assert result.exit_code == 1
        record = json.loads(result.stderr.strip().splitlines()[-1])
        assert record["error"] == "FormatError" and record["message"].startswith(f"{rules}: line 2: ")

    def test_missing_rules_file_exits_one(self, tmp_path, monkeypatch, dataset):
        # a config names its rules file relative to its own directory, so a
        # config without the rules beside it finds none, even run from the
        # directory that holds them
        config = tmp_path / "run.cfg"
        config.write_text("tau=0.4\nrules=reference_rules.txt\n")
        monkeypatch.chdir(DATA)
        result = invoke("train", "--config", config, "--data", dataset, "--out", tmp_path / "c.json", "--epochs", 1,
                        "--json-errors")
        assert result.exit_code == 1
        record = json.loads(result.stderr.strip().splitlines()[-1])
        assert record["error"] == "FormatError"
        assert str(tmp_path / "reference_rules.txt") in record["message"]
        assert not (tmp_path / "c.json").exists()

    def test_dataset_too_small_to_split_names_the_ways_out(self, tmp_path):
        data = tmp_path / "one"
        assert invoke("gen", "--n", 1, "--out", data).exit_code == 0
        result = invoke("eval", "--ckpt", DATA / "reference_checkpoint.json", "--data", data, "--json-errors")
        assert result.exit_code == 1
        message = json.loads(result.stderr.strip().splitlines()[-1])["message"]
        assert str(data) in message and "1 task(s)" in message and "needs 3" in message
        assert "gen --splits" in message and "--split all" in message
        result = invoke("eval", "--ckpt", DATA / "reference_checkpoint.json", "--data", data, "--split", "all",
                        "--no-latency")
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["n_tasks"] == 1


class TestBadArguments:
    """Every bad argument is a validation error: exit 1, never 2, which
    stands for numerical failure."""

    @pytest.mark.parametrize("args, error", [
        ("gen --family transitive --depth 0 --out {tmp}/d --json-errors", "BadParams"),
        ("response --grid -1 --filter {tmp}/filter.json --out {tmp}/r.csv --json-errors", "ValidationError"),
        # click's usage errors print a record too when it is asked for
        ("gen --n abc --out {tmp}/d --json-errors", "UsageError"),
        ("gen --family nope --out {tmp}/d", None),
        ("--bogus", None),
        ("nosuch", None),
    ], ids=["depth-0", "grid-negative", "n-not-an-int", "unknown-family", "unknown-option", "unknown-command"])
    def test_exit_one(self, tmp_path, args, error):
        save_filter(ChebyshevFilter(np.array([1.0, 0.5]), 2.0), tmp_path / "filter.json")
        result = invoke(*args.format(tmp=tmp_path).split())
        assert result.exit_code == 1, result.output
        if error is None:
            assert "Error:" in result.stderr
        else:
            record = json.loads(result.stderr.strip().splitlines()[-1])
            assert record["error"] == error and record["stage"] is None
            if error == "UsageError":
                assert "'--n'" in record["message"] and "Error:" not in result.stderr

    def test_help_lists_no_scaling_benchmark(self):
        result = invoke("--help")
        assert result.exit_code == 0
        assert "bench-scaling" not in result.output and "response" in result.output


def overflowing_filter(tmp_path, route):
    """Filter arguments whose Chebyshev series overflows on a one-edge graph;
    a finite input signal makes a non-finite output, a numerical failure."""
    (tmp_path / "g.txt").write_text("N 2\nnode 0 proposition a\nnode 1 proposition b\nedge 0 1 1.0\n")
    save_signal(vertex_signal([1.0, -1.0]), tmp_path / "x.csv")
    save_filter(ChebyshevFilter(np.array([1e308, 1e308]), 2.0), tmp_path / "f.json")
    return ["filter", "--graph", tmp_path / "g.txt", "--signal", tmp_path / "x.csv", "--filter", tmp_path / "f.json",
            "--out", tmp_path / "y.csv", "--path", route]


class TestExitCodes:
    """One boundary maps every error to 0, 1 or 2, with or without a JSON record."""

    @pytest.mark.parametrize("route", ["chebyshev", "exact"])
    def test_overflowing_filter_exits_two(self, tmp_path, route):
        args = overflowing_filter(tmp_path, route)
        result = invoke(*args)
        assert result.exit_code == 2, result.output
        assert result.stderr.strip().splitlines()[-1].startswith("error: ")
        result = invoke(*args, "--json-errors")
        assert result.exit_code == 2, result.output
        record = json.loads(result.stderr.strip().splitlines()[-1])
        assert record["error"] == "NonFiniteResponse" and record["stage"] is None
        assert not (tmp_path / "y.csv").exists()

    def test_json_errors_before_the_command(self, tmp_path):
        result = invoke("--json-errors", "gen", "--n", "abc", "--out", tmp_path / "d")
        assert result.exit_code == 1
        record = json.loads(result.stderr.strip().splitlines()[-1])
        assert record["error"] == "UsageError" and "'--n'" in record["message"]

    def test_json_errors_is_never_an_option_value(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = invoke("gen", "--out", "--json-errors")
        assert result.exit_code == 1
        record = json.loads(result.stderr.strip().splitlines()[-1])
        assert record["error"] == "UsageError" and "'--out'" in record["message"]
        assert list(tmp_path.iterdir()) == []

    def test_group_help_names_json_errors_once(self):
        assert invoke("--help").output.count("--json-errors") == 1
        assert "--json-errors" not in invoke("gen", "--help").output

    def test_exit_codes_of_a_real_process(self, tmp_path):
        # CliRunner calls main in this process; the contract holds across a process boundary too
        src = str(Path(spectral_nsr.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        cases = [(0, ["--help"]), (1, ["gen", "--n", "abc", "--out", tmp_path / "d"]),
                 (2, overflowing_filter(tmp_path, "chebyshev")), (2, overflowing_filter(tmp_path, "exact"))]
        for code, args in cases:
            command = [sys.executable, "-m", "spectral_nsr.cli", *map(str, args)]
            done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
            assert done.returncode == code, (args, done.stderr)
            if code == 2:  # the error alone, with no numpy warning before it
                assert len(done.stderr.splitlines()) == 1, done.stderr


class TestRetiredBandGate:
    """A config's ``bands`` is an unknown key, whatever its count. A
    checkpoint from before the gate retired is a version-1 file, which no
    longer loads."""

    def last_record(self, result):
        assert result.exit_code == 1, result.output
        return json.loads(result.stderr.strip().splitlines()[-1])

    def test_gated_config_exits_one_from_train(self, tmp_path, dataset, config):
        config.write_text(config.read_text() + "bands=3\n")
        result = invoke("train", "--config", config, "--data", dataset, "--out", tmp_path / "c.json",
                        "--epochs", 1, "--json-errors")
        record = self.last_record(result)
        line = len(config.read_text().splitlines())
        assert record["error"] == "FormatError"
        assert record["message"] == f"{config}: line {line}: unknown config key 'bands'"
        assert not (tmp_path / "c.json").exists()

    def test_gated_checkpoint_exits_one_from_eval(self, tmp_path, dataset):
        payload = json.loads((DATA / "reference_checkpoint.json").read_text())
        payload.update(version=1)
        payload["config"].update(bands=2, rules=str(DATA / "reference_rules.txt"))
        ckpt = tmp_path / "gated.json"
        ckpt.write_text(json.dumps(payload))
        record = self.last_record(invoke("eval", "--ckpt", ckpt, "--data", dataset, "--no-latency", "--json-errors"))
        assert record["error"] == "FormatError" and str(ckpt) in record["message"]
        assert "version 1" in record["message"] and "re-train" in record["message"]


class TestSpectralOut:
    """``filter --spectral-out`` writes the signal's graph Fourier coefficients, on the exact path only."""

    def filter_args(self, tmp_path, route):
        task = gen_transitive(3, seed=0)
        save_graph_text(task.graph, tmp_path / "g.txt")
        save_signal(vertex_signal(task.x0), tmp_path / "x.csv")
        # a bound above the graph's spectrum, as the exact path needs
        save_filter(ChebyshevFilter(np.array([1.0, 0.5]), 10.0), tmp_path / "f.json")
        return ["filter", "--graph", tmp_path / "g.txt", "--signal", tmp_path / "x.csv", "--filter",
                tmp_path / "f.json", "--out", tmp_path / "y.csv", "--path", route,
                "--spectral-out", tmp_path / "xhat.csv"]

    def test_exact_path_writes_the_coefficients(self, tmp_path):
        result = invoke(*self.filter_args(tmp_path, "exact"))
        assert result.exit_code == 0, result.output
        x = load_signal(tmp_path / "x.csv")
        basis = eigendecompose(build_laplacian(PipelineConfig(), load_graph(tmp_path / "g.txt")))
        xhat = load_signal(tmp_path / "xhat.csv")
        assert xhat.values.tobytes() == gft(basis, x).values.tobytes()
        assert np.abs(basis.eigenvectors @ xhat.values - x.values).max() <= 1e-12

    def test_chebyshev_path_refuses_it(self, tmp_path):
        result = invoke(*self.filter_args(tmp_path, "chebyshev"), "--json-errors")
        assert result.exit_code == 1, result.output
        record = json.loads(result.stderr.strip().splitlines()[-1])
        assert record["error"] == "ValidationError" and "--path exact" in record["message"]
        assert not (tmp_path / "xhat.csv").exists() and not (tmp_path / "y.csv").exists()


class TestInvalidFilterFile:
    @pytest.mark.parametrize("text", [
        '{"lambda_max": -1, "coefficients": [1.0]}',
        '{"lambda_max": 2.0, "coefficients": []}',
        '{"lambda_max": 2.0, "coefficients": [NaN]}',
    ], ids=["negative-bound", "no-coefficients", "nan-coefficient"])
    def test_filter_exits_one(self, tmp_path, text):
        task = gen_transitive(3, seed=0)
        save_graph_text(task.graph, tmp_path / "g.txt")
        save_signal(vertex_signal(task.x0), tmp_path / "x.csv")
        (tmp_path / "f.json").write_text(text)
        result = invoke("filter", "--graph", tmp_path / "g.txt", "--signal", tmp_path / "x.csv",
                        "--filter", tmp_path / "f.json", "--out", tmp_path / "y.csv", "--json-errors")
        assert result.exit_code == 1, result.output
        record = json.loads(result.stderr.strip().splitlines()[-1])
        assert record["error"] == "FormatError" and "f.json" in record["message"]


    @pytest.mark.parametrize("command", ["filter", "response"])
    def test_infinite_bound_exits_one(self, tmp_path, command):
        # an infinite bound would squeeze the spectrum to one point
        task = gen_transitive(3, seed=0)
        save_graph_text(task.graph, tmp_path / "g.txt")
        save_signal(vertex_signal(task.x0), tmp_path / "x.csv")
        (tmp_path / "f.json").write_text('{"lambda_max": Infinity, "coefficients": [1.0, 0.5]}')
        inputs = ["--graph", tmp_path / "g.txt", "--signal", tmp_path / "x.csv"] if command == "filter" else []
        result = invoke(command, *inputs, "--filter", tmp_path / "f.json", "--out", tmp_path / "out.csv", "--json-errors")
        assert result.exit_code == 1, result.output
        record = json.loads(result.stderr.strip().splitlines()[-1])
        assert record["error"] == "FormatError" and "positive and finite" in record["message"]
        assert not (tmp_path / "out.csv").exists()


class TestResponse:
    def test_every_line_is_two_floats(self, tmp_path):
        filt = ChebyshevFilter(np.array([1.0, -0.5, 0.25]), 2.0)
        save_filter(filt, tmp_path / "f.json")
        result = invoke("response", "--filter", tmp_path / "f.json", "--grid", 5, "--out", tmp_path / "r.csv")
        assert result.exit_code == 0, result.output
        pairs = [tuple(map(float, line.split(","))) for line in (tmp_path / "r.csv").read_text().splitlines()]
        lams = np.linspace(0.0, 2.0, 5)
        assert pairs == list(zip(lams.tolist(), sample_response(filt, lams).tolist()))


class TestChain:
    KB = (
        "atom A\natom B\natom C\natom D\natom E\natom F\natom G\natom H\n"
        "clause B :- A\nclause C :- A\nclause D :- B, C\nclause F :- D, E\n"
        "clause G :-\nclause H :- G, F\nclause E :- H\n"
        "fact A\nfact E\n"
    )
    CLOSURE = "A\nB\nC\nD\nE\nF\nG\nH\n"
    TRACED = (
        "A\n"
        "B\n  c0: A => B\n"
        "C\n  c1: A => C\n"
        "D\n  c1: A => C\n  c0: A => B\n  c2: B, C => D\n"
        "E\n"
        "F\n  c1: A => C\n  c0: A => B\n  c2: B, C => D\n  c3: D, E => F\n"
        "G\n  c4:  => G\n"
        "H\n  c4:  => G\n  c1: A => C\n  c0: A => B\n  c2: B, C => D\n  c3: D, E => F\n  c5: F, G => H\n"
    )

    @pytest.mark.parametrize("flags, expected", [((), CLOSURE), (("--trace",), TRACED)])
    def test_golden_output(self, tmp_path, flags, expected):
        kb = tmp_path / "kb.txt"
        kb.write_text(self.KB)
        result = invoke("chain", "--kb", kb, *flags)
        assert result.exit_code == 0, result.output
        assert result.stdout == expected


def tiny_splits():
    return split_dataset(gen_dataset("transitive", 6, seed=1), (4, 2, 0))


TINY_RUN = TrainRun(max_epochs=1, batch_size=4, latency_probe=0)


class TestMissingRules:
    def test_train_names_the_path_it_tried(self, tmp_path):
        with pytest.raises(FormatError, match="nowhere.txt"):
            train(PipelineConfig(rules=str(tmp_path / "nowhere.txt")), tiny_splits(), TINY_RUN)


class TestRulesBesideTheirFile:
    """A relative ``rules=`` path is read from the directory of the config
    or checkpoint file that names it, and written relative to the file it
    is saved in; a config made in code reads it from the working
    directory."""

    def test_reference_checkpoint_runs_from_any_directory(self, tmp_path, monkeypatch, dataset):
        outputs = []
        for directory, ckpt, rules in ((DATA.parents[1], Path("tests/data/reference_checkpoint.json"),
                                        "tests/data/reference_rules.txt"),
                                       (tmp_path, DATA / "reference_checkpoint.json", DATA / "reference_rules.txt")):
            monkeypatch.chdir(directory)
            evaluated = invoke("eval", "--ckpt", ckpt, "--data", dataset, "--no-latency")
            inspected = invoke("inspect-ckpt", "--ckpt", ckpt)
            assert evaluated.exit_code == 0 and inspected.exit_code == 0, (evaluated.output, inspected.output)
            # inspect-ckpt shows the rules path it reads, as seen from the working directory
            assert f"  rules={rules}\n" in inspected.output
            outputs.append((evaluated.output, inspected.output.replace(f"rules={rules}", "rules=")))
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][0])["accuracy"] == 1.0

    def test_reference_checkpoint_runs_without_its_rules(self, tmp_path, dataset):
        # inference runs the checkpoint's series and tau and reads no rule file
        alone = tmp_path / "alone"
        alone.mkdir()
        copy = alone / "reference_checkpoint.json"
        copy.write_text((DATA / "reference_checkpoint.json").read_text())
        reports = [invoke("eval", "--ckpt", ckpt, "--data", dataset, "--no-latency")
                   for ckpt in (DATA / "reference_checkpoint.json", copy)]
        assert [report.exit_code for report in reports] == [0, 0], [report.output for report in reports]
        assert reports[0].output == reports[1].output
        assert list(alone.iterdir()) == [copy]

    def test_train_and_eval_with_config_checkpoint_and_work_apart(self, tmp_path, monkeypatch, dataset):
        cfgs, ckpts, work = (tmp_path / name for name in ("cfgs", "ckpts", "work"))
        for directory in (cfgs, ckpts, work):
            directory.mkdir()
        (cfgs / "rules.txt").write_text((DATA / "reference_rules.txt").read_text())
        (cfgs / "run.cfg").write_text("tau=0.4\nrules=rules.txt\n")
        monkeypatch.chdir(work)
        trained = invoke("train", "--config", "../cfgs/run.cfg", "--data", dataset, "--out", "../ckpts/c.json",
                         "--epochs", 1)
        assert trained.exit_code == 0, trained.output
        assert json.loads((ckpts / "c.json").read_text())["config"]["rules"] == "../cfgs/rules.txt"
        reports = []
        for directory, ckpt in ((work, "../ckpts/c.json"), (tmp_path, ckpts / "c.json"), (cfgs, "../ckpts/c.json")):
            monkeypatch.chdir(directory)
            evaluated = invoke("eval", "--ckpt", ckpt, "--data", dataset, "--no-latency")
            assert evaluated.exit_code == 0, evaluated.output
            reports.append(evaluated.output)
        assert reports[0] == reports[1] == reports[2]

    def test_a_config_keeps_its_rules_when_saved_elsewhere(self, tmp_path, monkeypatch):
        beside = tmp_path / "run"
        beside.mkdir()
        (beside / "rules.txt").write_text((DATA / "reference_rules.txt").read_text())
        (beside / "run.cfg").write_text("tau=0.4\nrules=rules.txt\n")
        assert PipelineConfig.load(beside / "run.cfg").rules == str(beside / "rules.txt")
        monkeypatch.chdir(tmp_path)
        cfg = PipelineConfig.load("run/run.cfg")
        assert cfg == PipelineConfig(tau=0.4, rules="run/rules.txt")
        (tmp_path / "out").mkdir()
        cfg.save("out/copy.cfg")
        assert "rules=../run/rules.txt\n" in (tmp_path / "out" / "copy.cfg").read_text()
        assert PipelineConfig.load("out/copy.cfg") == cfg
        # the same config made in code is trained on rules read from the working directory
        with pytest.raises(FormatError, match=re.escape(str(tmp_path / "rules.txt"))):
            train(PipelineConfig(tau=0.4, rules="rules.txt"), tiny_splits(), TINY_RUN)
        monkeypatch.chdir(beside)
        trained = train(PipelineConfig(tau=0.4, rules="rules.txt"), tiny_splits(), TINY_RUN)
        assert trained.checkpoint.metadata["rule_ids"] == ["transitive", "conflict"]


class TestUndecodableFiles:
    """Every loader reads its file as UTF-8 text; bytes that do not decode
    are a `FormatError` naming the file, from every command that reads one."""

    @pytest.mark.parametrize(
        "args, bad",
        [
            (["inspect-ckpt", "--ckpt", "{bad}"], "c.json"),
            (["eval", "--ckpt", "{bad}", "--data", "{data}"], "c.json"),
            (["chain", "--kb", "{bad}"], "k.kb.txt"),
            (["filter", "--graph", "{bad}", "--signal", "{signal}", "--filter", "{filter}", "--out", "{out}"], "x.txt"),
            (["filter", "--graph", "{bad}", "--signal", "{signal}", "--filter", "{filter}", "--out", "{out}"], "x.json"),
            (["filter", "--graph", "{graph}", "--signal", "{bad}", "--filter", "{filter}", "--out", "{out}"], "x.csv"),
            (["filter", "--graph", "{graph}", "--signal", "{signal}", "--filter", "{bad}", "--out", "{out}"], "f.json"),
            (["train", "--config", "{bad}", "--data", "{data}", "--out", "{out}"], "bad.cfg"),
            (["train", "--config", "{config}", "--data", "{data}", "--out", "{out}"], "rules.txt"),
            (["eval", "--ckpt", "{ckpt}", "--data", "{data}"], "data/manifest.json"),
            (["eval", "--ckpt", "{ckpt}", "--data", "{data}"], "data/*.kb.txt"),
            (["eval", "--ckpt", "{ckpt}", "--data", "{data}"], "data/*.labels.csv"),
        ],
        ids=["inspect-ckpt", "eval-ckpt", "chain-kb", "filter-graph-text", "filter-graph-json", "filter-signal",
             "filter-filter", "train-config", "train-rules", "eval-manifest", "eval-task-kb", "eval-task-labels"],
    )
    def test_exits_one_naming_the_file(self, tmp_path, dataset, args, bad):
        task = gen_transitive(2, width=1, seed=0)
        graph, signal, filt, config = (tmp_path / name for name in ("g.txt", "s.csv", "f-ok.json", "run.cfg"))
        save_graph_text(task.graph, graph)
        save_signal(vertex_signal(task.x0), signal)
        save_filter(ChebyshevFilter(np.ones(3), 2.0), filt)
        config.write_text("tau=0.4\nrules=rules.txt\n")
        bad = sorted(tmp_path.glob(bad))[0] if "*" in bad else tmp_path / bad
        bad.write_bytes(b"\xff\xfe")
        paths = {"bad": bad, "data": dataset, "graph": graph, "signal": signal, "filter": filt, "config": config,
                 "out": tmp_path / "out", "ckpt": DATA / "reference_checkpoint.json"}
        result = invoke(*(arg.format(**paths) for arg in args), "--json-errors")
        assert result.exit_code == 1, result.output
        record = json.loads(result.stderr.strip().splitlines()[-1])
        assert record["error"] == "FormatError" and str(bad) in record["message"]


EVAL = ["eval", "--ckpt", "{ckpt}", "--data", "{data}"]
TRAIN = ["train", "--config", "{config}", "--data", "{data}", "--out", "{out}", "--epochs", "1"]
FILTER = ["filter", "--graph", "{graph}", "--signal", "{signal}", "--filter", "{filter}", "--out", "{out}"]


def plant(path, fault):
    """Put ``fault`` into ``path``: a (line number, text) pair replaces that
    line, a function edits the file's JSON in place."""
    if callable(fault):
        payload = json.loads(path.read_text())
        fault(payload)
        path.write_text(json.dumps(payload))
    else:
        lineno, text = fault
        lines = path.read_text().splitlines()
        lines[lineno - 1] = text
        path.write_text("\n".join(lines) + "\n")


class TestPlantedFaults:
    """One malformed line or field in each kind of file the CLI reads exits
    1 with one `FormatError` record whose message starts with the file's
    path, and with ``<path>: line <n>: `` for a record file. A custom
    response file is read for a line of the rule file, so its fault names
    that line first."""

    @pytest.mark.parametrize(
        "args, places, fault",
        [
            (EVAL, [("data/*.graph.txt", 2)], (2, "node x entity a")),
            (EVAL, [("data/*.kb.txt", 1)], (1, "bogus a")),
            (EVAL, [("data/*.x0.csv", 2)], (2, "abc")),
            (EVAL, [("data/*.labels.csv", 1)], (1, "x,1")),
            (EVAL, [("data/manifest.json", None)], lambda p: p["tasks"][0].update(depth="3")),
            (TRAIN, [("run.cfg", 2)], (2, "tau=abc")),
            (TRAIN, [("rules.txt", 2)], (2, "rule r kind=low-pass w=abc")),
            (TRAIN, [("rules.txt", 3), ("resp.csv", 2)], (2, "x,0.5")),
            (["chain", "--kb", "{kb}"], [("k.kb.txt", 1)], (1, "bogus a")),
            (FILTER, [("g.txt", 1)], (1, "N x")),
            ([arg.replace("{graph}", "{graph_json}") for arg in FILTER], [("g.json", None)],
             lambda p: p["edges"][0].__setitem__(2, "x")),
            (FILTER, [("s.csv", 1)], (1, "abc")),
            (FILTER, [("f.json", None)], lambda p: p.update(lambda_max=-1.0)),
            ([arg.replace("{ckpt}", "{ckpt_copy}") for arg in EVAL], [("c.json", None)], lambda p: p.update(tau="x")),
            (["inspect-ckpt", "--ckpt", "{ckpt_copy}"], [("c.json", None)], lambda p: p.update(tau="x")),
        ],
        ids=["eval-task-graph", "eval-task-kb", "eval-task-signal", "eval-task-labels", "eval-manifest",
             "train-config", "train-rules", "train-custom-response", "chain-kb", "filter-graph-text",
             "filter-graph-json", "filter-signal", "filter-filter", "eval-ckpt", "inspect-ckpt"],
    )
    def test_exits_one_naming_the_file_and_line(self, tmp_path, dataset, args, places, fault):
        task = gen_transitive(2, width=1, seed=0)
        save_graph_text(task.graph, tmp_path / "g.txt")
        save_graph_json(task.graph, tmp_path / "g.json")
        save_signal(vertex_signal(task.x0), tmp_path / "s.csv")
        save_filter(ChebyshevFilter(np.ones(3), 2.0), tmp_path / "f.json")
        save_kb(task.kb, tmp_path / "k.kb.txt")
        (tmp_path / "c.json").write_text((DATA / "reference_checkpoint.json").read_text())
        (tmp_path / "run.cfg").write_text("tau=0.4\nrules=rules.txt\n")
        rules = [line for line in (DATA / "reference_rules.txt").read_text().splitlines() if line.startswith("rule ")]
        (tmp_path / "rules.txt").write_text("\n".join(rules + ["rule c kind=custom w=1.0 file=resp.csv"]) + "\n")
        (tmp_path / "resp.csv").write_text("0.0,1.0\n2.0,0.0\n")
        paths = [sorted(tmp_path.glob(name))[0] for name, _ in places]
        plant(paths[-1], fault)
        files = {"data": dataset, "graph": tmp_path / "g.txt", "graph_json": tmp_path / "g.json",
                 "signal": tmp_path / "s.csv", "filter": tmp_path / "f.json", "kb": tmp_path / "k.kb.txt",
                 "config": tmp_path / "run.cfg", "out": tmp_path / "out", "ckpt": DATA / "reference_checkpoint.json",
                 "ckpt_copy": tmp_path / "c.json"}
        result = invoke(*(arg.format(**files) for arg in args), "--json-errors")
        assert result.exit_code == 1, result.output
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "FormatError"
        prefix = "".join(f"{path}: " + (f"line {lineno}: " if lineno else "") for path, (_, lineno) in zip(paths, places))
        assert record["message"].startswith(prefix), record["message"]
        assert not (tmp_path / "out").exists()


@pytest.fixture
def saved(tmp_path):
    out = tmp_path / "set"
    tasks = gen_dataset("transitive", 3, seed=1)
    save_dataset(tasks, out, splits=(1, 1, 1))
    return out, tasks


def edit_manifest(directory, change):
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text())
    change(manifest)
    path.write_text(json.dumps(manifest))


class TestMalformedDataset:
    def test_round_trip(self, saved):
        out, tasks = saved
        loaded, splits = load_dataset(out)
        assert splits == (1, 1, 1)
        assert [t.task_id for t in loaded] == [t.task_id for t in tasks]
        assert all(np.array_equal(a.x0, b.x0) and a.labels == b.labels for a, b in zip(loaded, tasks))

    def test_bad_json(self, saved):
        out, _ = saved
        (out / "manifest.json").write_text('{"tasks": [')
        with pytest.raises(FormatError, match="malformed JSON"):
            load_dataset(out)

    def test_missing_key(self, saved):
        out, _ = saved
        edit_manifest(out, lambda m: m["tasks"][0].pop("family"))
        with pytest.raises(FormatError, match="family"):
            load_dataset(out)

    def test_missing_tasks(self, saved):
        out, _ = saved
        edit_manifest(out, lambda m: m.pop("tasks"))
        with pytest.raises(FormatError, match="tasks"):
            load_dataset(out)

    @pytest.mark.parametrize("key, value", [("depth", 2.5), ("depth", "3"), ("seed", None), ("seed", True)])
    def test_non_integer_depth_or_seed(self, saved, key, value):
        out, _ = saved
        edit_manifest(out, lambda m: m["tasks"][1].__setitem__(key, value))
        with pytest.raises(FormatError, match=key):
            load_dataset(out)

    def test_non_integer_split(self, saved):
        out, _ = saved
        edit_manifest(out, lambda m: m["splits"].__setitem__("val", "1"))
        with pytest.raises(FormatError, match="val"):
            load_dataset(out)

    def test_malformed_x0(self, saved):
        out, tasks = saved
        (out / f"{tasks[0].task_id}.x0.csv").write_text("0.5\nabc\n")
        with pytest.raises(FormatError, match="x0.csv"):
            load_dataset(out)

    def test_x0_of_the_wrong_length(self, saved):
        out, tasks = saved
        path = out / f"{tasks[0].task_id}.x0.csv"
        path.write_text(path.read_text() + "0.0\n")
        with pytest.raises(FormatError, match="values for"):
            load_dataset(out)

    @pytest.mark.parametrize("line", ["1", "1,2,3", "x,1", "1,2", "999,1"])
    def test_malformed_labels(self, saved, line):
        out, tasks = saved
        path = out / f"{tasks[2].task_id}.labels.csv"
        path.write_text(f"0,1\n{line}\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}: line 2: ")):
            load_dataset(out)

    def test_missing_task_file(self, saved):
        out, tasks = saved
        (out / f"{tasks[1].task_id}.kb.txt").unlink()
        with pytest.raises(FormatError, match=tasks[1].task_id):
            load_dataset(out)
