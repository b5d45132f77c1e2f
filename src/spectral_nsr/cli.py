"""Command-line interface.

Every command keeps one exit-code contract: 0 success, 1 validation error
(bad arguments, inputs or files), 2 numerical failure. The token
``--json-errors``, anywhere on the command line, prints an error to stderr
as one JSON record ``{"error", "message", "stage"}`` instead of a message.
`_Group.main` alone turns errors into exit codes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
import numpy as np

from . import harness, trainer
from .errors import NumericalError, SpectralNsrError, ValidationError
from .graph import load_graph
from .pipeline import PipelineConfig, build_laplacian
from .spectral import (
    chebyshev_filter,
    eigendecompose,
    exact_filter,
    gft,
    load_filter,
    load_signal,
    sample_response,
    save_signal,
)
from .symbolic import forward_chain, format_closure, load_kb


JSON_ERRORS = "--json-errors"


class _Group(click.Group):
    """The CLI's one error boundary: `main` decides every exit code.

    It takes the ``--json-errors`` token out of the arguments, wherever it
    stands, and runs click with ``standalone_mode=False``, so every error
    reaches one ``try``. Click's usage errors and ``Abort`` exit 1, any
    other click exception with its own code, a `ValidationError` 1 and a
    `NumericalError` 2. With the token, a usage or package error is
    printed as one JSON record instead of a message.
    """

    def main(self, args=None, **extra):
        args = list(sys.argv[1:] if args is None else args)
        json_errors = JSON_ERRORS in args
        try:
            return super().main([arg for arg in args if arg != JSON_ERRORS], standalone_mode=False, **extra)
        except click.Abort:
            print("Aborted!", file=sys.stderr)
            sys.exit(1)
        except click.ClickException as exc:
            usage = isinstance(exc, click.UsageError)
            if not (usage and json_errors):
                exc.show()
                sys.exit(1 if usage else exc.exit_code)
            code, record = 1, {"error": "UsageError", "message": exc.format_message(), "stage": None}
        except SpectralNsrError as exc:
            code = 2 if isinstance(exc, NumericalError) else 1
            if not json_errors:
                stage = f" [stage: {exc.stage}]" if exc.stage else ""
                print(f"error: {exc}{stage}", file=sys.stderr)
                sys.exit(code)
            record = {"error": type(exc).__name__, "message": str(exc), "stage": exc.stage}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        sys.exit(code)


@click.group(cls=_Group, epilog=f"Add {JSON_ERRORS} anywhere to print an error on stderr as one JSON record.")
def main():
    """Spectral neuro-symbolic reasoning toolkit."""


@main.command("gen")
@click.option("--family", type=click.Choice(["transitive", "kinship"]), default="transitive")
@click.option("--depth", type=int, default=5, help="Max chain depth (transitive) or chain length (kinship).")
@click.option("--width", type=int, default=2, help="Distractor chains per transitive task.")
@click.option("--n", "count", type=int, default=100, help="Number of tasks.")
@click.option("--seed", type=int, default=0)
@click.option("--splits", default=None, help="train,val,test sizes, e.g. 800,100,100.")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
def gen_cmd(family, depth, width, count, seed, splits, out_dir):
    """Generate a synthetic reasoning dataset."""
    tasks = harness.gen_dataset(family, count, seed=seed, max_depth=depth, width=width)
    split_sizes = None
    if splits:
        try:
            n_train, n_val, n_test = (int(p) for p in splits.split(","))
        except ValueError as exc:
            raise ValidationError(f"--splits needs three comma-separated integer sizes, got {splits!r}") from exc
        split_sizes = (n_train, n_val, n_test)
        harness.split_dataset(tasks, split_sizes)  # validates the sizes
    harness.save_dataset(tasks, out_dir, splits=split_sizes)
    click.echo(f"wrote {len(tasks)} {family} tasks to {out_dir}")


def _load_splits(data_dir: str) -> harness.TaskSplits:
    tasks, splits = harness.load_dataset(data_dir)
    if splits is None:
        n = len(tasks)
        n_val = max(n // 10, 1)
        splits = (n - 2 * n_val, n_val, n_val)
    return harness.split_dataset(tasks, splits)


@main.command("train")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--data", "data_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--out", "ckpt_path", required=True, type=click.Path(dir_okay=False))
@click.option("--metrics", "metrics_path", default=None, type=click.Path(dir_okay=False))
@click.option("--epochs", type=int, default=50)
@click.option("--batch-size", type=int, default=32)
@click.option("--patience", type=int, default=5)
def train_cmd(config_path, data_dir, ckpt_path, metrics_path, epochs, batch_size, patience):
    """Train filter/rule/threshold parameters on a dataset."""
    cfg = PipelineConfig.load(config_path)
    splits = _load_splits(data_dir)
    run = trainer.TrainRun(max_epochs=epochs, batch_size=batch_size, patience=patience, seed=cfg.seed)
    result = trainer.train(cfg, splits, run)
    result.checkpoint.save(ckpt_path)
    if metrics_path:
        Path(metrics_path).write_text(trainer.history_csv(result.history))
    meta = result.checkpoint.metadata
    click.echo(
        f"trained {result.stopped_epoch} epochs; best epoch {meta['epoch']} "
        f"val_acc {meta['val_accuracy']:.4f}; checkpoint -> {ckpt_path}"
    )


@main.command("eval")
@click.option("--ckpt", "ckpt_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--data", "data_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--report", "report_path", default=None, type=click.Path(dir_okay=False))
@click.option("--split", type=click.Choice(["train", "val", "test", "all"]), default="test")
@click.option("--no-latency", is_flag=True, help="Skip wall-clock measurement for reproducible reports.")
def eval_cmd(ckpt_path, data_dir, report_path, split, no_latency):
    """Evaluate a checkpoint on a dataset split."""
    ckpt = trainer.Checkpoint.load(ckpt_path)
    pipe = ckpt.pipeline()
    if split == "all":
        tasks, _ = harness.load_dataset(data_dir)
    else:
        tasks = list(getattr(_load_splits(data_dir), split))
    report = harness.evaluate(pipe, tasks, measure_latency=not no_latency)
    text = report.to_json()
    if report_path:
        Path(report_path).write_text(text + "\n")
    click.echo(text)


@main.command("filter")
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--signal", "signal_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--filter", "filter_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--laplacian", type=click.Choice(["combinatorial", "normalized"]), default="combinatorial")
@click.option("--path", "route", type=click.Choice(["exact", "chebyshev"]), default="chebyshev")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--spectral-out", default=None, type=click.Path(dir_okay=False),
              help="Also write the spectral coefficients (exact path only; the Chebyshev path never forms them).")
def filter_cmd(graph_path, signal_path, filter_path, laplacian, route, out_path, spectral_out):
    """Filter a vertex signal through a stored Chebyshev filter."""
    g = load_graph(graph_path)
    x = load_signal(signal_path)
    filt = load_filter(filter_path)
    cfg = PipelineConfig(laplacian=laplacian)
    lap = build_laplacian(cfg, g)
    if route == "exact":
        basis = eigendecompose(lap)
        y = exact_filter(basis, filt.response(), x)
        if spectral_out:
            save_signal(gft(basis, x), spectral_out)
    else:
        if spectral_out:
            raise ValidationError("--spectral-out requires --path exact")
        y = chebyshev_filter(lap, filt, x)
    save_signal(y, out_path)
    click.echo(f"filtered signal -> {out_path}")


@main.command("response")
@click.option("--filter", "filter_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--grid", type=int, default=64, help="Number of sample points on [0, lambda_max].")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def response_cmd(filter_path, grid, out_path):
    """Export (lambda, h(lambda)) pairs for response inspection."""
    if grid < 1:
        raise ValidationError(f"--grid must be >= 1, got {grid}")
    filt = load_filter(filter_path)
    lams = np.linspace(0.0, filt.lambda_max, grid)
    values = sample_response(filt, lams)
    lines = [f"{float(lam)!r},{float(val)!r}" for lam, val in zip(lams, values)]
    Path(out_path).write_text("\n".join(lines) + "\n")
    click.echo(f"response samples -> {out_path}")


@main.command("chain")
@click.option("--kb", "kb_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--trace", is_flag=True, help="Include proof steps for derived atoms.")
def chain_cmd(kb_path, trace):
    """Forward-chain a knowledge base and print the closure."""
    kb = load_kb(kb_path)
    closure, traces = forward_chain(kb)
    click.echo(format_closure(closure, traces if trace else None, kb=kb), nl=False)


@main.command("inspect-ckpt")
@click.option("--ckpt", "ckpt_path", required=True, type=click.Path(exists=True, dir_okay=False))
def inspect_cmd(ckpt_path):
    """Summarize a checkpoint: config, parameter shapes, metadata."""
    ckpt = trainer.Checkpoint.load(ckpt_path)
    click.echo("config:")
    for line in ckpt.config.to_text().strip().splitlines():
        click.echo(f"  {line}")
    click.echo("params:")
    for name, value in sorted(ckpt.params.items()):
        # a checkpoint trained without rules holds no rule weights
        peak = f", |max| {np.abs(value).max():.6g}" if value.size else ""
        click.echo(f"  {name}: shape {list(value.shape)}{peak}")
    click.echo("metadata:")
    for key, value in sorted(ckpt.metadata.items()):
        click.echo(f"  {key}: {value}")


if __name__ == "__main__":
    main()
