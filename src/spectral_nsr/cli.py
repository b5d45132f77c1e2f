"""Command-line interface.

Exit codes: 0 success, 1 validation error (bad arguments, inputs or
files), 2 numerical failure. With --json-errors a machine-readable error
object is printed to stderr instead of the human-readable message.
"""

from __future__ import annotations

import functools
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


def _print_record(error: str, message: str, stage: str | None) -> None:
    print(json.dumps({"error": error, "message": message, "stage": stage}, sort_keys=True), file=sys.stderr)


def _fail(exc: SpectralNsrError, json_errors: bool) -> int:
    code = 2 if isinstance(exc, NumericalError) else 1
    if json_errors:
        _print_record(type(exc).__name__, str(exc), exc.stage)
    else:
        stage = f" [stage: {exc.stage}]" if exc.stage else ""
        print(f"error: {exc}{stage}", file=sys.stderr)
    return code


def handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, json_errors: bool = False, **kwargs):
        try:
            fn(*args, **kwargs)
        except SpectralNsrError as exc:
            sys.exit(_fail(exc, json_errors))

    return wrapper


def json_errors_option(fn):
    return click.option(JSON_ERRORS, is_flag=True, help="Emit machine-readable errors on stderr.")(fn)


class _Context(click.Context):
    """Turns click's usage errors (exit 2 in click) into validation errors:
    every parse error of the group or a command leaves through this context.
    When the command line asks for ``--json-errors``, the error is printed
    as a record with the error ``UsageError`` and no stage instead."""

    def __exit__(self, exc_type, exc_value, tb):
        suppressed = super().__exit__(exc_type, exc_value, tb)
        if isinstance(exc_value, click.UsageError) and not suppressed:
            exc_value.exit_code = 1
            if self.meta.get(JSON_ERRORS):
                _print_record("UsageError", exc_value.format_message(), None)
                raise click.exceptions.Exit(1) from exc_value
        return suppressed


class _Group(click.Group):
    context_class = _Context

    def parse_args(self, ctx: click.Context, args: list[str]) -> list[str]:
        # the flag may come after the argument that fails to parse, so it
        # is looked for in the raw arguments; meta is shared with subcommands
        ctx.meta[JSON_ERRORS] = JSON_ERRORS in args
        return super().parse_args(ctx, args)


@click.group(cls=_Group)
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
@json_errors_option
@handle_errors
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
@json_errors_option
@handle_errors
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
@json_errors_option
@handle_errors
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
@json_errors_option
@handle_errors
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
@json_errors_option
@handle_errors
def response_cmd(filter_path, grid, out_path):
    """Export (lambda, h(lambda)) pairs for response inspection."""
    if grid < 1:
        raise ValidationError(f"--grid must be >= 1, got {grid}")
    filt = load_filter(filter_path)
    lams = np.linspace(0.0, filt.lambda_max, grid)
    values = sample_response(filt, lams)
    lines = [f"{lam!r},{val!r}" for lam, val in zip(lams, values)]
    Path(out_path).write_text("\n".join(lines) + "\n")
    click.echo(f"response samples -> {out_path}")


@main.command("chain")
@click.option("--kb", "kb_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--trace", is_flag=True, help="Include proof steps for derived atoms.")
@json_errors_option
@handle_errors
def chain_cmd(kb_path, trace):
    """Forward-chain a knowledge base and print the closure."""
    kb = load_kb(kb_path)
    closure, traces = forward_chain(kb)
    click.echo(format_closure(closure, traces if trace else None, kb=kb), nl=False)


@main.command("inspect-ckpt")
@click.option("--ckpt", "ckpt_path", required=True, type=click.Path(exists=True, dir_okay=False))
@json_errors_option
@handle_errors
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
