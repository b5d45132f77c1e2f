"""Synthetic reasoning tasks and their evaluation.

Tasks mirror the structure of multi-hop deduction and kinship
composition benchmarks at desk scale: a seeded implication chain the
pipeline must ground from the signal, plus noise-seeded distractor
structures it must reject. Both families, which stand in for the paper's
benchmarks, build through one `_TaskBuilder`: a task's KB declares its
graph's labels as its atoms, and labels always come from that KB's own
forward-chaining closure, never from sampling.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import BadParams, EmptyDataset, FormatError, is_json_number, read_text, reading, records
from .graph import NodeMeta, ReasoningGraph, build_graph, combinatorial_laplacian, load_graph_text, save_graph_text
from .pipeline import Block
from .spectral import load_signal, save_signal, vertex_signal
from .symbolic import Clause, KnowledgeBase, forward_chain, load_kb, save_kb

# belief mass drawn for each distractor's seed node
DISTRACTOR_BELIEF = (0.05, 0.2)

# the deepest transitive chain, which `gen_transitive` and `gen_dataset` accept
MAX_TRANSITIVE_DEPTH = 8

# mean node degree of `random_sparse_laplacian`
RANDOM_GRAPH_DEGREE = 8


@dataclass(frozen=True)
class SyntheticTask:
    """One reasoning episode: graph, initial beliefs, KB, and oracle labels.

    Each node stands for the atom its label names (`ReasoningGraph.labels`);
    the pipeline binds it, and `evaluate` scores it, by that label.
    """

    task_id: str
    family: str
    depth: int
    seed: int
    graph: ReasoningGraph
    x0: np.ndarray
    kb: KnowledgeBase
    labels: dict[int, int]

    @cached_property
    def node_atoms(self) -> MappingProxyType:
        """Read-only node id -> atom view of the graph's labels, built on first use."""
        return MappingProxyType(dict(enumerate(self.graph.labels)))


class _TaskBuilder:
    """A task as it is built: proposition nodes, each the atom its label
    names; edges weighted from the task's own rng; and clauses."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.nodes: list[NodeMeta] = []
        self.edges: list[tuple[int, int, float]] = []
        self.clauses: list[Clause] = []

    def node(self, label: str) -> int:
        self.nodes.append(NodeMeta(len(self.nodes), "proposition", label))
        return len(self.nodes) - 1

    def edge(self, a: int, b: int) -> None:
        self.edges.append((a, b, float(self.rng.uniform(0.75, 1.0))))

    def chain(self, labels: list[str], clause_prefix: str) -> list[int]:
        """A node per label, an edge between each two in a row, then the
        clauses ``<clause_prefix><i>``: label i implies label i + 1."""
        ids = [self.node(label) for label in labels]
        for a, b in zip(ids, ids[1:]):
            self.edge(a, b)
        for i, (a, b) in enumerate(zip(labels, labels[1:])):
            self.clauses.append(Clause(f"{clause_prefix}{i}", b, frozenset({a})))
        return ids

    def task(self, task_id, family, depth, seed, x0, queries, true_facts, exclusive=()) -> SyntheticTask:
        """The graph, a KB whose atoms are its labels, and each query node's
        label: 1 when its atom is in the KB's closure from ``true_facts``."""
        graph = build_graph(self.nodes, self.edges)
        kb = KnowledgeBase(graph.labels, tuple(self.clauses), frozenset(), exclusive)
        closure, _ = forward_chain(kb.with_facts(true_facts))
        labels = {i: int(graph.labels[i] in closure) for i in queries}
        return SyntheticTask(task_id, family, depth, seed, graph, x0, kb, labels)


def gen_transitive(depth: int, width: int = 2, seed: int = 0) -> SyntheticTask:
    """Implication chain P0 -> ... -> P<depth> with noise-seeded distractor chains.

    The chain and each distractor Q<j>_0 -> ... -> Q<j>_<length> are
    built alike (`_TaskBuilder.chain`), the distractor's length drawn up
    to ``depth``. The signal carries mass on the chain's base fact and
    small noise on each distractor head; the KB holds every implication
    but no facts, so grounding the base fact is the spectral stage's job.
    Queries are all proposition nodes except the base fact.
    """
    if not 1 <= depth <= MAX_TRANSITIVE_DEPTH:
        raise BadParams(f"depth must be in 1..{MAX_TRANSITIVE_DEPTH}, got {depth}")
    if width < 0:
        raise BadParams("width must be >= 0")
    b = _TaskBuilder(seed)
    base = b.chain([f"P{i}" for i in range(depth + 1)], "t")[0]
    noise_nodes = []
    for j in range(width):
        length = int(b.rng.integers(1, depth + 1))
        noise_nodes.append(b.chain([f"Q{j}_{i}" for i in range(length + 1)], f"d{j}_")[0])
    x0 = np.zeros(len(b.nodes))
    x0[base] = float(b.rng.uniform(0.8, 1.0))  # evidence strength varies per task
    for idx in noise_nodes:
        x0[idx] = float(b.rng.uniform(*DISTRACTOR_BELIEF))
    queries = [i for i in range(len(b.nodes)) if i != base]
    return b.task(f"transitive-d{depth}-s{seed}", "transitive", depth, seed, x0, queries, {"P0"})


def gen_kinship(chain_length: int, seed: int = 0) -> SyntheticTask:
    """Pedigree-chain composition task (ancestry depth k from parent links).

    Relation instances are grounded as proposition nodes: anc1_i_j is a
    parent link, anck composes anc1 with anc(k-1). A decoy family with
    noise-seeded parent instances mirrors the true one; per-position
    atoms across the two families are declared mutually exclusive, which
    gives the consistency metric something to detect when decoys leak
    through. Queries are all derived and decoy instances.
    """
    if chain_length < 2:
        raise BadParams(f"chain_length must be >= 2, got {chain_length}")
    b = _TaskBuilder(seed)

    def atom(prefix: str, k: int, i: int) -> str:
        # instance (k, i) = "person i is a k-step ancestor of person i+k"
        return f"{prefix}_anc{k}_{i}_{i + k}"

    def family(prefix: str) -> dict[tuple[int, int], int]:
        index = {(1, i): b.node(atom(prefix, 1, i)) for i in range(chain_length)}
        for k in range(2, chain_length + 1):
            for i in range(chain_length + 1 - k):
                index[(k, i)] = inst = b.node(atom(prefix, k, i))
                b.edge(inst, index[(1, i)])
                b.edge(inst, index[(k - 1, i + 1)])
                body = frozenset({atom(prefix, 1, i), atom(prefix, k - 1, i + 1)})
                b.clauses.append(Clause(f"{prefix}_k{k}_{i}", atom(prefix, k, i), body))
        for i in range(chain_length - 1):
            b.edge(index[(1, i)], index[(1, i + 1)])
        return index

    true_index, decoy_index = family("a"), family("b")

    x0 = np.zeros(len(b.nodes))
    for i in range(chain_length):
        x0[true_index[(1, i)]] = 1.0
        x0[decoy_index[(1, i)]] = float(b.rng.uniform(*DISTRACTOR_BELIEF))
    exclusive = tuple((atom("a", *key), atom("b", *key)) for key in sorted(true_index))
    parents = {atom("a", 1, i) for i in range(chain_length)}
    queries = sorted([idx for key, idx in true_index.items() if key[0] >= 2] + list(decoy_index.values()))
    return b.task(f"kinship-l{chain_length}-s{seed}", "kinship", chain_length, seed, x0, queries, parents, exclusive)


@dataclass(frozen=True)
class TaskSplits:
    train: tuple[SyntheticTask, ...]
    val: tuple[SyntheticTask, ...]
    test: tuple[SyntheticTask, ...]


def gen_dataset(
    family: str,
    n: int,
    seed: int = 0,
    max_depth: int = 5,
    width: int = 2,
) -> list[SyntheticTask]:
    """Generate ``n`` tasks with per-task seeds ``seed*1_000_003 + index``.

    Per-task depth (or kinship chain length) is drawn uniformly up to
    ``max_depth``, checked first against transitive's `MAX_TRANSITIVE_DEPTH`;
    seed partitioning keeps any two datasets with different base seeds
    disjoint.
    """
    if n < 1 or max_depth < 1:
        raise BadParams(f"n and max_depth must be >= 1, got {n} and {max_depth}")
    if family not in ("transitive", "kinship"):
        raise BadParams(f"unknown task family {family!r}")
    if family == "transitive" and max_depth > MAX_TRANSITIVE_DEPTH:
        raise BadParams(f"max_depth must be in 1..{MAX_TRANSITIVE_DEPTH} for transitive tasks, got {max_depth}")
    tasks = []
    for i in range(n):
        task_seed = seed * 1_000_003 + i
        rng = np.random.default_rng(task_seed)
        if family == "transitive":
            depth = int(rng.integers(1, max_depth + 1))
            tasks.append(gen_transitive(depth, width=width, seed=task_seed))
        else:
            length = int(rng.integers(2, max(max_depth, 2) + 1))
            tasks.append(gen_kinship(length, seed=task_seed))
    return tasks


def split_dataset(tasks: list[SyntheticTask], sizes: tuple[int, int, int]) -> TaskSplits:
    """Slice a task list into disjoint train/val/test splits by position."""
    n_train, n_val, n_test = sizes
    if min(sizes) < 0 or n_train + n_val + n_test > len(tasks):
        raise BadParams(f"splits {sizes} are negative or exceed {len(tasks)} tasks")
    return TaskSplits(
        train=tuple(tasks[:n_train]),
        val=tuple(tasks[n_train : n_train + n_val]),
        test=tuple(tasks[n_train + n_val : n_train + n_val + n_test]),
    )


# ---------------------------------------------------------------------------
# dataset directory layout:
#   <dir>/manifest.json
#   <dir>/<task_id>.graph.txt     line-oriented graph format
#   <dir>/<task_id>.kb.txt        KB format
#   <dir>/<task_id>.x0.csv        one signal value per node line
#   <dir>/<task_id>.labels.csv    node_id,label rows over query nodes
# ---------------------------------------------------------------------------


def save_task(task: SyntheticTask, directory: str | Path) -> None:
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    save_graph_text(task.graph, d / f"{task.task_id}.graph.txt")
    save_kb(task.kb, d / f"{task.task_id}.kb.txt")
    save_signal(vertex_signal(task.x0), d / f"{task.task_id}.x0.csv")
    label_lines = [f"{i},{task.labels[i]}" for i in sorted(task.labels)]
    (d / f"{task.task_id}.labels.csv").write_text("\n".join(label_lines) + "\n")


def load_task(directory: str | Path, task_id: str, family: str, depth: int, seed: int) -> SyntheticTask:
    """One task's files; a missing or malformed file raises `FormatError` naming it."""
    d = Path(directory)
    graph = load_graph_text(d / f"{task_id}.graph.txt")
    kb = load_kb(d / f"{task_id}.kb.txt")
    x0_path = d / f"{task_id}.x0.csv"
    x0 = load_signal(x0_path).values
    with reading(x0_path):
        if x0.shape[0] != graph.node_count:
            raise FormatError(f"{x0.shape[0]} values for {graph.node_count} nodes")
    labels_path = d / f"{task_id}.labels.csv"
    labels = {}
    with reading(labels_path):
        for lineno, line in records(read_text(labels_path)):
            with reading(f"line {lineno}"):
                i, lab = (int(part) for part in line.split(","))
                if not 0 <= i < graph.node_count or lab not in (0, 1):
                    raise FormatError(f"node {i} label {lab} is not a 0/1 label of a graph node")
                labels[i] = lab
    return SyntheticTask(task_id, family, depth, seed, graph, x0, kb, labels)


def save_dataset(tasks: list[SyntheticTask], directory: str | Path, splits: tuple[int, int, int] | None = None) -> None:
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    manifest = {
        "tasks": [
            {"task_id": t.task_id, "family": t.family, "depth": t.depth, "seed": t.seed} for t in tasks
        ],
    }
    if splits is not None:
        manifest["splits"] = {"train": splits[0], "val": splits[1], "test": splits[2]}
    (d / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    for t in tasks:
        save_task(t, d)


def load_dataset(directory: str | Path) -> tuple[list[SyntheticTask], tuple[int, int, int] | None]:
    """Tasks and optional split sizes of a dataset directory.

    A missing or malformed manifest or task file raises `FormatError`.
    """
    d = Path(directory)
    manifest_path = d / "manifest.json"
    with reading(manifest_path):
        manifest = json.loads(read_text(manifest_path))
        entries = [
            (
                _manifest_field(entry, "task_id", str),
                _manifest_field(entry, "family", str),
                _manifest_field(entry, "depth", int),
                _manifest_field(entry, "seed", int),
            )
            for entry in manifest["tasks"]
        ]
        splits = None
        if "splits" in manifest:
            splits = tuple(_manifest_field(manifest["splits"], key, int) for key in ("train", "val", "test"))
    return [load_task(d, *entry) for entry in entries], splits


def _manifest_field(entry: dict, key: str, kind: type):
    """``entry[key]``, which must be a JSON string (``kind`` str) or integer (int)."""
    value = entry[key]
    if not (is_json_number(value, integral=True) if kind is int else isinstance(value, kind)):
        raise TypeError(f"{key} must be {kind.__name__}, got {value!r}")
    return value


@dataclass(frozen=True)
class EvalReport:
    """Accuracy, latency, and logical-consistency summary over a task set."""

    accuracy: float
    consistency: float
    n_tasks: int
    n_queries: int
    latency_median_ms: float | None
    latency_p95_ms: float | None

    def to_json(self) -> str:
        """The report as one JSON object; the latency keys appear only when latency was measured."""
        payload = {
            "accuracy": self.accuracy,
            "consistency": self.consistency,
            "n_tasks": self.n_tasks,
            "n_queries": self.n_queries,
        }
        if self.latency_median_ms is not None:
            payload["latency_median_ms"] = self.latency_median_ms
            payload["latency_p95_ms"] = self.latency_p95_ms
        return json.dumps(payload, sort_keys=True)


def evaluate(pipeline, tasks, measure_latency: bool = True) -> EvalReport:
    """Run a pipeline over tasks, or over a kept `pipeline.Block` of them,
    and score against the oracle labels.

    With ``measure_latency`` each task is one timed query (``run_task``, a
    block of one), run once untimed just before, so the clock times no
    preparation. Without it all tasks run as one block (``run_tasks``),
    which gives the same answers, and the latency fields are None.
    ``pipeline`` needs only those two methods; a `Pipeline` checked its
    series and tau when it was made, so neither re-checks them. A list of
    tasks is made into a fresh block; a kept block brings its graphs
    prepared, its KBs laid out and its label arrays made, so a block
    evaluated by many pipelines pays for them once.

    Scoring is one pass over the closure bits of the whole block, which
    the block run holds (`PipelineOutput.block_closure_bits`) and the
    timed runs give task by task: a label is predicted true when the bit
    of its node's atom is set (`Block.label_atoms`, -1 for a label its KB
    does not declare, which reads a false bit put last), and a task is
    consistent when no exclusive pair of its KB has both bits set
    (`symbolic.CompiledBlock.exclusive`). No closure is built as a set of
    atoms.
    """
    block = Block.of(tasks)
    if not block.tasks:
        raise EmptyDataset("evaluate needs at least one task")
    latencies = []
    if measure_latency:
        outputs = []
        for task in block.tasks:
            pipeline.run_task(task)
            start = time.perf_counter()
            outputs.append(pipeline.run_task(task))
            latencies.append((time.perf_counter() - start) * 1e3)
        bits = [out.closure_bits for out in outputs]
    else:
        bits = [pipeline.run_tasks(block)[0].block_closure_bits]
    # a label whose atom its KB does not declare has atom -1: the false bit put last
    known = np.concatenate(bits + [np.zeros(1, dtype=bool)])
    labels = block.labelled.values
    correct = int(np.count_nonzero(known[block.label_atoms] == labels))
    pairs, owners = block.compiled.exclusive
    conflicted = np.unique(owners[known[pairs].all(axis=1)]).size
    return EvalReport(
        accuracy=correct / labels.size if labels.size else 0.0,
        consistency=(len(block.tasks) - conflicted) / len(block.tasks),
        n_tasks=len(block.tasks),
        n_queries=labels.size,
        latency_median_ms=float(np.median(latencies)) if measure_latency else None,
        latency_p95_ms=float(np.percentile(latencies, 95)) if measure_latency else None,
    )


def random_sparse_laplacian(n_edges: int, seed: int = 0):
    """Random graph with roughly ``n_edges`` edges and mean degree
    ``RANDOM_GRAPH_DEGREE``, and its combinatorial Laplacian operator."""
    rng = np.random.default_rng(seed)
    n = max(int(n_edges // (RANDOM_GRAPH_DEGREE // 2)), 16)
    i = rng.integers(0, n, size=n_edges)
    j = rng.integers(0, n, size=n_edges)
    keep = i != j
    i, j = i[keep], j[keep]
    w = rng.uniform(0.2, 1.0, size=i.shape[0])
    nodes = [NodeMeta(k, "proposition", f"n{k}") for k in range(n)]
    g = build_graph(nodes, np.column_stack((i, j, w)))
    return g, combinatorial_laplacian(g)
