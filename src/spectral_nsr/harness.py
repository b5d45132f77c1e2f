"""Synthetic reasoning tasks, evaluation, and the edge-scaling benchmark.

Tasks mirror the structure of multi-hop deduction and kinship
composition benchmarks at desk scale: a seeded implication chain the
pipeline must ground from the signal, plus noise-seeded distractor
structures it must reject. Labels always come from the generator's own
forward-chaining closure, never from sampling.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BadParams, EmptyDataset, FormatError
from .graph import NodeMeta, ReasoningGraph, build_graph, combinatorial_laplacian, load_graph_text, save_graph_text
from .rules import builtin_template
from .spectral import chebyshev_filter, estimate_lambda_max, fit_chebyshev, vertex_signal
from .symbolic import Clause, KnowledgeBase, detect_conflicts, forward_chain, load_kb, save_kb


@dataclass(frozen=True)
class SyntheticTask:
    """One reasoning episode: graph, initial beliefs, KB, and oracle labels."""

    task_id: str
    family: str
    depth: int
    seed: int
    graph: ReasoningGraph
    x0: np.ndarray
    kb: KnowledgeBase
    node_atoms: dict[int, str]
    labels: dict[int, int]


def _closure_labels(kb: KnowledgeBase, true_facts: set[str], node_atoms: dict[int, str], query_nodes) -> dict[int, int]:
    closure, _ = forward_chain(kb.with_facts(true_facts))
    return {i: int(node_atoms[i] in closure) for i in query_nodes}


def gen_transitive(depth: int, width: int = 2, seed: int = 0, noise: tuple[float, float] = (0.05, 0.2)) -> SyntheticTask:
    """Implication chain P0 -> ... -> P<depth> with noise-seeded distractor chains.

    The signal carries unit mass on the chain's base fact and small noise
    on each distractor head; the KB holds every implication but no facts,
    so grounding the base fact is the spectral stage's job. Queries are
    all proposition nodes except the base fact.
    """
    if not 1 <= depth <= 8:
        raise BadParams(f"depth must be in 1..8, got {depth}")
    if width < 0:
        raise BadParams("width must be >= 0")
    rng = np.random.default_rng(seed)

    nodes: list[NodeMeta] = []
    edges: list[tuple[int, int, float]] = []
    atoms: list[str] = []
    clauses: list[Clause] = []

    def add_node(label: str) -> int:
        idx = len(nodes)
        nodes.append(NodeMeta(idx, "proposition", label))
        atoms.append(label)
        return idx

    chain = [add_node(f"P{i}") for i in range(depth + 1)]
    for a, b in zip(chain, chain[1:]):
        edges.append((a, b, float(rng.uniform(0.75, 1.0))))
    for i in range(depth):
        clauses.append(Clause(f"t{i}", f"P{i + 1}", frozenset({f"P{i}"})))

    noise_nodes: list[int] = []
    for j in range(width):
        length = int(rng.integers(1, depth + 1))
        dchain = [add_node(f"Q{j}_{i}") for i in range(length + 1)]
        for a, b in zip(dchain, dchain[1:]):
            edges.append((a, b, float(rng.uniform(0.75, 1.0))))
        for i in range(length):
            clauses.append(Clause(f"d{j}_{i}", f"Q{j}_{i + 1}", frozenset({f"Q{j}_{i}"})))
        noise_nodes.append(dchain[0])

    graph = build_graph(nodes, edges)
    x0 = np.zeros(len(nodes))
    x0[chain[0]] = float(rng.uniform(0.8, 1.0))  # evidence strength varies per task
    for idx in noise_nodes:
        x0[idx] = float(rng.uniform(*noise))

    kb = KnowledgeBase(tuple(atoms), tuple(clauses))
    node_atoms = {m.id: m.label for m in nodes}
    queries = [i for i in node_atoms if i != chain[0]]
    labels = _closure_labels(kb, {"P0"}, node_atoms, queries)
    return SyntheticTask(
        task_id=f"transitive-d{depth}-s{seed}",
        family="transitive",
        depth=depth,
        seed=seed,
        graph=graph,
        x0=x0,
        kb=kb,
        node_atoms=node_atoms,
        labels=labels,
    )


def gen_kinship(chain_length: int, seed: int = 0, noise: tuple[float, float] = (0.05, 0.2)) -> SyntheticTask:
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
    rng = np.random.default_rng(seed)

    nodes: list[NodeMeta] = []
    edges: list[tuple[int, int, float]] = []
    atoms: list[str] = []
    clauses: list[Clause] = []

    def add_node(label: str) -> int:
        idx = len(nodes)
        nodes.append(NodeMeta(idx, "proposition", label))
        atoms.append(label)
        return idx

    def family(prefix: str) -> dict[tuple[int, int], int]:
        # instance (k, i) = "person i is a k-step ancestor of person i+k"
        index: dict[tuple[int, int], int] = {}
        for i in range(chain_length):
            index[(1, i)] = add_node(f"{prefix}_anc1_{i}_{i + 1}")
        for k in range(2, chain_length + 1):
            for i in range(chain_length + 1 - k):
                inst = add_node(f"{prefix}_anc{k}_{i}_{i + k}")
                index[(k, i)] = inst
                left = index[(1, i)]
                right = index[(k - 1, i + 1)]
                edges.append((inst, left, float(rng.uniform(0.75, 1.0))))
                edges.append((inst, right, float(rng.uniform(0.75, 1.0))))
                clauses.append(
                    Clause(
                        f"{prefix}_k{k}_{i}",
                        nodes[inst].label,
                        frozenset({nodes[left].label, nodes[right].label}),
                    )
                )
        for i in range(chain_length - 1):
            edges.append((index[(1, i)], index[(1, i + 1)], float(rng.uniform(0.75, 1.0))))
        return index

    true_index = family("a")
    decoy_index = family("b")

    graph = build_graph(nodes, edges)
    x0 = np.zeros(len(nodes))
    for i in range(chain_length):
        x0[true_index[(1, i)]] = 1.0
        x0[decoy_index[(1, i)]] = float(rng.uniform(*noise))

    exclusive = tuple(
        (nodes[true_index[key]].label, nodes[decoy_index[key]].label) for key in sorted(true_index)
    )
    kb = KnowledgeBase(tuple(atoms), tuple(clauses), frozenset(), exclusive)
    node_atoms = {m.id: m.label for m in nodes}
    true_parent_atoms = {nodes[true_index[(1, i)]].label for i in range(chain_length)}
    queries = sorted(
        [idx for key, idx in true_index.items() if key[0] >= 2] + list(decoy_index.values())
    )
    labels = _closure_labels(kb, true_parent_atoms, node_atoms, queries)
    return SyntheticTask(
        task_id=f"kinship-l{chain_length}-s{seed}",
        family="kinship",
        depth=chain_length,
        seed=seed,
        graph=graph,
        x0=x0,
        kb=kb,
        node_atoms=node_atoms,
        labels=labels,
    )


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
    ``max_depth``; seed partitioning keeps any two datasets with
    different base seeds disjoint.
    """
    if n < 1:
        raise BadParams("n must be >= 1")
    if family not in ("transitive", "kinship"):
        raise BadParams(f"unknown task family {family!r}")
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
    if n_train + n_val + n_test > len(tasks):
        raise BadParams(f"splits {sizes} exceed {len(tasks)} tasks")
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
    (d / f"{task.task_id}.x0.csv").write_text("\n".join(repr(float(v)) for v in task.x0) + "\n")
    label_lines = [f"{i},{task.labels[i]}" for i in sorted(task.labels)]
    (d / f"{task.task_id}.labels.csv").write_text("\n".join(label_lines) + "\n")


def load_task(directory: str | Path, task_id: str, family: str, depth: int, seed: int) -> SyntheticTask:
    d = Path(directory)
    graph = load_graph_text(d / f"{task_id}.graph.txt")
    kb = load_kb(d / f"{task_id}.kb.txt")
    x0 = np.asarray([float(s) for s in (d / f"{task_id}.x0.csv").read_text().split()], dtype=np.float64)
    labels = {}
    for line in (d / f"{task_id}.labels.csv").read_text().splitlines():
        if line.strip():
            i, lab = line.split(",")
            labels[int(i)] = int(lab)
    node_atoms = {m.id: m.label for m in graph.nodes}
    return SyntheticTask(task_id, family, depth, seed, graph, x0, kb, node_atoms, labels)


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
    d = Path(directory)
    manifest_path = d / "manifest.json"
    if not manifest_path.exists():
        raise FormatError(f"{d}: missing manifest.json")
    manifest = json.loads(manifest_path.read_text())
    tasks = [
        load_task(d, entry["task_id"], entry["family"], int(entry["depth"]), int(entry["seed"]))
        for entry in manifest["tasks"]
    ]
    splits = None
    if "splits" in manifest:
        s = manifest["splits"]
        splits = (int(s["train"]), int(s["val"]), int(s["test"]))
    return tasks, splits


@dataclass(frozen=True)
class EvalReport:
    """Accuracy, latency, and logical-consistency summary over a task set."""

    accuracy: float
    consistency: float
    n_tasks: int
    n_queries: int
    latency_median_ms: float | None
    latency_p95_ms: float | None

    def to_json(self, include_latency: bool = True) -> str:
        payload = {
            "accuracy": self.accuracy,
            "consistency": self.consistency,
            "n_tasks": self.n_tasks,
            "n_queries": self.n_queries,
        }
        if include_latency:
            payload["latency_median_ms"] = self.latency_median_ms
            payload["latency_p95_ms"] = self.latency_p95_ms
        return json.dumps(payload, sort_keys=True)


def evaluate(pipeline, tasks, measure_latency: bool = True, warmup: int = 3) -> EvalReport:
    """Run a pipeline over tasks and score against the oracle labels.

    A query is one task run; the first ``warmup`` runs are excluded from
    the latency statistics. ``pipeline`` only needs a ``run_task``
    method, so test doubles plug in directly.
    """
    tasks = list(tasks)
    if not tasks:
        raise EmptyDataset("evaluate needs at least one task")
    if measure_latency:
        for task in tasks[: min(warmup, len(tasks))]:
            pipeline.run_task(task)
    correct = 0
    total = 0
    consistent = 0
    latencies = []
    for task in tasks:
        start = time.perf_counter()
        out = pipeline.run_task(task)
        latencies.append((time.perf_counter() - start) * 1e3)
        answers = set(out.answers)
        for node, label in task.labels.items():
            predicted = int(task.node_atoms[node] in answers)
            correct += int(predicted == label)
            total += 1
        if not detect_conflicts(task.kb, frozenset(answers)):
            consistent += 1
    return EvalReport(
        accuracy=correct / total if total else 0.0,
        consistency=consistent / len(tasks),
        n_tasks=len(tasks),
        n_queries=total,
        latency_median_ms=float(np.median(latencies)) if measure_latency else None,
        latency_p95_ms=float(np.percentile(latencies, 95)) if measure_latency else None,
    )


@dataclass(frozen=True)
class ScalingRow:
    edges: int
    median_seconds: float


@dataclass(frozen=True)
class ScalingResult:
    rows: tuple[ScalingRow, ...]
    slope: float | None


def random_sparse_laplacian(n_edges: int, seed: int = 0, degree: int = 8):
    """Random graph with roughly ``n_edges`` edges and mean degree ``degree``."""
    rng = np.random.default_rng(seed)
    n = max(int(n_edges // (degree // 2)), 16)
    i = rng.integers(0, n, size=n_edges)
    j = rng.integers(0, n, size=n_edges)
    keep = i != j
    i, j = i[keep], j[keep]
    w = rng.uniform(0.2, 1.0, size=i.shape[0])
    nodes = [NodeMeta(k, "proposition", f"n{k}") for k in range(n)]
    g = build_graph(nodes, zip(i.tolist(), j.tolist(), w.tolist()))
    return g, combinatorial_laplacian(g)


def _median_call_time(fn, target_total: float = 0.1, max_reps: int = 200) -> float:
    fn()  # warm caches before measuring
    start = time.perf_counter()
    fn()
    single = max(time.perf_counter() - start, 1e-9)
    reps = int(min(max(target_total / single, 3), max_reps))
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - start) / reps)
    return float(np.median(samples))


def scaling_benchmark(sizes, order: int = 5, seed: int = 0) -> ScalingResult:
    """Median Chebyshev filter time vs edge count, with the log-log slope.

    The filter evaluation costs ``order`` sparse matrix-vector products,
    so the fitted slope should sit near 1.
    """
    sizes = [int(s) for s in sizes]
    if sorted(sizes) != sizes:
        raise BadParams("sizes must be ascending")
    rows = []
    for idx, target in enumerate(sizes):
        g, lap = random_sparse_laplacian(target, seed=seed + idx)
        lam_max = estimate_lambda_max(lap, seed=seed)
        filt = fit_chebyshev(builtin_template("low-pass", lam_max, beta=1.0), order, max(lam_max, 1e-6))
        rng = np.random.default_rng(seed + 1000 + idx)
        x = vertex_signal(rng.standard_normal(lap.node_count))
        t = _median_call_time(lambda: chebyshev_filter(lap, filt, x))
        rows.append(ScalingRow(edges=g.edge_count(), median_seconds=t))
    slope = None
    if len(rows) >= 2:
        logs_e = np.log([r.edges for r in rows])
        logs_t = np.log([r.median_seconds for r in rows])
        slope = float(np.polyfit(logs_e, logs_t, 1)[0])
    return ScalingResult(tuple(rows), slope)
