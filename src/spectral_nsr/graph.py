"""Reasoning graphs: construction, validation, degrees, and Laplacians.

A reasoning graph is an undirected, weighted graph whose nodes stand for
entities, facts, or propositions and whose edge weights are non-negative
similarity scores. A graph is checked once, when it is made
(`ReasoningGraph.validate`), so every Laplacian derived from it holds its
invariants by construction. Graphs and Laplacians are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import (
    BadParams,
    FormatError,
    IndexOutOfRange,
    NegativeWeight,
    SelfLoop,
)

NODE_KINDS = ("entity", "fact", "proposition")

COMBINATORIAL = "combinatorial"
NORMALIZED = "normalized"


@dataclass(frozen=True)
class NodeMeta:
    """Identity, role, and display label of a single node."""

    id: int
    kind: str = "proposition"
    label: str = ""

    def __post_init__(self):
        if self.kind not in NODE_KINDS:
            raise BadParams(f"unknown node kind {self.kind!r}")


@dataclass(frozen=True)
class ReasoningGraph:
    """Weighted undirected graph over proposition/entity/fact nodes.

    The adjacency matrix is a CSR array with a zero diagonal, exact
    symmetry, and finite non-negative weights, over nodes whose ids are
    their positions. ``validate`` checks all of these invariants and runs
    when a graph is made, so a graph that exists is a valid one.

    ``prepared`` holds the pipeline's per-graph work, one
    `pipeline.PreparedGraph` keyed by Laplacian kind and seed: the graph's
    place in its latest preparation pass, shared by every pipeline and
    rule set (`pipeline.prepare_graph`).
    That cache relies on the graph never changing: mutating ``nodes`` or
    ``adjacency`` in place would leave it stale.
    """

    nodes: tuple[NodeMeta, ...]
    adjacency: sp.csr_array
    prepared: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.validate()

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """Each node's label, the atom it stands for (`symbolic.bind_predicates`); built on first use."""
        return tuple(m.label for m in self.nodes)

    def degrees(self) -> np.ndarray:
        """Weighted degree d_i = sum_j A_ij."""
        return np.asarray(self.adjacency.sum(axis=1), dtype=np.float64).reshape(-1)

    def edge_count(self) -> int:
        """Number of undirected edges with non-zero weight."""
        return int(self.adjacency.nnz // 2)

    def validate(self) -> None:
        n = self.node_count
        a = self.adjacency
        if a.shape != (n, n):
            raise IndexOutOfRange(f"adjacency shape {a.shape} does not match {n} nodes")
        for idx, meta in enumerate(self.nodes):
            if meta.id != idx:
                raise IndexOutOfRange(f"node ids must be dense in [0, {n}); got {meta.id} at {idx}")
        if a.nnz:
            bad = np.flatnonzero(~np.isfinite(a.data))
            if bad.size:
                row = int(np.searchsorted(a.indptr, bad[0], side="right")) - 1
                raise BadParams(f"edge ({row}, {a.indices[bad[0]]}) has non-finite weight {a.data[bad[0]]}")
            if a.data.min() < 0.0:
                raise NegativeWeight("adjacency contains a negative weight")
            if np.abs(a.diagonal()).max() > 0.0:
                raise SelfLoop("adjacency has a non-zero diagonal entry")
        # a canonical CSR equal to its transpose array for array is symmetric;
        # otherwise, as for duplicates, unsorted indices or an explicit zero
        # facing a missing entry, the difference decides
        if not (a.has_canonical_format and _same_arrays(a, a.T.tocsr())):
            asym = a - a.T
            if asym.nnz and np.abs(asym.data).max() > 0.0:
                raise BadParams("adjacency is not symmetric")


def _same_arrays(a: sp.csr_array, b: sp.csr_array) -> bool:
    return all(np.array_equal(x, y) for x, y in ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data)))


def build_graph(nodes: Sequence[NodeMeta], edges: Iterable[tuple[int, int, float]]) -> ReasoningGraph:
    """Assemble a symmetric adjacency from an edge list.

    Each entry (i, j, w) contributes w to both A[i][j] and A[j][i];
    duplicate entries are summed. A negative or non-finite weight raises
    a `ValidationError` naming its edge.
    """
    metas = tuple(nodes)
    n = len(metas)
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for i, j, w in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise IndexOutOfRange(f"edge ({i}, {j}) outside [0, {n})")
        if i == j:
            raise SelfLoop(f"self-loop at node {i}")
        w = float(w)
        if w < 0.0:
            raise NegativeWeight(f"edge ({i}, {j}) has negative weight {w}")
        rows += [i, j]
        cols += [j, i]
        vals += [w, w]
    coo = sp.coo_array(
        (np.asarray(vals, dtype=np.float64), (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64))),
        shape=(n, n),
    )
    adj = coo.tocsr()  # duplicate entries are summed here
    adj.eliminate_zeros()
    return ReasoningGraph(metas, adj)


@dataclass(frozen=True)
class LaplacianMatrix:
    """A combinatorial or normalized graph Laplacian, as `laplacians`
    derives it from a valid graph: exactly symmetric, and for the
    combinatorial kind with rows that sum to 0 up to rounding.

    A prepared graph shares one instance across queries and training
    runs, so its arrays must never be modified in place.
    """

    kind: str
    matrix: sp.csr_array

    @property
    def node_count(self) -> int:
        return self.matrix.shape[0]


def stack_csr(mats: Sequence[sp.csr_array]) -> tuple[sp.csr_array, np.ndarray]:
    """Square CSR arrays as one block-diagonal array, and where each block's
    rows start, followed by the total row count.

    The arrays are offset-concatenated in order, so each row keeps its
    entries and their order. A single array comes back as it is.
    """
    sizes = np.fromiter((m.shape[0] for m in mats), np.int64, len(mats))
    starts = np.concatenate(([0], np.cumsum(sizes)))
    if len(mats) == 1:
        return mats[0], starts
    nnz = np.fromiter((m.indptr[-1] for m in mats), np.int64, len(mats))
    nnz_starts = np.concatenate(([0], np.cumsum(nnz)))
    indptr = np.concatenate([m.indptr[:-1] for m in mats] + [nnz_starts[-1:]])
    indptr[:-1] += np.repeat(nnz_starts[:-1], sizes)
    indices = np.concatenate([m.indices for m in mats]) + np.repeat(starts[:-1], nnz)
    data = np.concatenate([m.data for m in mats])
    n = int(starts[-1])
    return sp.csr_array((data, indices, indptr), shape=(n, n)), starts


@dataclass(frozen=True, eq=False)
class LaplacianBlock(Sequence):
    """Several graphs' Laplacians of one kind as `laplacians` builds them:
    one block-diagonal `LaplacianMatrix` (``laplacian``), where each
    graph's rows start followed by the total row count (``starts``), and
    each graph's own index type (``index_dtypes``).

    As a sequence, item i is graph i's own `LaplacianMatrix`, cut from the
    block's arrays when it is asked for and bit for bit the graph's own
    build; a block of one gives its Laplacian as it is. The arrays are
    shared, so they must never be modified in place.
    """

    laplacian: LaplacianMatrix
    starts: np.ndarray
    index_dtypes: tuple[np.dtype, ...]

    def __len__(self) -> int:
        return len(self.index_dtypes)

    def __getitem__(self, i: int) -> LaplacianMatrix:
        i = range(len(self))[i]
        if len(self) == 1:
            return self.laplacian
        lap = self.laplacian.matrix
        lo, hi = self.starts[i], self.starts[i + 1]
        first, last = lap.indptr[lo], lap.indptr[hi]
        # each graph's index type is its adjacency's, as its own build keeps it
        dtype = self.index_dtypes[i]
        indptr = (lap.indptr[lo : hi + 1] - first).astype(dtype)
        indices = (lap.indices[first:last] - lo).astype(dtype)
        # a copy, so a graph's own matrix does not keep the block's arrays alive
        matrix = sp.csr_array((lap.data[first:last].copy(), indices, indptr), shape=(hi - lo, hi - lo))
        return LaplacianMatrix(self.laplacian.kind, matrix)


def laplacians(graphs: Sequence[ReasoningGraph], kind: str) -> LaplacianBlock:
    """The graphs' Laplacians of ``kind``, built as one block in one pass.

    The adjacencies are stacked block-diagonally (`stack_csr`) and the
    Laplacian is formed once for the block, with no matrix per graph.
    Every step acts row by row, so each graph's rows are bit for bit its
    own build's; one graph is built as it is, with nothing stacked.

    The combinatorial kind is L = D - A, exactly symmetric since A is.
    The normalized kind is I - D^{-1/2} A D^{-1/2}, made exactly symmetric
    by averaging it with its transpose; isolated nodes are
    self-normalized: their row keeps diagonal 1 and zero off-diagonals,
    which keeps the spectrum inside [0, 2].
    """
    if kind not in (COMBINATORIAL, NORMALIZED):
        raise BadParams(f"unknown laplacian kind {kind!r}")
    adjacency, starts = stack_csr([g.adjacency for g in graphs])
    d = np.asarray(adjacency.sum(axis=1), dtype=np.float64).reshape(-1)
    if kind == COMBINATORIAL:
        lap = sp.csr_array(sp.diags_array(d, format="csr") - adjacency)
    else:
        with np.errstate(divide="ignore"):
            dinv = np.where(d > 0.0, 1.0 / np.sqrt(np.where(d > 0.0, d, 1.0)), 0.0)
        scaled = adjacency.multiply(dinv[:, None]).multiply(dinv[None, :])
        lap = sp.eye_array(d.size, format="csr") - sp.csr_array(scaled)
        lap = sp.csr_array((lap + lap.T) * 0.5)  # restore exact symmetry lost to fp rounding
    return LaplacianBlock(LaplacianMatrix(kind, lap), starts, tuple(g.adjacency.indices.dtype for g in graphs))


def combinatorial_laplacian(g: ReasoningGraph) -> LaplacianMatrix:
    """L = D - A."""
    return laplacians([g], COMBINATORIAL)[0]


def normalized_laplacian(g: ReasoningGraph) -> LaplacianMatrix:
    """Normalized Laplacian I - D^{-1/2} A D^{-1/2}; see `laplacians`."""
    return laplacians([g], NORMALIZED)[0]


# ---------------------------------------------------------------------------
# file formats
#
# Text graph format (one record per line):
#   N <count>
#   node <id> <kind> <label>
#   edge <i> <j> <weight>
# JSON equivalent: {"nodes": [{"id", "kind", "label"}, ...], "edges": [[i, j, w], ...]}
# ---------------------------------------------------------------------------


def _undirected_edges(g: ReasoningGraph) -> list[tuple[int, int, float]]:
    coo = sp.coo_array(g.adjacency)
    out = []
    for i, j, w in zip(coo.row, coo.col, coo.data):
        if i < j:
            out.append((int(i), int(j), float(w)))
    out.sort()
    return out


def save_graph_text(g: ReasoningGraph, path: str | Path) -> None:
    lines = [f"N {g.node_count}"]
    for meta in g.nodes:
        lines.append(f"node {meta.id} {meta.kind} {meta.label}")
    for i, j, w in _undirected_edges(g):
        lines.append(f"edge {i} {j} {w!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_graph_text(path: str | Path) -> ReasoningGraph:
    nodes: list[NodeMeta] = []
    edges: list[tuple[int, int, float]] = []
    n = None
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(maxsplit=3)
        try:
            if parts[0] == "N":
                n = int(parts[1])
            elif parts[0] == "node":
                label = parts[3] if len(parts) > 3 else ""
                nodes.append(NodeMeta(int(parts[1]), parts[2], label))
            elif parts[0] == "edge":
                i, j, w = line.split()[1:4]
                edges.append((int(i), int(j), float(w)))
            else:
                raise FormatError(f"{path}:{lineno}: unknown record {parts[0]!r}")
        except (ValueError, IndexError) as exc:
            raise FormatError(f"{path}:{lineno}: malformed line {line!r}") from exc
    if n is None:
        raise FormatError(f"{path}: missing 'N <count>' header")
    if len(nodes) != n:
        raise FormatError(f"{path}: header says {n} nodes, found {len(nodes)}")
    nodes.sort(key=lambda m: m.id)
    return build_graph(nodes, edges)


def save_graph_json(g: ReasoningGraph, path: str | Path) -> None:
    payload = {
        "nodes": [{"id": m.id, "kind": m.kind, "label": m.label} for m in g.nodes],
        "edges": [[i, j, w] for i, j, w in _undirected_edges(g)],
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def load_graph_json(path: str | Path) -> ReasoningGraph:
    try:
        payload = json.loads(Path(path).read_text())
        nodes = [NodeMeta(int(m["id"]), m.get("kind", "proposition"), m.get("label", "")) for m in payload["nodes"]]
        edges = [(int(i), int(j), float(w)) for i, j, w in payload["edges"]]
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed graph JSON: {exc}") from exc
    nodes.sort(key=lambda m: m.id)
    return build_graph(nodes, edges)


def load_graph(path: str | Path) -> ReasoningGraph:
    """Dispatch on extension: .json, otherwise the line-oriented text format."""
    p = Path(path)
    if p.suffix == ".json":
        return load_graph_json(p)
    return load_graph_text(p)

