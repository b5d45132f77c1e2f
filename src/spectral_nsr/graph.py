"""Reasoning graphs: construction, validation, degrees, and Laplacians.

A reasoning graph is an undirected, weighted graph whose nodes stand for
entities, facts, or propositions and whose edge weights are non-negative
similarity scores. Graphs and Laplacians are immutable after construction
and safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import (
    BadParams,
    FormatError,
    IndexOutOfRange,
    NegativeWeight,
    SelfLoop,
    ZeroVector,
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
    symmetry, and non-negative weights. ``validate`` re-checks all of
    these invariants and is called by every constructor in this module.

    ``prepared`` holds the pipeline's per-graph work (see
    `pipeline.prepare_graph`), keyed by Laplacian kind and seed. That
    cache relies on the graph never changing: mutating ``nodes`` or
    ``adjacency`` in place would leave it stale.
    """

    nodes: tuple[NodeMeta, ...]
    adjacency: sp.csr_array
    prepared: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

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
            if a.data.min() < 0.0:
                raise NegativeWeight("adjacency contains a negative weight")
            if np.abs(a.diagonal()).max() > 0.0:
                raise SelfLoop("adjacency has a non-zero diagonal entry")
        asym = a - a.T
        if asym.nnz and np.abs(asym.data).max() > 0.0:
            raise BadParams("adjacency is not symmetric")


def build_graph(nodes: Sequence[NodeMeta], edges: Iterable[tuple[int, int, float]]) -> ReasoningGraph:
    """Assemble a symmetric adjacency from an edge list.

    Each entry (i, j, w) contributes w to both A[i][j] and A[j][i];
    duplicate entries are summed.
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
    g = ReasoningGraph(metas, adj)
    g.validate()
    return g


@dataclass(frozen=True)
class NodeEmbedding:
    """Per-node real feature vectors, one row per node."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.float64)
        if v.ndim != 2:
            raise BadParams(f"embedding matrix must be 2-D, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise BadParams("embedding contains non-finite entries")
        object.__setattr__(self, "vectors", v)

    @property
    def node_count(self) -> int:
        return self.vectors.shape[0]


def similarity_adjacency(
    emb: NodeEmbedding,
    threshold: float,
    nodes: Sequence[NodeMeta] | None = None,
) -> ReasoningGraph:
    """Cosine-similarity graph with sparsification threshold.

    A_ij = cos(v_i, v_j) whenever the cosine clears the threshold and
    i != j, else 0. Negative cosines are clamped to 0 so all weights stay
    in [0, 1] (Laplacian theory assumes non-negative weights).
    """
    if not 0.0 <= threshold <= 1.0:
        raise BadParams(f"threshold must lie in [0, 1], got {threshold}")
    v = emb.vectors
    n = v.shape[0]
    norms = np.linalg.norm(v, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ZeroVector(f"node {int(zero[0])} has a zero embedding vector")
    unit = v / norms[:, None]
    cos = unit @ unit.T
    np.clip(cos, 0.0, 1.0, out=cos)
    cos[cos < threshold] = 0.0
    np.fill_diagonal(cos, 0.0)
    if nodes is None:
        nodes = tuple(NodeMeta(i, "proposition", f"n{i}") for i in range(n))
    adj = sp.csr_array(cos)
    adj.eliminate_zeros()
    g = ReasoningGraph(tuple(nodes), adj)
    g.validate()
    return g


@dataclass(frozen=True)
class LaplacianMatrix:
    """A combinatorial or normalized graph Laplacian with its degree vector.

    A prepared graph shares one instance across queries and training
    runs, so its arrays must never be modified in place.
    """

    kind: str
    matrix: sp.csr_array
    degrees: np.ndarray

    @property
    def node_count(self) -> int:
        return self.matrix.shape[0]

    def validate(self, tol: float = 1e-12) -> None:
        m = self.matrix
        asym = m - m.T
        scale = max(np.abs(m.data).max() if m.nnz else 0.0, 1.0)
        if asym.nnz and np.abs(asym.data).max() > tol * scale:
            raise BadParams(f"{self.kind} Laplacian is not symmetric")
        if self.kind == COMBINATORIAL:
            rows = np.asarray(np.abs(m.sum(axis=1))).reshape(-1)
            if rows.size and rows.max() > tol * scale:
                raise BadParams("combinatorial Laplacian rows do not sum to 0")


def combinatorial_laplacian(g: ReasoningGraph) -> LaplacianMatrix:
    """L = D - A."""
    d = g.degrees()
    lap = sp.diags_array(d, format="csr") - g.adjacency
    out = LaplacianMatrix(COMBINATORIAL, sp.csr_array(lap), d)
    out.validate()
    return out


def normalized_laplacian(g: ReasoningGraph) -> LaplacianMatrix:
    """Normalized Laplacian I - D^{-1/2} A D^{-1/2}.

    Isolated nodes are self-normalized: their row keeps diagonal 1 and
    zero off-diagonals, which keeps the spectrum inside [0, 2].
    """
    d = g.degrees()
    n = g.node_count
    with np.errstate(divide="ignore"):
        dinv = np.where(d > 0.0, 1.0 / np.sqrt(np.where(d > 0.0, d, 1.0)), 0.0)
    scaled = g.adjacency.multiply(dinv[:, None]).multiply(dinv[None, :])
    lap = sp.eye_array(n, format="csr") - sp.csr_array(scaled)
    lap = sp.csr_array((lap + lap.T) * 0.5)  # restore exact symmetry lost to fp rounding
    out = LaplacianMatrix(NORMALIZED, lap, d)
    out.validate()
    return out


# ---------------------------------------------------------------------------
# file formats
#
# Text graph format (one record per line):
#   N <count>
#   node <id> <kind> <label>
#   edge <i> <j> <weight>
# JSON equivalent: {"nodes": [{"id", "kind", "label"}, ...], "edges": [[i, j, w], ...]}
# Embeddings: CSV, one row of floats per node, no header.
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
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: malformed graph JSON: {exc}") from exc
    nodes.sort(key=lambda m: m.id)
    return build_graph(nodes, edges)


def load_graph(path: str | Path) -> ReasoningGraph:
    """Dispatch on extension: .json, otherwise the line-oriented text format."""
    p = Path(path)
    if p.suffix == ".json":
        return load_graph_json(p)
    return load_graph_text(p)


def save_embeddings(emb: NodeEmbedding, path: str | Path) -> None:
    lines = [",".join(repr(float(x)) for x in row) for row in emb.vectors]
    Path(path).write_text("\n".join(lines) + "\n")


def load_embeddings(path: str | Path) -> NodeEmbedding:
    rows = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: malformed embedding row") from exc
    if not rows:
        raise FormatError(f"{path}: empty embedding file")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise FormatError(f"{path}: inconsistent row widths {sorted(widths)}")
    return NodeEmbedding(np.asarray(rows, dtype=np.float64))
