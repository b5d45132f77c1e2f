"""Reasoning graphs: construction, validation, Laplacians and files.

A reasoning graph is an undirected, weighted graph whose nodes (`NodeMeta`,
plain records) stand for entities, facts, or propositions and whose edge
weights are non-negative similarity scores. A graph is made in one pass
over arrays, with no Python loop per edge (`build_graph`), and checks
itself once, when it is made (`ReasoningGraph.validate`), so every
Laplacian derived from it holds its invariants by construction. A
Laplacian is an operator on the graphs' stacked adjacency and their
degrees (`Laplacian`): L x is a diagonal term plus one adjacency product,
and no D - A is ever assembled. That product calls scipy's compiled CSR
kernel itself, into a buffer the caller may reuse (`Laplacian.apply`),
because on a graph of a few dozen nodes the dispatch of scipy's ``@``
costs several times the arithmetic. Graphs and Laplacians are immutable
after construction and safe to share across threads.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

# scipy's compiled CSR product, which ``csr_array @ x`` ends in: it adds
# A x into a zeroed output and checks no shape. On a 2-core x86 machine it
# took 0.85 us on a 20-node, 60-entry graph, against 3.4 us through ``@``,
# whose dispatch was most of a small graph's filter time. The same kernel
# runs either way, so the bits are the same. Its CSR-to-CSC kernel, which
# ``tocsc`` ends in, took 1.5 us on a 10-node graph against 22 us for ``tocsc``.
from scipy.sparse._sparsetools import csr_matvec, csr_tocsc

from .errors import BadParams, DimensionMismatch, FormatError, IndexOutOfRange, NegativeWeight, SelfLoop, ValidationError
from .errors import is_json_number, read_text, records

NODE_KINDS = ("entity", "fact", "proposition")

COMBINATORIAL = "combinatorial"
NORMALIZED = "normalized"


class NodeMeta(NamedTuple):
    """A node's id, its position; its kind, one of `NODE_KINDS`; and its label,
    the atom it stands for. The graph that holds it checks all three."""

    id: int
    kind: str = "proposition"
    label: str = ""


@dataclass(frozen=True)
class ReasoningGraph:
    """Weighted undirected graph over proposition/entity/fact nodes.

    The adjacency matrix is a CSR array with a zero diagonal, exact
    symmetry, and finite non-negative weights, over nodes whose ids are
    their positions. ``validate`` checks all of these invariants and runs
    when a graph is made, so a graph that exists is a valid one.

    ``prepared`` holds the pipeline's per-graph work, keyed by Laplacian
    kind and seed: the graph's latest preparation pass (`pipeline.Layout`)
    and its position in it, shared by every pipeline and rule set
    (`pipeline.prepare_graph`).
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

    def edge_count(self) -> int:
        """Number of undirected edges with non-zero weight."""
        return int(self.adjacency.nnz // 2)

    def validate(self) -> None:
        """Raise for the graph's first fault: its shape and index arrays; then,
        in one pass over the nodes, each id, kind and label; then its weights."""
        n = self.node_count
        a = self.adjacency
        if a.shape != (n, n):
            raise IndexOutOfRange(f"adjacency shape {a.shape} does not match {n} nodes")
        # scipy's full format check, which its constructor skips and its kernels rely on
        if a.indices.min(initial=0) < 0 or a.indices.max(initial=-1) >= n or np.diff(a.indptr).min(initial=0) < 0:
            raise IndexOutOfRange(f"adjacency has an index outside [0, {n}) or decreasing row pointers")
        for idx, (node_id, kind, label) in enumerate(self.nodes):
            if node_id != idx:
                raise IndexOutOfRange(f"node ids must be dense in [0, {n}); got {node_id} at {idx}")
            if kind not in NODE_KINDS:
                raise BadParams(f"unknown node kind {kind!r}")
            if not isinstance(label, str):
                raise BadParams(f"node {idx} has label {label!r}, not a string")
        if a.nnz:
            bad = np.flatnonzero(~np.isfinite(a.data))
            if bad.size:
                row = int(np.searchsorted(a.indptr, bad[0], side="right")) - 1
                raise BadParams(f"edge ({row}, {a.indices[bad[0]]}) has non-finite weight {a.data[bad[0]]}")
            if a.data.min() < 0.0:
                raise NegativeWeight("adjacency contains a negative weight")
            if np.abs(a.diagonal()).max() > 0.0:
                raise SelfLoop("adjacency has a non-zero diagonal entry")
        # a canonical CSR whose transpose, laid out by scipy's kernel, has its bytes
        # is symmetric; otherwise (duplicates, unsorted indices, an explicit zero
        # facing a missing entry, a -0.0 facing a 0.0) the difference decides
        arrays = (a.indptr, a.indices, a.data)
        transpose = tuple(map(np.empty_like, arrays))
        if a.has_canonical_format:
            csr_tocsc(n, n, *arrays, *transpose)
        if not (a.has_canonical_format and all(x.tobytes() == y.tobytes() for x, y in zip(arrays, transpose))):
            asym = a - a.T
            if asym.nnz and np.abs(asym.data).max() > 0.0:
                raise BadParams("adjacency is not symmetric")


def build_graph(nodes: Sequence[NodeMeta], edges: Iterable) -> ReasoningGraph:
    """The graph over ``nodes`` with ``edges``, (i, j, w) rows as a sequence or
    an (m, 3) array (another iterable is read into a list). Each edge adds w
    to A[i][j] and then to A[j][i]; duplicates sum, and zero sums drop.

    The first faulty edge in input order raises, naming its ends as given:
    an end that is not an integer in [0, n), NaN included, `IndexOutOfRange`;
    i == j `SelfLoop`; a negative w `NegativeWeight`. Rows that are not three
    numbers raise `BadParams`, ragged ones numpy's `ValueError`. Sound edges
    cost two reductions, a cast and two comparisons; a mask per check is made
    only to find a fault."""
    metas = tuple(nodes)
    n = len(metas)
    if not isinstance(edges, (Sequence, np.ndarray)):
        edges = list(edges)
    e = np.asarray(edges)  # ragged rows raise numpy's ValueError
    e = e.reshape(0, 3) if e.shape == (0,) else e
    if e.ndim != 2 or e.shape[1] != 3 or e.dtype.kind in "SU":
        raise BadParams(f"edges must be (i, j, w) rows of numbers; got an array of {e.dtype} and shape {e.shape}")
    e = e.astype(np.float64, copy=False)
    ends, w = e[:, :2], e[:, 2]
    lo = e.min(axis=0, initial=0.0).tolist()  # a column's entry is NaN if any of its values is
    ij = ends.astype(np.int64) if all(x >= 0.0 for x in lo) and ends.max(initial=-1.0) < n else None
    if ij is None or np.count_nonzero(ij != ends) or np.count_nonzero(ij[:, 0] == ij[:, 1]):
        outside = ~((ends >= 0.0) & (ends < n) & (np.floor(ends) == ends)).all(axis=1)
        faulty = np.flatnonzero(outside | (ends[:, 0] == ends[:, 1]) | (w < 0.0))
        if faulty.size:
            k = faulty[0]
            i, j = edges[k][0], edges[k][1]
            if outside[k]:
                raise IndexOutOfRange(f"edge ({i}, {j}) outside [0, {n})")
            if ends[k, 0] == ends[k, 1]:
                raise SelfLoop(f"self-loop at node {i}")
            raise NegativeWeight(f"edge ({i}, {j}) has negative weight {w[k]}")
        ij = ends.astype(np.int64)  # only a NaN weight, which the graph refuses
    coo = sp.coo_array((np.repeat(w, 2), (ij.ravel(), ij[:, ::-1].ravel())), shape=(n, n))
    adj = coo.tocsr()  # duplicate entries are summed here
    if adj.nnz < ij.size:
        # scipy sorts rows of over 16 entries unstably, so copies of an edge may sum to
        # other bits at (j, i): the upper sums, the CSC data's mirrors here, stand for both
        lower = np.repeat(np.arange(n), np.diff(adj.indptr)) > adj.indices
        adj.data[lower] = adj.tocsc().data[lower]
    adj.eliminate_zeros()
    return ReasoningGraph(metas, adj)


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
class Laplacian:
    """The Laplacian of one or more graphs of one kind, as `laplacians`
    derives it: an operator on their block-diagonal adjacency
    (``adjacency``, `stack_csr`), with where each graph's rows start
    followed by the total row count (``starts``) and the row sums
    (``degrees``). No D - A is assembled; ``lap @ x`` is

    - combinatorial: L x = d * x - A x;
    - normalized: L x = x - s * A (s * x), with s = d^(-1/2) (``scale``)
      and 0 on an isolated node, whose row thus keeps diagonal 1, which
      keeps the spectrum inside [0, 2].

    A x is one call of scipy's CSR kernel (`csr_matvec`) into a zeroed
    buffer: ``lap @ x`` checks x and makes its own buffers, `apply` writes
    into the caller's, which the Chebyshev recurrence reuses step after
    step. Every step acts row by row, so each graph's rows of ``lap @ x``
    are bit for bit those of its own operator, and bit for bit those of
    scipy's ``@``. A prepared graph shares one instance across queries and
    training runs, so its arrays must never be modified in place.
    """

    kind: str
    adjacency: sp.csr_array
    starts: np.ndarray
    degrees: np.ndarray

    @property
    def node_count(self) -> int:
        return self.degrees.size

    @property
    def graph_count(self) -> int:
        return self.starts.size - 1

    @cached_property
    def scale(self) -> np.ndarray:
        d = self.degrees
        return np.where(d > 0.0, 1.0 / np.sqrt(np.where(d > 0.0, d, 1.0)), 0.0)

    def __matmul__(self, x) -> np.ndarray:
        """L x as a new array; an x of any shape but (``node_count``,)
        raises `DimensionMismatch`, as the kernel would read past its end."""
        x = np.asarray(x, dtype=np.float64)
        n = self.node_count
        if x.shape != (n,):
            raise DimensionMismatch(f"vector of shape {x.shape} for a Laplacian of {n} nodes")
        return self.apply(x, np.empty(n), np.empty(n))

    def apply(self, x: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
        """L x into ``out``, which it returns, with ``work`` as scratch: for
        a float64 x of shape (``node_count``,), which is not checked, and
        two contiguous float64 buffers of that shape, neither of them x."""
        a, n = self.adjacency, self.node_count
        if self.kind == NORMALIZED:
            np.multiply(self.scale, x, work)
            out.fill(0.0)
            csr_matvec(n, n, a.indptr, a.indices, a.data, work, out)
            out *= self.scale
            return np.subtract(x, out, out)
        work.fill(0.0)
        csr_matvec(n, n, a.indptr, a.indices, a.data, x, work)
        np.multiply(self.degrees, x, out)
        out -= work
        return out

    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """The row of each stacked adjacency entry, and its off-diagonal
        entry of L: -a_ij, or -a_ij (s_i s_j) for the normalized kind,
        which is exactly symmetric."""
        a = self.adjacency
        rows = np.repeat(np.arange(self.node_count), a.indptr[1:] - a.indptr[:-1])
        if self.kind == COMBINATORIAL:
            return rows, -a.data
        return rows, -a.data * (self.scale[rows] * self.scale[a.indices])

    def diagonal(self) -> np.ndarray:
        """The diagonal of L: the degrees, or 1 for the normalized kind."""
        return self.degrees if self.kind == COMBINATORIAL else np.ones(self.node_count)

    def gershgorin(self) -> np.ndarray:
        """Each graph's Gershgorin bound on its spectrum: 2 max d_i over its rows, or 2 for the normalized kind."""
        if self.kind == NORMALIZED:
            return np.full(self.graph_count, 2.0)
        # a 0 after the degrees, which are >= 0, lets a graph of no nodes end the block
        return 2.0 * np.maximum.reduceat(np.append(self.degrees, 0.0), self.starts[:-1])

    def toarray(self) -> np.ndarray:
        """L as a dense array: the entries summed in order, as scipy's
        ``toarray`` sums them, with the diagonal set."""
        n = self.node_count
        rows, values = self.entries()
        dense = np.bincount(rows * n + self.adjacency.indices, weights=values, minlength=n * n).reshape(n, n)
        np.fill_diagonal(dense, self.diagonal())
        return dense


def laplacians(graphs: Sequence[ReasoningGraph], kind: str) -> Laplacian:
    """The graphs' Laplacian of ``kind`` as one operator: their adjacencies
    stacked block-diagonally (`stack_csr`; one graph as it is) and their
    degrees, with no matrix per graph. The degrees are one
    ``np.add.reduceat`` over the rows that hold an entry, which is what
    scipy's ``sum(axis=1)`` runs inside its wrapper, so the bits are the
    same."""
    if kind not in (COMBINATORIAL, NORMALIZED):
        raise BadParams(f"unknown laplacian kind {kind!r}")
    adjacency, starts = stack_csr([g.adjacency for g in graphs])
    indptr = adjacency.indptr
    rows = np.flatnonzero(indptr[1:] - indptr[:-1])
    degrees = np.zeros(indptr.size - 1)
    degrees[rows] = np.add.reduceat(adjacency.data, indptr[rows])
    return Laplacian(kind, adjacency, starts, degrees)


def combinatorial_laplacian(g: ReasoningGraph) -> Laplacian:
    """L = D - A."""
    return laplacians([g], COMBINATORIAL)


def normalized_laplacian(g: ReasoningGraph) -> Laplacian:
    """Normalized Laplacian I - D^{-1/2} A D^{-1/2}; see `Laplacian`."""
    return laplacians([g], NORMALIZED)


# ---------------------------------------------------------------------------
# file formats
#
# Text graph format (one record per line):
#   N <count>
#   node <id> <kind> <label>
#   edge <i> <j> <weight>
# JSON equivalent: {"nodes": [{"id", "kind", "label"}, ...], "edges": [[i, j, w], ...]}
# ---------------------------------------------------------------------------


def _undirected_edges(g: ReasoningGraph) -> Iterator[tuple[int, int, float]]:
    """The upper triangle's entries (i, j, w) in row-major order, duplicates summed."""
    upper = sp.triu(g.adjacency, k=1, format="coo")
    upper.sum_duplicates()
    return zip(upper.row.tolist(), upper.col.tolist(), upper.data.tolist())


def save_graph_text(g: ReasoningGraph, path: str | Path) -> None:
    lines = [f"N {g.node_count}"] + [f"node {i} {kind} {label}" for i, kind, label in g.nodes]
    lines += [f"edge {i} {j} {w!r}" for i, j, w in _undirected_edges(g)]
    Path(path).write_text("\n".join(lines) + "\n")


def _loaded_graph(path, nodes: list[NodeMeta], edges: list[tuple[int, int, float]]) -> ReasoningGraph:
    """A graph file's nodes, in any order, and edges as a graph; content
    the graph refuses raises `FormatError` naming the file."""
    try:
        return build_graph(sorted(nodes, key=itemgetter(0)), edges)
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def load_graph_text(path: str | Path) -> ReasoningGraph:
    nodes, edges, n = [], [], None
    for lineno, line in records(read_text(path)):
        parts = line.split(maxsplit=3)
        try:
            if parts[0] == "N":
                (n,) = map(int, parts[1:])
            elif parts[0] == "node":
                nodes.append(NodeMeta(int(parts[1]), parts[2], parts[3] if len(parts) > 3 else ""))
            elif parts[0] == "edge":
                _, i, j, w = line.split()
                edges.append((int(i), int(j), float(w)))
            else:
                raise FormatError(f"{path}:{lineno}: unknown record {parts[0]!r}")
        except (ValueError, IndexError) as exc:
            raise FormatError(f"{path}:{lineno}: malformed line {line!r}") from exc
    if n is None:
        raise FormatError(f"{path}: missing 'N <count>' header")
    if len(nodes) != n:
        raise FormatError(f"{path}: header says {n} nodes, found {len(nodes)}")
    return _loaded_graph(path, nodes, edges)


def save_graph_json(g: ReasoningGraph, path: str | Path) -> None:
    nodes = [{"id": i, "kind": kind, "label": label} for i, kind, label in g.nodes]
    payload = {"nodes": nodes, "edges": [list(edge) for edge in _undirected_edges(g)]}
    Path(path).write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def load_graph_json(path: str | Path) -> ReasoningGraph:
    try:
        payload = json.loads(read_text(path))
        nodes = [NodeMeta(m["id"], m.get("kind", "proposition"), m.get("label", "")) for m in payload["nodes"]]
        edges = [(i, j, w) for i, j, w in payload["edges"]]
        for value in [m.id for m in nodes] + [end for i, j, _ in edges for end in (i, j)]:
            if not is_json_number(value, integral=True):
                raise TypeError(f"{value!r} is not an integer")
        for *_, w in edges:
            if not is_json_number(w):
                raise TypeError(f"weight {w!r} is not a number")
        edges = [(i, j, float(w)) for i, j, w in edges]
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed graph JSON: {exc}") from exc
    return _loaded_graph(path, nodes, edges)


def load_graph(path: str | Path) -> ReasoningGraph:
    """Dispatch on extension: .json, otherwise the line-oriented text format."""
    return load_graph_json(path) if Path(path).suffix == ".json" else load_graph_text(path)

