"""Spectral machinery: eigenbasis, graph Fourier transforms, and filters.

Two filtering routes are provided. The Chebyshev route, which the
pipeline and the trainer use, evaluates an order-K polynomial response
with exactly K products with the Laplacian operator and never
materializes the basis, so it scales linearly in the edge count. Its
filter and its stack share one recurrence (`_recurrence`), whose in-place
step is three elementwise calls and one direct call of scipy's CSR
kernel, which adds the off-diagonal product into the step's buffer
(`graph.Laplacian.add_offdiagonal`), with the rescaling on its input;
buffers are made once per call, because on a graph of a few dozen nodes a
sparse-product dispatch and fresh temporaries at each step would cost
more than the arithmetic. It maps the spectrum into
[-1, 1] with an upper bound on the top eigenvalue, which
`estimate_lambda_max` guarantees. The exact route diagonalizes the
Laplacian's dense form and applies an arbitrary frequency response in the
eigenbasis; it is limited to graphs small enough for a dense
eigendecomposition and serves as the reference the Chebyshev route is
checked against.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from pathlib import Path
from typing import Callable, Sequence

import json
import operator

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from .errors import (
    BadParams,
    ConvergenceFailure,
    DimensionMismatch,
    NonFiniteResponse,
    OutOfRange,
    TooLarge,
    is_json_number,
    read_text,
    reading,
    records,
)
from .graph import NORMALIZED, Laplacian

DENSE_LIMIT = 512

# `estimate_lambda_max` takes a dense eigvalsh up to this many nodes and a
# Lanczos run above it: on a 2-core x86 machine at one BLAS thread, dense
# took 259 us against 581 us for Lanczos at 62 nodes, and 836 us against
# 462 us at 125 nodes
DENSE_BOUND_LIMIT = 100
# Lanczos basis size and relative tolerance of that run; the residual pad
# makes the bound hold whatever they are, so they trade time for tightness
LANCZOS_BASIS = 10
LANCZOS_TOL = 1e-3

# Chebyshev nodes `fit_chebyshev` samples a response at (more if the order needs them)
FIT_NODES = 256

# the largest stacked array, in bytes, that `estimate_lambda_max` builds
# at once; a larger block goes in chunks, so its transient memory stays
# bounded (each graph's result is the same)
STACK_BYTES = 1 << 18


@dataclass(frozen=True)
class GraphSignal:
    """Real vector over nodes: a signal, or its graph Fourier coefficients (`gft`)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if not np.isfinite(v).all():
            raise BadParams("signal contains non-finite entries")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.shape[0]


def vertex_signal(values) -> GraphSignal:
    return GraphSignal(values)


@dataclass(frozen=True)
class FrequencyResponse:
    """Real response g(lambda) over [0, lambda_max].

    ``fn`` is vectorised: it maps an array of frequencies to an array of
    the same shape. Any other result raises `BadParams`.
    """

    fn: Callable
    kind: str = "custom"

    def __call__(self, lam) -> np.ndarray:
        lam = np.asarray(lam, dtype=np.float64)
        out = np.asarray(self.fn(lam), dtype=np.float64)
        if out.shape != lam.shape:
            raise BadParams(f"{self.kind} response gave shape {out.shape} for frequencies of shape {lam.shape}")
        return out


@dataclass(frozen=True)
class SpectralBasis:
    """Eigenpairs of a Laplacian: the graph Fourier basis.

    ``eigenvalues`` ascend; column i of ``eigenvectors`` pairs with
    eigenvalue i. Signs follow a fixed convention (first non-negligible
    component positive) so transforms reproduce across runs.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def node_count(self) -> int:
        return self.eigenvalues.shape[0]


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector signs so the first non-negligible entry is positive."""
    out = vectors.copy()
    for col in range(out.shape[1]):
        v = out[:, col]
        nz = np.flatnonzero(np.abs(v) > 1e-12 * max(np.abs(v).max(), 1e-300))
        if nz.size and v[nz[0]] < 0.0:
            out[:, col] = -v
    return out


def eigendecompose(lap: Laplacian, limit: int = DENSE_LIMIT) -> SpectralBasis:
    """Full dense eigendecomposition of a Laplacian (`Laplacian.toarray`).

    Refuses graphs larger than ``limit`` nodes (TooLarge); callers above
    the limit should stay on the Chebyshev path.
    """
    n = lap.node_count
    if n > limit:
        raise TooLarge(f"N={n} exceeds the dense eigendecomposition limit {limit}")
    try:
        vals, vecs = np.linalg.eigh(lap.toarray())
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigendecomposition failed: {exc}") from exc
    return SpectralBasis(vals, _fix_signs(vecs))


def gft(basis: SpectralBasis, x: GraphSignal) -> GraphSignal:
    """Project a vertex signal onto the eigenbasis: xhat = U^T x."""
    if len(x) != basis.node_count:
        raise DimensionMismatch(f"signal length {len(x)} != {basis.node_count}")
    return GraphSignal(basis.eigenvectors.T @ x.values)


def exact_filter(basis: SpectralBasis, response: FrequencyResponse, x: GraphSignal) -> GraphSignal:
    """y = U g(Lambda) U^T x. A non-finite gain or output raises
    `NonFiniteResponse`, with no numpy warning before it."""
    if len(x) != basis.node_count:
        raise DimensionMismatch(f"signal length {len(x)} != {basis.node_count}")
    with np.errstate(over="ignore", invalid="ignore"):
        gains = response(basis.eigenvalues)
        if not np.isfinite(gains).all():
            bad = basis.eigenvalues[~np.isfinite(gains)][0]
            raise NonFiniteResponse(f"response is non-finite at lambda={bad}")
        y = basis.eigenvectors @ (gains * (basis.eigenvectors.T @ x.values))
    if not np.isfinite(y).all():
        raise NonFiniteResponse("filter output is non-finite: the filter overflowed")
    return vertex_signal(y)


def estimate_lambda_max(lap: Laplacian, seed: int = 0) -> list[float]:
    """An upper bound on the largest eigenvalue of each graph's Laplacian,
    for the Chebyshev rescaling: one Python float per graph, each the one
    the graph gives alone.

    Up to `DENSE_BOUND_LIMIT` nodes the top eigenvalue comes from a dense
    ``eigvalsh``, padded by n eps ||L||_1, which covers its rounding error.
    The dense graphs of each node count are gathered from the operator's
    stacked arrays into one stacked array, the off-diagonal entries of L
    scattered and the diagonal set (`Laplacian.entries`,
    `Laplacian.diagonal`; a block of one takes `Laplacian.toarray`), and
    take one ``eigvalsh`` call (per `STACK_BYTES`). Larger graphs take the
    top Ritz pair (theta, v) of a Lanczos run on the operator, started from
    a ``seed``-drawn vector. Some eigenvalue lies within the residual
    ||L v - theta v|| of theta, and Lanczos reaches the top of the spectrum
    first, so theta plus the residual bounds the top eigenvalue; it is
    capped at the Gershgorin bound from the degrees (`Laplacian.gershgorin`),
    2 max d_i, or 2 for a normalized Laplacian. A solver that does not
    converge, dense or Lanczos, gives that cap, which always holds. A
    combinatorial graph with no entry gets 0.
    """
    indptr, starts, kind = lap.adjacency.indptr, lap.starts, lap.kind
    sizes, ptr = starts[1:] - starts[:-1], indptr[starts]
    # a normalized Laplacian is the identity on a graph with no edge
    filled = sizes if kind == NORMALIZED else ptr[1:] - ptr[:-1]
    bounds = np.zeros(sizes.size)
    groups = defaultdict(list)  # the dense graphs of each node count
    for i, (n, nnz) in enumerate(zip(sizes.tolist(), filled.tolist())):
        if nnz and n <= DENSE_BOUND_LIMIT:
            groups[n].append(i)
        elif nnz:
            bounds[i] = _lanczos_bound(lap, i, seed)
    if not groups:
        return bounds.tolist()
    if lap.graph_count == 1:
        # one dense graph is its own stack, with nothing to gather
        return _dense_bounds(lap.toarray()[None], lap, [0]).tolist()
    # dense graph k, group by group, takes the n^2 slots from at[k] of a flat
    # array that each chunk builds its own part of, and its entries are the
    # ones from first[k] of all their entries gathered in that order
    order = np.fromiter(chain.from_iterable(groups.values()), np.int64)
    nodes, lo, nnz = sizes[order], starts[order], ptr[order + 1] - ptr[order]
    at = np.concatenate(([0], np.cumsum(nodes * nodes)))
    first = np.concatenate(([0], np.cumsum(nnz)))
    where = np.arange(first[-1]) + np.repeat(ptr[order] - first[:-1], nnz)
    rows, values = lap.entries()
    cols = lap.adjacency.indices[where]
    slots = np.repeat(at[:-1] - lo * (nodes + 1), nnz) + rows[where] * np.repeat(nodes, nnz) + cols
    data, diagonal = values[where], lap.diagonal()
    end = 0
    for n, members in groups.items():
        start, end, step = end, end + len(members), max(1, STACK_BYTES // (8 * n * n))
        for a in range(start, end, step):
            b = min(a + step, end)
            # bincount sums duplicate entries in order, as toarray does
            stack = np.bincount(
                slots[first[a] : first[b]] - at[a], weights=data[first[a] : first[b]], minlength=at[b] - at[a]
            ).reshape(-1, n, n)
            stack[:, np.arange(n), np.arange(n)] = diagonal[lo[a:b, None] + np.arange(n)]
            bounds[order[a:b]] = _dense_bounds(stack, lap, order[a:b])
    return bounds.tolist()


def _dense_bounds(stack: np.ndarray, lap: Laplacian, members) -> np.ndarray:
    """The dense-path bounds of a (graphs, n, n) stack of Laplacians, graphs
    ``members`` of ``lap``, from one ``eigvalsh`` call. If it fails, each
    graph is solved alone, and one whose own solve fails keeps its
    Gershgorin bound (`Laplacian.gershgorin`), computed only then."""
    pad = stack.shape[1] * np.finfo(np.float64).eps * np.abs(stack).sum(axis=1).max(axis=1)
    try:
        return np.linalg.eigvalsh(stack)[:, -1] + pad
    except np.linalg.LinAlgError:
        bounds = lap.gershgorin()[members]
    for k, matrix in enumerate(stack):
        with suppress(np.linalg.LinAlgError):
            bounds[k] = np.linalg.eigvalsh(matrix)[-1] + pad[k]
    return bounds


def _lanczos_bound(lap: Laplacian, i: int, seed: int) -> float:
    """The Lanczos bound of graph ``i`` of the operator's block, on its own
    rows, capped at its Gershgorin bound."""
    lo, hi = lap.starts[i : i + 2].tolist()
    if lap.graph_count > 1:
        lap = Laplacian(lap.kind, lap.adjacency[lo:hi, lo:hi], np.array([0, hi - lo]), lap.degrees[lo:hi])
    n = hi - lo
    # imported here: the module adds about 8 MB of resident memory
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    operator = LinearOperator((n, n), matvec=lambda v: lap @ v.reshape(-1), dtype=np.float64)
    v0 = np.random.default_rng(seed).standard_normal(n)
    cap = float(lap.gershgorin()[0])
    try:
        theta, vecs = eigsh(operator, k=1, which="LA", ncv=LANCZOS_BASIS, tol=LANCZOS_TOL, v0=v0)
    except ArpackNoConvergence:
        return cap
    v = vecs[:, 0]
    residual = float(np.linalg.norm(lap @ v - theta[0] * v))
    return min(float(theta[0]) + residual, cap)


@dataclass(frozen=True)
class ChebyshevFilter:
    """Polynomial filter h(lambda) = sum_k theta_k T_k(lambda~).

    ``lambda_max`` fixes the rescaling lambda~ = 2 lambda / lambda_max - 1
    that maps the spectrum into [-1, 1]. On a block of graphs (a
    `Laplacian` of several) each graph keeps its own rescaling:
    ``lambda_max`` then holds one value per node.
    ``coefficients`` is one vector, the same on every node; a table of
    rows raises `BadParams`, as does a ``lambda_max`` that is not positive
    and finite.
    """

    coefficients: np.ndarray
    lambda_max: float | np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=np.float64)
        if coeffs.ndim > 1:
            raise BadParams(f"filter coefficients must be one vector, got shape {coeffs.shape}")
        coeffs = coeffs.reshape(-1)
        if coeffs.size == 0:
            raise BadParams("filter needs at least one coefficient")
        if not np.isfinite(coeffs).all():
            raise BadParams("filter coefficients must be finite")
        lam = self.lambda_max
        if isinstance(lam, np.ndarray) and lam.ndim:
            lam = lam.astype(np.float64, copy=False)
            if lam.ndim > 1 or not ((lam > 0.0) & (lam < np.inf)).all():
                raise BadParams(f"lambda_max must be positive and finite, got {self.lambda_max}")
        elif not 0.0 < lam < np.inf:
            raise BadParams(f"lambda_max must be positive and finite, got {self.lambda_max}")
        else:
            lam = float(lam)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "lambda_max", lam)

    @property
    def order(self) -> int:
        return self.coefficients.size - 1

    def response(self) -> FrequencyResponse:
        return FrequencyResponse(lambda lam: sample_response(self, lam), kind="custom")


def block_signal(values: Sequence[np.ndarray] | Sequence[GraphSignal], starts: Sequence[int]) -> GraphSignal:
    """The graphs' signal values end to end, as a `Laplacian` of them lays
    out their nodes (``starts``), as one vertex signal. The block is
    checked at once: one concatenation (none for a block of one), the one
    finiteness test of `vertex_signal`, and one comparison of every
    length with its own graph's node count, which names the first signal
    that does not fit. A block of one vertex `GraphSignal`, checked when
    it was made, is only measured, and comes back as it is."""
    if len(values) == 1 and isinstance(values[0], GraphSignal):
        x = values[0]
        lengths = [len(x)]
    else:
        x = vertex_signal(values[0] if len(values) == 1 else np.concatenate(values, axis=None))
        lengths = list(map(np.size, values))
    counts = list(map(operator.sub, starts[1:], starts[:-1]))
    if lengths != counts:
        i = next(i for i, (length, count) in enumerate(zip(lengths, counts)) if length != count)
        raise DimensionMismatch(f"signal {i} has length {lengths[i]}, its graph {counts[i]} nodes")
    return x


def _recurrence(lap: Laplacian, lambda_max, x: np.ndarray, order: int):
    """Yield T_k(L~) x for k = 1..order, by the three-term recurrence
    T_k = 2 L~ T_(k-1) - T_(k-2), with exactly ``order`` products with the
    operator.

    With L = diag(L) - W (`graph.Laplacian`) and c = 2 / lambda_max (one
    value per node for a per-node ``lambda_max``), L~ = c L - 1, so

        T_1 = (c diag(L) - 1) x + W (-c x),
        T_(k+1) = d2 T_k - T_(k-1) + W z,  d2 = 2 c diag(L) - 2, z = -2 c T_k.

    c is constant on each graph, and W keeps each graph's rows to its own
    columns, so the rescaling rides on W's input. A step is three in-place
    elementwise calls, which leave d2 T_k - T_(k-1) in the step's buffer
    and z in another, and one kernel call, which adds W z into the first
    (`Laplacian.add_offdiagonal`). Four buffers made once serve every
    step, so no step makes a temporary, and a yielded term is overwritten
    three steps later; ``x`` is copied, never written.
    """
    if order < 1:
        return
    # arrays, as numpy multiplies by one faster than by a Python float
    c = np.asarray(2.0 / lambda_max)
    diagonal, scale = c * lap.diagonal() - 1.0, np.asarray(-c)
    work, prev, cur, nxt = np.empty((4, x.size))
    prev[:] = x
    np.multiply(diagonal, x, cur)
    lap.add_offdiagonal(np.multiply(scale, x, work), cur)
    yield cur
    # d2 and -2 c: doubling is exact
    diagonal += diagonal
    scale += scale
    for _ in range(order - 1):
        np.multiply(diagonal, cur, nxt)
        nxt -= prev
        lap.add_offdiagonal(np.multiply(scale, cur, work), nxt)
        yield nxt
        prev, cur, nxt = cur, nxt, prev


def _check_rows(lap: Laplacian, lambda_max, length: int) -> None:
    """Refuse a signal, or a per-node ``lambda_max``, whose length is not the operator's node count."""
    if length != lap.node_count:
        raise DimensionMismatch(f"signal length {length} != {lap.node_count}")
    if isinstance(lambda_max, np.ndarray) and lambda_max.ndim and lambda_max.shape != (length,):
        raise DimensionMismatch(f"filter has {lambda_max.shape[0]} node bounds for a signal of length {length}")


def chebyshev_stack(lap: Laplacian, lambda_max, x: np.ndarray, order: int) -> np.ndarray:
    """Columns T_k(L~) x for k = 0..order, as one C-order (nodes, order + 1)
    array, so that a product with a coefficient vector takes BLAS.

    Costs exactly ``order`` products with the off-diagonal weights, each a
    direct call of scipy's CSR kernel, in the in-place recurrence that
    `chebyshev_filter` runs too (`_recurrence`); each term is copied into
    its column of the preallocated stack as it comes. The stack is reused
    by the trainer: the filter output is linear in the coefficients, so
    d y / d theta_k is column k. ``lambda_max`` is a scalar, or one value
    per node on a block of graphs. An x that is not one value per node, or
    a per-node ``lambda_max`` of another length, raises `DimensionMismatch`.
    """
    if order < 0:
        raise BadParams("order must be non-negative")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionMismatch(f"signal of shape {x.shape} is not one value per node")
    _check_rows(lap, lambda_max, x.size)
    stack = np.empty((x.size, order + 1))
    stack[:, 0] = x
    for k, term in enumerate(_recurrence(lap, lambda_max, x, order), start=1):
        stack[:, k] = term
    return stack


def chebyshev_filter(lap: Laplacian, filt: ChebyshevFilter, x: GraphSignal) -> GraphSignal:
    """Apply a polynomial filter without eigendecomposition.

    Runs the in-place recurrence (`_recurrence`): exactly ``filt.order``
    products with the off-diagonal weights, each a direct call of scipy's
    CSR kernel that adds into the step's buffer, in buffers made once per
    call, with theta_k T_k(L~) x added to the output as each term comes.
    On a graph of a few dozen nodes, Python and scipy call overhead
    outweighs the arithmetic, so no step makes a sparse-product dispatch
    or a temporary.

    Requires filt.lambda_max >= the true largest eigenvalue, as
    `estimate_lambda_max` returns; below it the rescaled spectrum leaves
    [-1, 1] and the recurrence may diverge. An output that overflows raises
    `NonFiniteResponse`, with no numpy warning before it. A per-node
    ``lambda_max`` gives each node its own rescaling.
    """
    _check_rows(lap, filt.lambda_max, len(x))
    theta = filt.coefficients
    with np.errstate(over="ignore", invalid="ignore"):
        y = theta[0] * x.values
        weighted = np.empty_like(y)
        for k, term in enumerate(_recurrence(lap, filt.lambda_max, x.values, filt.order), start=1):
            y += np.multiply(theta[k], term, weighted)
    try:
        return vertex_signal(y)  # its finiteness test is the output's one
    except BadParams:
        raise NonFiniteResponse("filter output is non-finite: the recurrence overflowed") from None


@lru_cache(maxsize=None)
def product_operator(order: int) -> np.ndarray:
    """The map from two order-``order`` Chebyshev series to their product.

    Row j (order + 1) + k holds the coefficients of T_j T_k =
    (T_{j+k} + T_{|j-k|}) / 2 over T_0..T_{2 order}, so for coefficient
    vectors a and b, ``np.outer(a, b).ravel() @ product_operator(order)``
    is ``numpy.polynomial.chebyshev.chebmul(a, b)`` padded to 2 order + 1
    entries. Two filters of the same rescaled Laplacian applied one after
    the other are thus one filter of twice the order. Read-only.
    """
    if order < 0:
        raise BadParams("order must be non-negative")
    j, k = np.divmod(np.arange((order + 1) ** 2), order + 1)
    operator = np.zeros(((order + 1) ** 2, 2 * order + 1))
    np.add.at(operator, (np.arange(j.size), j + k), 0.5)
    np.add.at(operator, (np.arange(j.size), np.abs(j - k)), 0.5)
    operator.setflags(write=False)
    return operator


def series_operator(theta: np.ndarray) -> np.ndarray:
    """B(theta): ``c @ series_operator(theta)`` is ``chebmul(theta, c)``, padded as in `product_operator`."""
    order = theta.shape[0] - 1
    return (theta @ product_operator(order).reshape(order + 1, -1)).reshape(order + 1, 2 * order + 1)


@lru_cache(maxsize=None)
def _fit_operator(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The Chebyshev nodes a fit samples at, and the map from samples to coefficients.

    At the m nodes t_j = cos(pi (j + 1/2) / m), the polynomials T_k of
    degree k < m are discretely orthogonal: sum_j T_k(t_j) T_l(t_j) is m
    for k = l = 0, m / 2 for k = l > 0, and 0 otherwise. So with V the
    Chebyshev-Vandermonde matrix at the nodes, V^T V is diagonal, and the
    least-squares coefficients are theta = diag(1/m, 2/m, ..., 2/m) V^T f.
    Both arrays are read-only.
    """
    m = max(FIT_NODES, order + 1)
    t = np.cos(np.pi * (np.arange(m) + 0.5) / m)
    weights = np.full(order + 1, 2.0 / m)
    weights[0] = 1.0 / m
    operator = weights[:, None] * npcheb.chebvander(t, order).T
    t.setflags(write=False)
    operator.setflags(write=False)
    return t, operator


def fit_coefficients(responses: Sequence[FrequencyResponse], order: int, lambda_max: float) -> np.ndarray:
    """Least-squares Chebyshev coefficients of each response over [0, lambda_max].

    Samples every response at the Chebyshev nodes mapped into the
    interval and applies the closed-form least-squares operator
    (`_fit_operator`); any polynomial of degree <= order is recovered
    exactly (up to rounding). Gives one row per response, (R, order + 1).
    """
    if order < 0:
        raise BadParams("order must be non-negative")
    if not lambda_max > 0.0:
        raise BadParams(f"lambda_max must be positive, got {lambda_max}")
    t, operator = _fit_operator(order)
    lam = (t + 1.0) * (lambda_max / 2.0)
    rows = []
    for response in responses:
        targets = response(lam)
        if not np.isfinite(targets).all():
            raise NonFiniteResponse(f"response is non-finite at lambda={lam[~np.isfinite(targets)][0]}")
        rows.append(operator @ targets)
    return np.stack(rows)


def fit_chebyshev(
    response: FrequencyResponse,
    order: int,
    lambda_max: float,
) -> ChebyshevFilter:
    """Least-squares Chebyshev fit of a response over [0, lambda_max].

    The response is sampled at Chebyshev nodes mapped into the interval,
    where least squares has a closed form (`_fit_operator`). This is
    `fit_coefficients` for one response, the routine that also fits every
    rule template (`rules.rule_coefficients`).
    """
    return ChebyshevFilter(fit_coefficients([response], order, lambda_max)[0], lambda_max)


def sample_response(filt: ChebyshevFilter, grid) -> np.ndarray:
    """Evaluate h(lambda) on a grid inside [0, lambda_max]."""
    if np.ndim(filt.lambda_max):
        raise BadParams("a per-node filter has no single response")
    lam = np.asarray(grid, dtype=np.float64)
    if lam.size:
        lo, hi = float(lam.min()), float(lam.max())
        if lo < -1e-12 or hi > filt.lambda_max * (1.0 + 1e-12):
            raise OutOfRange(f"grid [{lo}, {hi}] leaves [0, {filt.lambda_max}]")
    t = np.clip(2.0 * lam / filt.lambda_max - 1.0, -1.0, 1.0)
    return np.asarray(npcheb.chebval(t, filt.coefficients), dtype=np.float64)


# ---------------------------------------------------------------------------
# file formats: filter JSON and signal CSV
# ---------------------------------------------------------------------------


def save_filter(filt: ChebyshevFilter, path: str | Path) -> None:
    payload = {"lambda_max": filt.lambda_max, "coefficients": [float(c) for c in filt.coefficients]}
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n")


def load_filter(path: str | Path) -> ChebyshevFilter:
    """The filter a `save_filter` file holds; malformed or invalid content
    (no coefficients, a non-finite one, ``lambda_max`` not positive and
    finite) raises `FormatError` naming the file."""
    with reading(path):
        payload = json.loads(read_text(path))
        lambda_max, coefficients = payload["lambda_max"], np.asarray(payload["coefficients"], dtype=object)
        if not (is_json_number(lambda_max) and all(map(is_json_number, coefficients.flat))):
            raise TypeError("lambda_max and every coefficient must be numbers")
        if coefficients.ndim != 1:
            raise ValueError(f"coefficients must be a flat list, got shape {coefficients.shape}")
        return ChebyshevFilter(coefficients.astype(np.float64), lambda_max)


def save_signal(x: GraphSignal, path: str | Path) -> None:
    Path(path).write_text("\n".join(repr(float(v)) for v in x.values) + "\n")


def load_signal(path: str | Path) -> GraphSignal:
    vals = []
    with reading(path):
        for lineno, line in records(read_text(path)):
            with reading(f"line {lineno}"):
                vals.append(float(line))
        return vertex_signal(np.asarray(vals, dtype=np.float64))
