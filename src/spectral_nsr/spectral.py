"""Spectral machinery: eigenbasis, graph Fourier transforms, and filters.

Two filtering routes are provided. The Chebyshev route, which the
pipeline and the trainer use, evaluates a polynomial response with K
sparse matrix-vector products and never materializes the basis, so it
scales linearly in the edge count. It maps the spectrum into [-1, 1] with
an upper bound on the top eigenvalue, which `estimate_lambda_max`
guarantees. The exact route diagonalizes the Laplacian and applies an
arbitrary frequency response in the eigenbasis; it is limited to graphs
small enough for a dense eigendecomposition and serves as the reference
the Chebyshev route is checked against.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
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
    DomainMismatch,
    FormatError,
    NonFiniteResponse,
    OutOfRange,
    TooLarge,
)
from .graph import NORMALIZED, LaplacianMatrix, stack_csr

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

VERTEX = "vertex"
SPECTRAL = "spectral"


@dataclass(frozen=True)
class GraphSignal:
    """Real vector over nodes, tagged with the domain it lives in."""

    values: np.ndarray
    domain: str = VERTEX

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if not np.isfinite(v).all():
            raise BadParams("signal contains non-finite entries")
        if self.domain not in (VERTEX, SPECTRAL):
            raise BadParams(f"unknown signal domain {self.domain!r}")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.shape[0]


def vertex_signal(values) -> GraphSignal:
    return GraphSignal(values, VERTEX)


def spectral_signal(values) -> GraphSignal:
    return GraphSignal(values, SPECTRAL)


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

    def validate(self, laplacian: LaplacianMatrix | None = None) -> None:
        lam, u = self.eigenvalues, self.eigenvectors
        if np.any(np.diff(lam) < 0):
            raise BadParams("eigenvalues are not ascending")
        if lam[0] < -1e-9:
            raise BadParams(f"smallest eigenvalue {lam[0]} below -1e-9")
        gram = u.T @ u - np.eye(len(lam))
        if np.abs(gram).max() > 1e-8:
            raise BadParams("eigenvectors are not orthonormal")
        if laplacian is not None:
            rec = (u * lam) @ u.T
            dense = laplacian.matrix.toarray()
            scale = max(np.abs(dense).max(), 1.0)
            if np.abs(rec - dense).max() > 1e-7 * scale:
                raise BadParams("eigenpairs do not reconstruct the Laplacian")


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector signs so the first non-negligible entry is positive."""
    out = vectors.copy()
    for col in range(out.shape[1]):
        v = out[:, col]
        nz = np.flatnonzero(np.abs(v) > 1e-12 * max(np.abs(v).max(), 1e-300))
        if nz.size and v[nz[0]] < 0.0:
            out[:, col] = -v
    return out


def eigendecompose(lap: LaplacianMatrix, limit: int = DENSE_LIMIT) -> SpectralBasis:
    """Full dense eigendecomposition of a Laplacian.

    Refuses graphs larger than ``limit`` nodes (TooLarge); callers above
    the limit should stay on the Chebyshev path.
    """
    n = lap.node_count
    if n > limit:
        raise TooLarge(f"N={n} exceeds the dense eigendecomposition limit {limit}")
    try:
        vals, vecs = np.linalg.eigh(lap.matrix.toarray())
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigendecomposition failed: {exc}") from exc
    return SpectralBasis(vals, _fix_signs(vecs))


def gft(basis: SpectralBasis, x: GraphSignal) -> GraphSignal:
    """Project a vertex signal onto the eigenbasis: xhat = U^T x."""
    if x.domain != VERTEX:
        raise DomainMismatch("gft expects a vertex-domain signal")
    if len(x) != basis.node_count:
        raise DimensionMismatch(f"signal length {len(x)} != {basis.node_count}")
    return spectral_signal(basis.eigenvectors.T @ x.values)


def igft(basis: SpectralBasis, xhat: GraphSignal) -> GraphSignal:
    """Inverse transform: x = U xhat."""
    if xhat.domain != SPECTRAL:
        raise DomainMismatch("igft expects a spectral-domain signal")
    if len(xhat) != basis.node_count:
        raise DimensionMismatch(f"signal length {len(xhat)} != {basis.node_count}")
    return vertex_signal(basis.eigenvectors @ xhat.values)


def exact_filter(basis: SpectralBasis, response: FrequencyResponse, x: GraphSignal) -> GraphSignal:
    """y = U g(Lambda) U^T x. A non-finite gain or output raises
    `NonFiniteResponse`, with no numpy warning before it."""
    if x.domain != VERTEX:
        raise DomainMismatch("exact_filter expects a vertex-domain signal")
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


def estimate_lambda_max(
    lap: LaplacianMatrix | Sequence[LaplacianMatrix], seed: int = 0
) -> float | list[float]:
    """An upper bound on the largest eigenvalue, for the Chebyshev rescaling.

    Up to `DENSE_BOUND_LIMIT` nodes the top eigenvalue comes from a dense
    ``eigvalsh``, padded by n eps ||L||_1, which covers its rounding error.
    Larger graphs take the top Ritz pair (theta, v) of a Lanczos run
    started from a ``seed``-drawn vector. Some eigenvalue lies within the
    residual ||L v - theta v|| of theta, and Lanczos reaches the top of the
    spectrum first, so theta plus the residual bounds the top eigenvalue;
    it is capped at the Gershgorin row-sum bound, and at 2 for a
    normalized Laplacian. A solver that does not converge gives that cap,
    which always holds.

    A list of Laplacians gives a list of bounds, each the one its
    Laplacian gives alone. The dense ones of each node count are stacked
    into one array and take one ``eigvalsh`` call (per `STACK_BYTES`).
    """
    if isinstance(lap, LaplacianMatrix):
        return estimate_lambda_max([lap], seed)[0]
    bounds = [0.0] * len(lap)
    dense_groups = defaultdict(list)
    for i, one in enumerate(lap):
        n = one.node_count
        if n == 0 or one.matrix.nnz == 0:
            continue
        if n <= DENSE_BOUND_LIMIT:
            dense_groups[n].append(i)
        else:
            bounds[i] = _lanczos_bound(one, seed)
    for n, members in dense_groups.items():
        step = max(1, STACK_BYTES // (8 * n * n))
        for start in range(0, len(members), step):
            chunk = members[start : start + step]
            for i, bound in zip(chunk, _dense_bounds([lap[i] for i in chunk], n), strict=True):
                bounds[i] = bound
    return bounds


def _dense_bounds(laps: list[LaplacianMatrix], n: int) -> list[float]:
    """The dense-path bounds of ``n``-node Laplacians, from one stacked ``eigvalsh``."""
    mats = [lap.matrix for lap in laps]
    # scatter into one (graphs, n, n) array; bincount sums duplicate
    # entries in order, as toarray does
    rows = np.repeat(np.arange(len(mats) * n), np.concatenate([np.diff(m.indptr) for m in mats]))
    cols = np.concatenate([m.indices for m in mats])
    data = np.concatenate([m.data for m in mats])
    dense = np.bincount(rows * n + cols, weights=data, minlength=len(mats) * n * n).reshape(-1, n, n)
    norm1 = np.abs(dense).sum(axis=1).max(axis=1)
    try:
        top = np.linalg.eigvalsh(dense)[:, -1]
    except np.linalg.LinAlgError:
        top = [_top_eigenvalue(matrix) for matrix in dense]
    return [
        _gershgorin(lap, float(norm)) if t is None else float(t) + n * np.finfo(np.float64).eps * float(norm)
        for lap, t, norm in zip(laps, top, norm1, strict=True)
    ]


def _top_eigenvalue(dense: np.ndarray) -> float | None:
    """The top eigenvalue of one dense symmetric matrix, or None if ``eigvalsh`` fails."""
    try:
        return float(np.linalg.eigvalsh(dense)[-1])
    except np.linalg.LinAlgError:
        return None


def _lanczos_bound(lap: LaplacianMatrix, seed: int) -> float:
    m = lap.matrix
    n = m.shape[0]
    # imported here: the module adds about 8 MB of resident memory
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    cap = _gershgorin(lap, float(abs(m).sum(axis=1).max()))
    v0 = np.random.default_rng(seed).standard_normal(n)
    try:
        theta, vecs = eigsh(m, k=1, which="LA", ncv=LANCZOS_BASIS, tol=LANCZOS_TOL, v0=v0)
    except ArpackNoConvergence:
        return cap
    v = vecs[:, 0]
    residual = float(np.linalg.norm(m @ v - theta[0] * v))
    return min(float(theta[0]) + residual, cap)


def _gershgorin(lap: LaplacianMatrix, row_sum: float) -> float:
    # the largest absolute row sum bounds every eigenvalue; a normalized
    # Laplacian's spectrum also lies in [0, 2]
    return min(row_sum, 2.0) if lap.kind == NORMALIZED else row_sum


@dataclass(frozen=True)
class ChebyshevFilter:
    """Polynomial filter h(lambda) = sum_k theta_k T_k(lambda~).

    ``lambda_max`` fixes the rescaling lambda~ = 2 lambda / lambda_max - 1
    that maps the spectrum into [-1, 1]. On graphs stacked block-diagonally
    (`block_diagonal`) each graph keeps its own rescaling: ``lambda_max``
    then holds one value per node. ``coefficients`` is one vector, the
    same on every node; a table of rows raises `BadParams`.
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
            if lam.ndim > 1 or not (lam > 0.0).all():
                raise BadParams(f"lambda_max must be positive, got {self.lambda_max}")
        elif not lam > 0.0:
            raise BadParams(f"lambda_max must be positive, got {self.lambda_max}")
        else:
            lam = float(lam)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "lambda_max", lam)

    @property
    def order(self) -> int:
        return self.coefficients.size - 1

    def response(self) -> FrequencyResponse:
        return FrequencyResponse(lambda lam: sample_response(self, lam), kind="custom")


def _shifted_apply(matrix, lambda_max, x: np.ndarray) -> np.ndarray:
    # L~ x = (2 / lambda_max) L x - x, one sparse product; a per-node
    # lambda_max scales each row by its own graph's bound
    return (2.0 / lambda_max) * (matrix @ x) - x


def block_diagonal(
    laplacians: Sequence[LaplacianMatrix], lambda_maxes: Sequence[float]
) -> tuple[LaplacianMatrix, float | np.ndarray, np.ndarray]:
    """Several graphs as one system, for one Chebyshev recurrence over all.

    Returns the block-diagonal Laplacian (the graphs' CSR arrays,
    offset-concatenated in order), each node's own graph's lambda_max, and
    where each graph's nodes start, followed by the total node count. The
    rescaling L~ = diag(2 / lambda_max) L - I then keeps every graph's
    spectrum in [-1, 1], and each row of a product is the one its graph
    gives alone. A single graph comes back as it is, with its scalar
    lambda_max: nothing is assembled.
    """
    if len(laplacians) != len(lambda_maxes) or not laplacians:
        raise BadParams(f"{len(laplacians)} Laplacians for {len(lambda_maxes)} lambda_max values")
    matrix, starts = stack_csr([lap.matrix for lap in laplacians])
    if len(laplacians) == 1:
        return laplacians[0], lambda_maxes[0], starts
    kinds = {lap.kind for lap in laplacians}
    if len(kinds) != 1:
        raise BadParams(f"cannot stack Laplacians of kinds {sorted(kinds)}")
    lambda_max = np.repeat(np.asarray(lambda_maxes, dtype=np.float64), np.diff(starts))
    return LaplacianMatrix(kinds.pop(), matrix), lambda_max, starts


def block_signal(values: Sequence[np.ndarray] | Sequence[GraphSignal], starts: Sequence[int]) -> GraphSignal:
    """The graphs' signal values end to end, as `block_diagonal` lays out
    their nodes (``starts``), as one vertex signal. The block is checked
    at once: one concatenation (none for a block of one), the one
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


def chebyshev_stack(lap: LaplacianMatrix, lambda_max, x: np.ndarray, order: int) -> np.ndarray:
    """Columns T_k(L~) x for k = 0..order, via the three-term recurrence.

    Costs exactly ``order`` sparse matrix-vector products. The stack is
    reused by the trainer: the filter output is linear in the
    coefficients, so d y / d theta_k is column k. ``lambda_max`` is a
    scalar, or one value per node on a block (`block_diagonal`).
    """
    if order < 0:
        raise BadParams("order must be non-negative")
    x = np.asarray(x, dtype=np.float64)
    cols = [x]
    if order >= 1:
        cols.append(_shifted_apply(lap.matrix, lambda_max, x))
    for _ in range(2, order + 1):
        cols.append(2.0 * _shifted_apply(lap.matrix, lambda_max, cols[-1]) - cols[-2])
    return np.stack(cols, axis=1)


def chebyshev_filter(lap: LaplacianMatrix, filt: ChebyshevFilter, x: GraphSignal) -> GraphSignal:
    """Apply a polynomial filter without eigendecomposition.

    Requires filt.lambda_max >= the true largest eigenvalue, as
    `estimate_lambda_max` returns; below it the rescaled spectrum leaves
    [-1, 1] and the recurrence may diverge. An output that overflows raises
    `NonFiniteResponse`, with no numpy warning before it. A per-node
    ``lambda_max`` gives each node its own rescaling.
    """
    if x.domain != VERTEX:
        raise DomainMismatch("chebyshev_filter expects a vertex-domain signal")
    if len(x) != lap.node_count:
        raise DimensionMismatch(f"signal length {len(x)} != {lap.node_count}")
    if np.ndim(filt.lambda_max) and filt.lambda_max.shape[0] != len(x):
        raise DimensionMismatch(f"filter has {filt.lambda_max.shape[0]} node bounds for a signal of length {len(x)}")
    theta = filt.coefficients
    prev = x.values
    with np.errstate(over="ignore", invalid="ignore"):
        y = theta[0] * prev
        if filt.order >= 1:
            cur = _shifted_apply(lap.matrix, filt.lambda_max, prev)
            y = y + theta[1] * cur
            for k in range(2, filt.order + 1):
                prev, cur = cur, 2.0 * _shifted_apply(lap.matrix, filt.lambda_max, cur) - prev
                y = y + theta[k] * cur
    if not np.isfinite(y).all():
        raise NonFiniteResponse("filter output is non-finite: the recurrence overflowed")
    return vertex_signal(y)


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
    (no coefficients, a non-finite one, ``lambda_max`` not positive) raises
    `FormatError` naming the file."""
    try:
        payload = json.loads(Path(path).read_text())
        coefficients = np.asarray(payload["coefficients"], dtype=np.float64)
        if coefficients.ndim != 1:
            raise ValueError(f"coefficients must be a flat list, got shape {coefficients.shape}")
        return ChebyshevFilter(coefficients, float(payload["lambda_max"]))
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: malformed filter JSON: {exc}") from exc
    except BadParams as exc:
        raise FormatError(f"{path}: invalid filter: {exc}") from exc


def save_signal(x: GraphSignal, path: str | Path) -> None:
    Path(path).write_text("\n".join(repr(float(v)) for v in x.values) + "\n")


def load_signal(path: str | Path) -> GraphSignal:
    vals = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            vals.append(float(line))
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: malformed signal value {line!r}") from exc
    try:
        return vertex_signal(np.asarray(vals, dtype=np.float64))
    except BadParams as exc:
        raise FormatError(f"{path}: {exc}") from exc
