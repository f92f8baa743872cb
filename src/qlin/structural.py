"""Controllability/observability machinery and subspace algebra.

Every geometric statement in the analysis is a thresholded numerical
statement.  Controllable and observable subspaces come from one orthogonal
staircase (:func:`controllable_subspace`; the observable subspace is the
same routine on ``(A^T, C^T)``) whose rank cutoff is the backward-error
bound ``n^2 * eps * max(|A|_F, |B|_F)``.  The other rank decisions use
singular values with threshold ``max_dim * eps * sigma_max``.  ``rtol``
arguments replace the ``n^2 * eps`` (never below ``n * eps``) /
``max_dim * eps`` factor.

A :class:`~qlin.core.StateSpaceModel` is immutable, so the goal engines and
the CLI read its subspaces through a per-model memo (``_subspace`` and
``_reduced_pair``): each controllable subspace, observable subspace and
reduced pair is one staircase per model, keyed by side and the resolved
column/row indices rather than port names.  These are the staircase
entries of ``StateSpaceModel._memo``; its one resolvent entry belongs to
:mod:`qlin.xfer` alone, and no resolvent probe is ever cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .core import ShapeError, StateSpaceModel, ORTHO_TOL

__all__ = [
    "Subspace",
    "KalmanDecomposition",
    "rank_tolerance",
    "span_of",
    "range_space",
    "kernel",
    "complement",
    "intersect",
    "principal_angles",
    "controllable_subspace",
    "controllability_matrix",
    "observability_matrix",
    "kalman_decompose",
    "markov_parameters",
    "classical_subsystem",
]


def rank_tolerance(svals: np.ndarray, shape, rtol: Optional[float] = None) -> float:
    """Singular-value threshold below which directions count as zero."""
    if svals.size == 0:
        return 0.0
    if rtol is None:
        rtol = max(shape) * np.finfo(float).eps
    return rtol * float(svals[0])


@dataclass(frozen=True)
class Subspace:
    """Linear subspace represented by an orthonormal column basis."""

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float)
        if basis.ndim == 1:
            basis = basis.reshape(-1, 1)
        if basis.shape[0] != self.ambient_dim:
            raise ShapeError(
                f"basis rows {basis.shape[0]} do not match ambient dim {self.ambient_dim}")
        if basis.shape[1] > self.ambient_dim:
            raise ShapeError("basis has more columns than the ambient dimension")
        if basis.shape[1]:
            defect = np.max(np.abs(basis.T @ basis - np.eye(basis.shape[1])))
            if defect > 1e3 * ORTHO_TOL * max(1, self.ambient_dim):
                raise ShapeError(f"basis columns are not orthonormal (defect {defect:.3e})")
        basis = np.array(basis)
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def project(self, v: np.ndarray) -> np.ndarray:
        """Orthogonal projection of v onto the subspace."""
        return self.basis @ (self.basis.T @ np.asarray(v, dtype=float))


def _empty(ambient: int) -> Subspace:
    return Subspace(ambient, np.zeros((ambient, 0)))


def span_of(vectors, ambient_dim: Optional[int] = None, rtol: Optional[float] = None) -> Subspace:
    """Orthonormalized span of the given (column) vectors."""
    M = np.asarray(vectors, dtype=float)
    if M.ndim == 1:
        M = M.reshape(-1, 1)
    if ambient_dim is None:
        ambient_dim = M.shape[0]
    if M.size == 0:
        return _empty(ambient_dim)
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    r = int(np.sum(s > rank_tolerance(s, M.shape, rtol)))
    return Subspace(ambient_dim, U[:, :r])


def range_space(mat, rtol: Optional[float] = None) -> Subspace:
    """Column space of a matrix."""
    return span_of(np.atleast_2d(np.asarray(mat, dtype=float)), rtol=rtol)


def kernel(mat, rtol: Optional[float] = None) -> Subspace:
    """Null space of a matrix."""
    M = np.atleast_2d(np.asarray(mat, dtype=float))
    if M.shape[0] == 0 or M.size == 0:
        return Subspace(M.shape[1], np.eye(M.shape[1]))
    _, s, Vt = np.linalg.svd(M, full_matrices=True)
    r = int(np.sum(s > rank_tolerance(s, M.shape, rtol)))
    return Subspace(M.shape[1], Vt[r:].T)


def complement(s: Subspace) -> Subspace:
    """Orthogonal complement within the ambient space."""
    if s.dim == 0:
        return Subspace(s.ambient_dim, np.eye(s.ambient_dim))
    U, _, _ = np.linalg.svd(s.basis, full_matrices=True)
    return Subspace(s.ambient_dim, U[:, s.dim:])


def intersect(a: Subspace, b: Subspace, rtol: Optional[float] = None) -> Subspace:
    """Intersection of two subspaces of the same ambient space."""
    if a.ambient_dim != b.ambient_dim:
        raise ShapeError(
            f"ambient mismatch: {a.ambient_dim} vs {b.ambient_dim}")
    if a.dim == 0 or b.dim == 0:
        return _empty(a.ambient_dim)
    # x = Qa alpha = Qb beta  <=>  [Qa, -Qb] [alpha; beta] = 0
    null = kernel(np.hstack([a.basis, -b.basis]), rtol=rtol).basis
    if null.shape[1] == 0:
        return _empty(a.ambient_dim)
    return span_of(a.basis @ null[:a.dim, :], ambient_dim=a.ambient_dim, rtol=rtol)


def principal_angles(a: Subspace, b: Subspace) -> np.ndarray:
    """Principal angles (radians, ascending) between two subspaces.

    Small angles are computed from the sine (projection residual) rather
    than the cosine, which bottoms out near sqrt(eps).
    """
    if a.ambient_dim != b.ambient_dim:
        raise ShapeError("ambient mismatch")
    k = min(a.dim, b.dim)
    if k == 0:
        return np.zeros(0)
    M = a.basis.T @ b.basis
    cosines = np.linalg.svd(M, compute_uv=False)[:k]
    angles = np.arccos(np.clip(cosines, -1.0, 1.0))
    small = cosines > np.sqrt(0.5)
    if np.any(small):
        resid = b.basis - a.basis @ M
        sines = np.sort(np.linalg.svd(resid, compute_uv=False))[:k]
        angles[small] = np.arcsin(np.clip(sines[small], -1.0, 1.0))
    return np.sort(angles)


def _krylov_rows(C: np.ndarray, A: np.ndarray, count: int):
    row = C
    for _ in range(count):
        yield row
        row = row @ A


def controllability_matrix(model: StateSpaceModel,
                           input_port: Union[str, Sequence[str]]) -> np.ndarray:
    """[B, AB, ..., A^{N-1}B] restricted to the named input port(s)."""
    blocks, col = [], model.b(input_port)
    for _ in range(model.nstates):
        blocks.append(col)
        col = model.A @ col
    return np.hstack(blocks) if blocks else np.zeros((0, 0))


def observability_matrix(model: StateSpaceModel,
                         output_port: Union[str, Sequence[str]]) -> np.ndarray:
    """[C; CA; ...; CA^{N-1}] restricted to the named output port(s)."""
    blocks = list(_krylov_rows(model.c(output_port), model.A, model.nstates))
    return np.vstack(blocks) if blocks else np.zeros((0, model.nstates))


def _cutoff(A: np.ndarray, B: np.ndarray, rtol: Optional[float]) -> float:
    step = A.shape[0] * np.finfo(float).eps  # one step's rounding: the least cutoff
    rtol = A.shape[0] * step if rtol is None else max(rtol, step)
    return rtol * max(np.linalg.norm(A), np.linalg.norm(B))


def controllable_subspace(A: np.ndarray, B: np.ndarray,
                          rtol: Optional[float] = None) -> Subspace:
    """Controllable subspace of (A, B) by the orthogonal staircase.

    Each step keeps the part of ``A @ (newest block)`` orthogonal to the
    basis so far (orthogonalized twice) and cuts its rank with a small SVD
    at ``n^2 * eps * max(|A|_F, |B|_F)``: ``n * eps`` per step, times ``n``
    for rounding carried across up to ``n`` steps.  Directions below it are
    within rounding of a pair that does not reach them (Paige, IEEE TAC
    26(1) 1981; Van Dooren, ibid.).  ``rtol`` replaces the ``n^2 * eps``
    factor, but not below one step's ``n * eps``, whose residue is rounding
    rather than a direction.  The observable subspace of (A, C) is
    ``controllable_subspace(A.T, C.T)``.
    """
    return _staircase(A, B, _cutoff(A, B, rtol))


def _staircase(A: np.ndarray, B: np.ndarray, cutoff: float) -> Subspace:
    n = A.shape[0]
    Q = np.empty((n, n))
    lo = hi = 0
    block = B
    while block.shape[1] and hi < n:
        if block.shape[1] == 1:  # the SVD of one column is its norm
            s = np.linalg.norm(block)
            r = int(s > cutoff)
            if r:
                Q[:, hi] = block[:, 0] / s
        else:
            U, s, _ = np.linalg.svd(block, full_matrices=False)
            r = min(int(np.count_nonzero(s > cutoff)), n - hi)
            Q[:, hi:hi + r] = U[:, :r]
        lo, hi = hi, hi + r
        block = A @ Q[:, lo:hi]
        for _ in range(2):
            block -= Q[:, :hi] @ (Q[:, :hi].T @ block)
    return Subspace(n, Q[:, :hi])


def reduce_pair(A: np.ndarray, B: np.ndarray, C: np.ndarray):
    """Realization (A, B, C) restricted to what B excites and C sees.

    Restricts to the controllable subspace of (A, B), then to the observable
    subspace of C inside it, cut as the full observable staircase of (A, C)
    would be.  Both are invariant, so the transfer function and Markov
    parameters are unchanged; modes invisible to the pair (and their poles)
    are discarded.
    """
    return _restrict(A, B, C, controllable_subspace(A, B).basis)


def _restrict(A, B, C, Q1):
    """The observable step of :func:`reduce_pair` inside the controllable basis Q1."""
    A1, B1, C1 = Q1.T @ A @ Q1, Q1.T @ B, C @ Q1
    Q2 = _staircase(A1.T, C1.T, _cutoff(A, C.T, None)).basis
    return Q2.T @ A1 @ Q2, Q2.T @ B1, C1 @ Q2


def _subspace(model: StateSpaceModel, side: str, ports) -> Subspace:
    """Controllable (``side="in"``: input columns) or observable
    (``side="out"``: output rows) subspace of ``model``'s ports, at the
    default cutoff.  One staircase per model and resolved index set, so
    ``"W1"`` and ``["W1.Q", "W1.P"]`` share it."""
    idx = (model.inputs if side == "in" else model.outputs).indices(ports)
    key = (side, tuple(idx.tolist()))
    memo = model._memo
    if key not in memo:
        memo[key] = (controllable_subspace(model.A, model.B[:, idx]) if side == "in"
                     else controllable_subspace(model.A.T, model.C[idx].T))
    return memo[key]


def _reduced_pair(model: StateSpaceModel, inputs, outputs):
    """:func:`reduce_pair` of a port pair of ``model``, computed once per
    model; it starts from the memoised controllable basis of ``inputs``."""
    cols, rows = model.inputs.indices(inputs), model.outputs.indices(outputs)
    key = ("pair", tuple(cols.tolist()), tuple(rows.tolist()))
    memo = model._memo
    if key not in memo:
        memo[key] = _restrict(model.A, model.B[:, cols], model.C[rows],
                              _subspace(model, "in", inputs).basis)
        for arr in memo[key]:
            arr.setflags(write=False)
    return memo[key]


def largest_markov(A: np.ndarray, B: np.ndarray, C: np.ndarray, count: int,
                   radius: float) -> float:
    """Largest entry magnitude of ``C A^k B / radius^(k+1)`` over ``k < count``
    (0 if empty), computed as ``(C / radius) (A / radius)^k B``: for
    ``|A|_2 < radius / 2`` the terms shrink geometrically and cannot
    overflow, and by Cauchy's estimate each is at most the largest
    ``|C (sI - A)^{-1} B|`` on the circle ``|s| = radius``."""
    if not (A.size and B.size and C.size):
        return 0.0
    return max(float(np.max(np.abs(row @ B)))
               for row in _krylov_rows(C / radius, A / radius, count))


@dataclass(frozen=True)
class KalmanDecomposition:
    """Coordinate change exhibiting the controllable/observable split.

    ``T`` is orthogonal (built from orthonormal subspace bases), so the
    transformed realization is ``(T^T A T, T^T B, C T)``.  For
    ``kind="controllable"`` the leading block is controllable and the
    trailing block evolves autonomously with zero input rows; for
    ``kind="observable"`` the leading block is observable and is the only
    one visible in the output.
    """

    kind: str
    T: np.ndarray
    block_structure: tuple[tuple[int, int], tuple[int, int]]
    transformed: StateSpaceModel

    @property
    def primary_dim(self) -> int:
        lo, hi = self.block_structure[0]
        return hi - lo


def kalman_decompose(model: StateSpaceModel, port: Union[str, Sequence[str]],
                     kind: str = "controllable",
                     rtol: Optional[float] = None) -> KalmanDecomposition:
    """Kalman decomposition w.r.t. one input (controllable) or output (observable) port."""
    if kind == "controllable":
        primary = controllable_subspace(model.A, model.b(port), rtol)
    elif kind == "observable":
        primary = controllable_subspace(model.A.T, model.c(port).T, rtol)
    else:
        raise ValueError(f"kind must be 'controllable' or 'observable', got {kind!r}")
    T = np.hstack([primary.basis, complement(primary).basis])
    r = primary.dim
    return KalmanDecomposition(kind, T, ((0, r), (r, model.nstates)), model.similar(T))


def markov_parameters(model: StateSpaceModel, input_port, output_port,
                      count: Optional[int] = None) -> list[np.ndarray]:
    """Markov parameter sequence [CB, CAB, ..., CA^{count-1}B] for a port pair.

    By Cayley-Hamilton the default ``count = N`` terms decide whether the
    whole sequence vanishes; more terms are only useful for display.
    """
    if count is None:
        count = model.nstates
    B = model.b(input_port)
    return [row @ B for row in _krylov_rows(model.c(output_port), model.A, count)]


def classical_subsystem(candidate: Subspace, form: np.ndarray,
                        tol: float = 1e-10) -> bool:
    """True iff all variables v_i^T x spanned by the candidate commute.

    ``form`` is the 2n x 2n commutation matrix of the quantum block; the
    test is ``v_i^T Sigma v_j = 0`` for every basis pair.
    """
    form = np.asarray(form, dtype=float)
    if candidate.ambient_dim != form.shape[0]:
        raise ShapeError("candidate ambient dim does not match the commutation form")
    if candidate.dim == 0:
        return True
    comm = candidate.basis.T @ form @ candidate.basis
    return bool(np.max(np.abs(comm)) <= tol)
