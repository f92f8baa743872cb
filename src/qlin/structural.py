"""Controllability/observability machinery and subspace algebra.

Every geometric statement in the analysis is a thresholded numerical
statement: rank decisions use singular values with threshold
``max_dim * eps * sigma_max`` unless overridden.
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
    "contains_vector",
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
    M = np.hstack([a.basis, -b.basis])
    _, s, Vt = np.linalg.svd(M, full_matrices=True)
    tol = rank_tolerance(s, M.shape, rtol)
    null = Vt[int(np.sum(s > tol)):].T
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


def contains_vector(s: Subspace, v, tol: float = 1e-10) -> bool:
    """True if v lies in the subspace up to a relative projection residual."""
    v = np.asarray(v, dtype=float)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return True
    return bool(np.linalg.norm(v - s.project(v)) <= tol * nv)


def _krylov_columns(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    blocks, col = [], B
    for _ in range(A.shape[0]):
        blocks.append(col)
        col = A @ col
    return np.hstack(blocks) if blocks else np.zeros((A.shape[0], 0))


def _krylov_rows(C: np.ndarray, A: np.ndarray) -> np.ndarray:
    blocks, row = [], C
    for _ in range(A.shape[0]):
        blocks.append(row)
        row = row @ A
    return np.vstack(blocks) if blocks else np.zeros((0, A.shape[0]))


def controllability_matrix(model: StateSpaceModel,
                           input_port: Union[str, Sequence[str]]) -> np.ndarray:
    """[B, AB, ..., A^{N-1}B] restricted to the named input port(s)."""
    return _krylov_columns(model.A, model.b(input_port))


def observability_matrix(model: StateSpaceModel,
                         output_port: Union[str, Sequence[str]]) -> np.ndarray:
    """[C; CA; ...; CA^{N-1}] restricted to the named output port(s)."""
    return _krylov_rows(model.c(output_port), model.A)


def reduce_pair(A: np.ndarray, B: np.ndarray, C: np.ndarray):
    """Realization (A, B, C) restricted to what B excites and C sees.

    Restricts to the controllable subspace of B, then to the observable
    subspace of C inside it.  Both are invariant subspaces, so the transfer
    function is unchanged; modes invisible to the pair (and their poles)
    are discarded.
    """
    Q1 = range_space(_krylov_columns(A, B)).basis
    A1, B1, C1 = Q1.T @ A @ Q1, Q1.T @ B, C @ Q1
    Q2 = range_space(_krylov_rows(C1, A1).T).basis
    return Q2.T @ A1 @ Q2, Q2.T @ B1, C1 @ Q2


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
        primary = range_space(controllability_matrix(model, port), rtol=rtol)
    elif kind == "observable":
        primary = range_space(observability_matrix(model, port).T, rtol=rtol)
    else:
        raise ValueError(f"kind must be 'controllable' or 'observable', got {kind!r}")
    comp = complement(primary)
    T = np.hstack([primary.basis, comp.basis])
    transformed = model.similar(T)
    r = primary.dim
    n = model.nstates
    return KalmanDecomposition(kind, T, ((0, r), (r, n)), transformed)


def markov_parameters(model: StateSpaceModel, input_port, output_port,
                      count: Optional[int] = None) -> list[np.ndarray]:
    """Markov parameter sequence [CB, CAB, ..., CA^{count-1}B] for a port pair.

    By Cayley-Hamilton the default ``count = N`` terms decide whether the
    whole sequence vanishes; more terms are only useful for display.
    """
    B = model.b(input_port)
    C = model.c(output_port)
    if count is None:
        count = model.nstates
    out = []
    row = C
    for _ in range(count):
        out.append(row @ B)
        row = row @ model.A
    return out


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
