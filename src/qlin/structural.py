"""Controllability/observability machinery and subspace algebra.

Every geometric statement in the analysis is a thresholded numerical
statement.  Controllable and observable subspaces come from one orthogonal
staircase (:func:`controllable_subspace`; the observable subspace is the
same routine on ``(A^T, C^T)``) whose rank cutoff is the backward-error
bound ``n^2 * eps * max(|A|_F, |B|_F)``.  The other rank decisions
(:func:`span_of`, :func:`kernel`, :func:`intersect`) follow one rule,
``_ranks``: the count of singular values above
``max_dim * eps * sigma_max``, for one matrix or a stack.  ``rtol``
arguments replace the ``n^2 * eps`` (never below ``n * eps``) /
``max_dim * eps`` factor.

This module is the one home of the verdict scales.  Every scale is a
Frobenius norm from one implementation, ``core._frobenius``, read through
``_scales``, which rejects a norm above ``SCALE_MAX = sqrt(float max)``
with a ``ValidationError`` that names the matrix: every cutoff and
threshold multiplies two scales and the staircase squares one, so a larger
norm could overflow to an infinite cutoff.  The rules that turn the norms
into decisions are written once here, each on stacks of norms: the
staircase cutoff ``_cutoff``, the probe radius ``_radius`` and the probe
threshold ``_threshold``; :mod:`qlin.goals` imports them.  ``|A|_F`` is
computed and checked once per model (``StateSpaceModel._norm_A``), and the
norm of a port block once per memo miss (``_subspaces``,
``_reduced_pair``).

A :class:`~qlin.core.StateSpaceModel` is immutable, so the goal engines and
the CLI read its subspaces through a per-model memo (``_subspaces`` and
``_reduced_pair``): each controllable subspace, observable subspace and
reduced pair is one staircase per model, keyed by side and the resolved
column/row indices rather than port names.  ``_subspaces`` fills the memo
of a list of models with one stacked staircase per state dimension (one
model is a list of one, ``_subspaces([model], ...)[0]``).  Every
staircase takes a stack, and one pair is a stack of one (the views
``A[None]`` and ``B[None]`` of its own matrices); the stacked staircase
gives each member the bits of its one-model staircase.  These are the
staircase entries of ``StateSpaceModel._memo``; its one resolvent entry
belongs to :mod:`qlin.xfer` alone, and no resolvent probe is ever cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from .core import (ORTHO_TOL, ShapeError, StateSpaceModel, ValidationError, _as_array,
                   _as_matrix, _frobenius)

__all__ = [
    "Subspace",
    "KalmanDecomposition",
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

_EPS = np.finfo(float).eps

#: The largest verdict scale, ``sqrt(float max)``: every cutoff and threshold
#: multiplies two scales and the staircase squares one, so a larger scale
#: could overflow to an infinite cutoff, which cuts every direction.
SCALE_MAX = float(np.finfo(float).max) ** 0.5


def _scales(name: str, blocks: np.ndarray) -> np.ndarray:
    """The verdict scales ``|x|_F`` of the stack of matrices ``blocks``
    (``core._frobenius``), which every rule below reads; a
    ``ValidationError`` that names the matrix ``name`` if one is above
    ``SCALE_MAX``."""
    norms = _frobenius(blocks)
    if norms.max(initial=0.0) > SCALE_MAX:
        raise ValidationError(f"{name} is too large to judge: |{name}|_F = {norms.max():.3e}")
    return norms


def _cutoff(n: int, norm_A, norm_B, rtol: Optional[float] = None) -> np.ndarray:
    """The staircase's rank cutoffs ``rtol * max(|A|_F, |B|_F)`` of a stack of
    ``n``-state pairs, from the stacks of their norms.  ``rtol`` defaults to
    ``n^2 * eps`` and is never below one step's rounding, ``n * eps``."""
    step = n * _EPS
    return (n * step if rtol is None else max(rtol, step)) * np.maximum(norm_A, norm_B)


def _radius(norm_A) -> np.ndarray:
    """The probe radii ``R = 2 |A|_F + 1`` of a stack of drift norms.  On
    ``|s| = R`` every point is at least ``R - |A|_F = |A|_F + 1`` from the
    spectrum, so ``cond(sI - A) <= 3`` and ``|(sI - A)^{-1}| <= 1 / (|A|_F + 1)``."""
    return 2.0 * norm_A + 1.0


def _threshold(base: float, norm_left, norm_right, norm_A) -> np.ndarray:
    """The probe zero thresholds ``base * |left|_F |right|_F / (|A|_F + 1)``,
    multiplied in that order, of a stack of legs ``left (sI - A)^{-1} right``
    from the stacks of their norms: on the circle of :func:`_radius` the
    resolvent is at most ``1 / (|A|_F + 1)``, so the bound does not grow with
    the state dimension."""
    return base * norm_left * norm_right / (norm_A + 1.0)


def _ranks(s: np.ndarray, shape, rtol: Optional[float] = None) -> np.ndarray:
    """The numerical ranks of matrices of ``shape`` from their singular
    values ``s``, one descending row per matrix (a stack ``(T, k)``, or one
    row): the count above ``rtol * s_max``, ``rtol`` defaulting to
    ``max(shape) * eps``.  No values, or only zeros, is rank 0."""
    return (s > (max(shape) * _EPS if rtol is None else rtol) * s[..., :1]).sum(-1)


@dataclass(frozen=True)
class Subspace:
    """Linear subspace represented by an orthonormal column basis."""

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        basis = _columns("basis", self.basis)
        if basis.shape[0] != self.ambient_dim:
            raise ShapeError(
                f"basis rows {basis.shape[0]} do not match ambient dim {self.ambient_dim}")
        if basis.shape[1] > self.ambient_dim:
            raise ShapeError("basis has more columns than the ambient dimension")
        object.__setattr__(self, "basis", self._stack(self.ambient_dim, basis[None])[0].basis)

    @classmethod
    def _stack(cls, ambient_dim: int, bases: np.ndarray) -> list["Subspace"]:
        """The subspaces of the stack ``bases`` (shape ``(T, ambient_dim,
        d)``), checked orthonormal once as a stack; each member's basis is
        then frozen without checking it again.  The one check-and-freeze
        path: one subspace is a stack of one."""
        _check_orthonormal(ambient_dim, bases)
        bases = np.array(bases)
        bases.setflags(write=False)
        subs = []
        for basis in bases:
            sub = object.__new__(cls)
            sub.__dict__.update(ambient_dim=ambient_dim, basis=basis)
            subs.append(sub)
        return subs

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def project(self, v: np.ndarray) -> np.ndarray:
        """Orthogonal projection of v onto the subspace."""
        return self.basis @ (self.basis.T @ np.asarray(v, dtype=float))


@lru_cache(maxsize=None)
def _eye(n: int) -> np.ndarray:
    """The ``n x n`` identity, built once per ``n`` and read-only."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


@lru_cache(maxsize=None)
def _coordinates(n: int, k: int) -> Subspace:
    """The span of the first ``k`` of ``n`` coordinates, built once per
    ``(n, k)`` and shared, as a ``Subspace`` is read-only: the whole space
    (``k = n``, the DFS candidates without ``restrict_to``) and the plant
    block of a no-go loop, where its QND/DFS witnesses must lie."""
    return Subspace(n, np.eye(n, k))


def _columns(name: str, vectors) -> np.ndarray:
    """``vectors`` as a finite 2-D float matrix of columns, a 1-D array being
    one column (``core._as_matrix``: ``ShapeError`` or ``ValidationError``)."""
    M = _as_array(name, vectors)
    return _as_matrix(name, M.reshape(-1, 1) if M.ndim == 1 else M)


def _check_orthonormal(ambient_dim: int, bases: np.ndarray) -> None:
    """Raise ``ShapeError`` unless the columns of each basis of the stack
    ``bases`` are orthonormal within ``1e3 * ORTHO_TOL * max(1, ambient_dim)``
    (a NaN defect fails)."""
    if bases.shape[2]:
        defect = np.abs(bases.transpose(0, 2, 1) @ bases - _eye(bases.shape[2])).max()
        if not defect <= 1e3 * ORTHO_TOL * max(1, ambient_dim):
            raise ShapeError(f"basis columns are not orthonormal (defect {defect:.3e})")


def span_of(vectors, ambient_dim: Optional[int] = None, rtol: Optional[float] = None) -> Subspace:
    """Orthonormalized span of the given (column) vectors, which must be
    finite."""
    M = _columns("vectors", vectors)
    if ambient_dim is None:
        ambient_dim = M.shape[0]
    if M.size == 0:
        return Subspace(ambient_dim, np.zeros((ambient_dim, 0)))
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    return Subspace(ambient_dim, U[:, :_ranks(s, M.shape, rtol)])


def range_space(mat, rtol: Optional[float] = None) -> Subspace:
    """Column space of a finite matrix."""
    return span_of(_as_matrix("matrix", mat), rtol=rtol)


def kernel(mat, rtol: Optional[float] = None) -> Subspace:
    """Null space of a finite matrix."""
    M = _as_matrix("matrix", mat)
    if M.shape[0] == 0 or M.size == 0:
        return Subspace(M.shape[1], np.eye(M.shape[1]))
    _, s, Vt = np.linalg.svd(M, full_matrices=True)
    return Subspace(M.shape[1], Vt[_ranks(s, M.shape, rtol):].T)


def complement(s: Subspace) -> Subspace:
    """Orthogonal complement within the ambient space."""
    if s.dim == 0:
        return Subspace(s.ambient_dim, np.eye(s.ambient_dim))
    U, _, _ = np.linalg.svd(s.basis, full_matrices=True)
    return Subspace(s.ambient_dim, U[:, s.dim:])


def intersect(a: Subspace, b: Subspace, rtol: Optional[float] = None) -> Subspace:
    """Intersection of two subspaces of the same ambient space."""
    return _intersects([a], b, rtol)[0]


def _intersects(subs: Sequence[Subspace], b: Subspace,
                rtol: Optional[float] = None) -> list[Subspace]:
    """:func:`intersect` of each of ``subs`` with ``b``.  The subspaces of one
    dimension make one stacked kernel SVD of ``[Q, -Q_b]``, and those of one
    kernel dimension then one stacked span SVD; each member has the bits it
    has alone (the stacked SVDs make the one-pair LAPACK call per member, and
    each product keeps its one-pair layout)."""
    n = b.ambient_dim
    if (bad := next((a.ambient_dim for a in subs if a.ambient_dim != n), None)) is not None:
        raise ShapeError(f"ambient mismatch: {bad} vs {n}")
    out = [Subspace(n, np.zeros((n, 0)))] * len(subs)
    for d, members in _groups(a.dim if b.dim else 0 for a in subs).items():
        if d == 0:
            continue
        # x = Qa alpha = Qb beta  <=>  [Qa, -Qb] [alpha; beta] = 0
        Q = _stacked([subs[t].basis for t in members])
        pair = np.empty((len(Q), n, d + b.dim))
        pair[:, :, :d], pair[:, :, d:] = Q, -b.basis
        _, s, Vt = np.linalg.svd(pair, full_matrices=True)
        for r, part in _groups(_ranks(s, pair.shape[1:], rtol).tolist()).items():
            if r == d + b.dim:  # no kernel
                continue
            # the kernel basis Vt[r:]^T, column-major as the one-pair copy is
            span = _take(Q, part) @ _take(Vt, part)[:, r:, :d].swapaxes(1, 2)
            U, sv, _ = np.linalg.svd(span, full_matrices=False)
            for dim, same in _groups(_ranks(sv, span.shape[1:], rtol).tolist()).items():
                for i, meet in zip(same, Subspace._stack(n, U[same][:, :, :dim])):
                    out[members[part[i]]] = meet
    return out


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

    ``A`` must be a square matrix and ``B`` a matrix with ``A``'s row
    count, both finite and each of norm at most ``SCALE_MAX``
    (``ShapeError`` or ``ValidationError`` otherwise); a float array is read
    as it is, without a copy.
    """
    A = _as_matrix("A", A)
    if A.shape[0] != A.shape[1]:
        raise ShapeError(f"A must be square, got {A.shape}")
    B = _as_matrix("B", B, rows=A.shape[0])
    cutoff = _cutoff(len(A), _scales("A", A[None]), _scales("B", B[None]), rtol)
    return _staircase(A[None], B[None], cutoff)[0]


def _stacked(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The stack of same-shape matrices whose products must round as they do
    one at a time: each member keeps the memory layout of the first (C
    order, or column-major when the first is only that), since BLAS rounds
    a transposed operand apart.  One matrix is a stack of one, the view
    ``first[None]`` with its own strides."""
    first = arrays[0]
    if len(arrays) == 1:
        return first[None]
    if first.flags.f_contiguous and not first.flags.c_contiguous:
        return np.array([a.T for a in arrays]).transpose(0, 2, 1)
    return np.array(arrays)


def _groups(keys) -> dict:
    """The positions of equal keys, in order of first appearance:
    ``{key: [i, ...]}``."""
    out: dict = {}
    for i, key in enumerate(keys):
        out.setdefault(key, []).append(i)
    return out


def _take(stack: np.ndarray, part: Sequence[int]) -> np.ndarray:
    """The members ``part`` of a stack, in that order, each with its own
    layout; the whole stack when ``part`` names every member."""
    return stack if len(part) == len(stack) else stack[part]


def _staircase(A: np.ndarray, B: np.ndarray, cutoff: np.ndarray) -> list[Subspace]:
    """The staircases of a stack of pairs, one controllable subspace per
    member: ``A`` is ``(T, n, n)``, ``B`` is ``(T, n, p)`` and ``cutoff``
    holds the ``T`` rank cutoffs.  One pair is a stack of one: the views
    ``A[None]`` and ``B[None]`` of its own matrices.

    Each step is one stacked SVD (for one column, one stacked ``b^T b``), one
    stacked ``A @ Q`` and two stacked re-orthogonalisations.  Each member
    gets the bits it gets alone when its ``A`` has the memory layout of the
    one-pair call (:func:`_stacked`; the observable side's ``A^T`` is a
    transposed view): the stacked products and factorizations make the
    same BLAS/LAPACK call per member.  When the members' ranks part at a
    step, each rank goes on as a stack of its own.
    """
    n = A.shape[-1]
    out: list = [None] * len(cutoff)
    # a unit-stride column, so that b^T b below is the dot core._frobenius makes
    todo = [(list(range(len(cutoff))), A, np.empty(A.shape), np.ascontiguousarray(B),
             cutoff[:, None], 0)]
    while todo:
        members, A, Q, block, cut, hi = todo.pop()
        while block.shape[-1] and hi < n:
            if block.shape[-1] == 1:  # the SVD of one column b is its norm sqrt(b^T b)
                s = np.sqrt(block.swapaxes(-1, -2) @ block)[..., 0]
            else:
                U, s, _ = np.linalg.svd(block, full_matrices=False)
            counts = (s > cut).sum(1).tolist()
            if counts.count(counts[0]) < len(counts):  # the members part: each goes on apart
                for part in _groups(counts).values():
                    todo.append(([members[i] for i in part], _take(A, part), _take(Q, part),
                                 _take(block, part), cut[part], hi))
                break
            r = min(int(counts[0]), n - hi)
            if block.shape[-1] == 1:
                if r:
                    Q[..., hi] = block[..., 0] / s
            else:
                Q[..., hi:hi + r] = U[..., :r]
            lo, hi = hi, hi + r
            basis = Q[..., :hi]
            basis_t = basis.swapaxes(-1, -2)
            block = A @ Q[..., lo:hi]
            for _ in range(2):
                block -= basis @ (basis_t @ block)
        else:
            for t, sub in zip(members, Subspace._stack(n, Q[..., :hi])):
                out[t] = sub
    return out


def reduce_pair(A: np.ndarray, B: np.ndarray, C: np.ndarray):
    """Realization (A, B, C) restricted to what B excites and C sees.

    Restricts to the controllable subspace of (A, B), then to the observable
    subspace of C inside it, cut as the full observable staircase of (A, C)
    would be.  Both are invariant, so the transfer function and Markov
    parameters are unchanged; modes invisible to the pair (and their poles)
    are discarded.  The matrices must be finite and of matching shapes
    (``ValidationError`` or ``ShapeError`` otherwise).
    """
    A = _as_matrix("A", A)
    B, C = _as_matrix("B", B, rows=len(A)), _as_matrix("C", C, cols=A.shape[1])
    return _restrict(A, B, C, controllable_subspace(A, B).basis, _scales("A", A[None]))


def _restrict(A, B, C, Q1, norm_A: np.ndarray):
    """The observable step of :func:`reduce_pair` inside the controllable basis
    Q1, for ``A`` of norm ``norm_A`` (a stack of one)."""
    A1, B1, C1 = Q1.T @ A @ Q1, Q1.T @ B, C @ Q1
    cutoff = _cutoff(len(A), norm_A, _scales("C", C[None]))
    Q2 = _staircase(A1.T[None], C1.T[None], cutoff)[0].basis
    return Q2.T @ A1 @ Q2, Q2.T @ B1, C1 @ Q2


def _subspaces(models: Sequence[StateSpaceModel], side: str, ports) -> list[Subspace]:
    """Controllable (``side="in"``: input columns) or observable
    (``side="out"``: output rows) subspace of the same ports of each model,
    at the default cutoff.  Each is one staircase per model and resolved
    index set, kept in the model's memo, so ``"W1"`` and
    ``["W1.Q", "W1.P"]`` share it; the models that lack it run as one
    stacked staircase per state dimension and index set, whose port blocks'
    norms are computed and checked (``_scales``) once, as one stack."""
    keys, todo = [], {}
    for model in models:
        idx = (model.inputs if side == "in" else model.outputs)._resolve(ports)
        key = (side, tuple(idx.tolist()))
        keys.append(key)
        if key not in model._memo:
            # A^T and C^T are transposed views and B[:, idx] is column-major,
            # as in the one-model call
            todo.setdefault((model.nstates, key), []).append(
                (model, model.A, model.B[:, idx]) if side == "in"
                else (model, model.A.T, model.C[idx].T))
    for (n, key), group in todo.items():
        owners, As, Bs = zip(*group)
        B = _stacked(Bs)
        cutoff = _cutoff(n, np.concatenate([model._norm_A for model in owners]),
                         _scales("B" if side == "in" else "C", B))
        for model, sub in zip(owners, _staircase(_stacked(As), B, cutoff)):
            model._memo[key] = sub
    return [model._memo[key] for model, key in zip(models, keys)]


def _reduced_pair(model: StateSpaceModel, inputs, outputs):
    """:func:`reduce_pair` of a port pair of ``model``, computed once per
    model; it starts from the memoised controllable basis of ``inputs``."""
    cols, rows = model.inputs._resolve(inputs), model.outputs._resolve(outputs)
    key = ("pair", tuple(cols.tolist()), tuple(rows.tolist()))
    memo = model._memo
    if key not in memo:
        memo[key] = _restrict(model.A, model.B[:, cols], model.C[rows],
                              _subspaces([model], "in", inputs)[0].basis, model._norm_A)
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
