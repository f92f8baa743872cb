"""Exact controllable and observable dimensions, and the exact goal
dimensions, over the rationals.

A test oracle that shares no code with the package.  For an integer
Hamiltonian matrix ``G`` and coupling matrix ``C`` it builds the drift
``A = Sigma_n (G + C^T Sigma_m C / 2)`` and the noise input
``B = Sigma_n C^T Sigma_m`` in ``fractions.Fraction``, and each dimension
is the exact rank of a Krylov matrix, found by Gaussian elimination.  Such
``A`` and ``B`` are dyadic, so a float64 realization of the same system holds
them exactly, and the exact rank is the answer every float tolerance
approximates (Paige, IEEE TAC 26(1) 1981: a float rank has no better
definition).

With ``K`` the controllability matrix of ``(A, B)`` and ``O`` the
observability matrix of ``(A, C)``, the controllable subspace is the range
of ``K`` and the observable one the range of ``O^T``, so:

* QND witnesses (observable, orthogonal to the controllable subspace):
  ``rank O - rank (O K)``;
* DFS witnesses (orthogonal to both): ``n - rank [K | O^T]``;
* the BAE overlap (the dimension of a minimal realization of
  ``C (sI - A)^{-1} B``, the Hankel rank): ``rank (O K)``.

Each rank is taken on bases: the nonzero rows of an echelon form of ``O``
span its row space, and those of ``K^T`` the range of ``K``, so the product
``O K`` is taken on at most ``n x n`` blocks of the same rank.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]


def matrix(rows) -> Matrix:
    """``rows`` (nested numbers) as a matrix of fractions."""
    return [[Fraction(x) for x in row] for row in rows]


def sigma(n: int) -> Matrix:
    """The commutation matrix of ``n`` modes, ``[[0, 1], [-1, 0]]`` blocks
    along the diagonal of quadratures ``q1, p1, q2, p2, ...``."""
    out = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for k in range(n):
        out[2 * k][2 * k + 1] = Fraction(1)
        out[2 * k + 1][2 * k] = Fraction(-1)
    return out


def transpose(X: Matrix) -> Matrix:
    return [list(col) for col in zip(*X)]


def matmul(X: Matrix, Y: Matrix) -> Matrix:
    cols = transpose(Y)
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in X]


def drift_and_input(G, C) -> tuple[Matrix, Matrix]:
    """The exact ``(A, B)`` of the system with Hamiltonian matrix ``G``
    (``2n x 2n``) and coupling matrix ``C`` (``2m x 2n``)."""
    G, C = matrix(G), matrix(C)
    S_n, S_m = sigma(len(G) // 2), sigma(len(C) // 2)
    CtSC = matmul(matmul(transpose(C), S_m), C)
    A = matmul(S_n, [[g + h / 2 for g, h in zip(row_g, row_h)] for row_g, row_h in zip(G, CtSC)])
    return A, matmul(matmul(S_n, transpose(C)), S_m)


def echelon(M: Matrix) -> Matrix:
    """The nonzero rows of a row echelon form of ``M``, by Gaussian
    elimination: a basis of its row space."""
    rows = [list(row) for row in M]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return rows[:r]


def rank(M: Matrix) -> int:
    """The exact rank of ``M``."""
    return len(echelon(M))


def krylov(A: Matrix, B: Matrix) -> Matrix:
    """The Krylov matrix ``[B, AB, ..., A^{N-1} B]``."""
    blocks, block = [], B
    for _ in range(len(A)):
        blocks.append(block)
        block = matmul(A, block)
    return [sum((blk[i] for blk in blocks), []) for i in range(len(A))]


def controllable_dim(A: Matrix, B: Matrix) -> int:
    """The rank of the Krylov matrix ``[B, AB, ..., A^{N-1} B]``."""
    return rank(krylov(A, B))


def observable_dim(A: Matrix, C: Matrix) -> int:
    """The rank of ``[C; CA; ...; CA^{N-1}]``: the controllable dimension of
    ``(A^T, C^T)``."""
    return controllable_dim(transpose(A), transpose(C))


def goal_dims(A: Matrix, B: Matrix, C: Matrix) -> dict:
    """The exact dimensions of the goals of the input columns ``B`` and the
    output rows ``C``: ``controllable`` (rank K), ``observable`` (rank O),
    ``qnd`` (rank O - rank OK), ``dfs`` (n - rank [K | O^T]) and
    ``overlap`` (rank OK)."""
    ctrl = echelon(transpose(krylov(A, B)))  # rows: a basis of the range of K
    obs = echelon(transpose(krylov(transpose(A), transpose(C))))  # of the row space of O
    overlap = rank(matmul(obs, transpose(ctrl)))
    return {"controllable": len(ctrl), "observable": len(obs), "qnd": len(obs) - overlap,
            "dfs": len(A) - rank(ctrl + obs), "overlap": overlap}
