"""Exact controllable and observable dimensions, and the exact goal
dimensions, over the rationals.

A test oracle that shares no code with the package.  For an integer
Hamiltonian matrix ``G`` and coupling matrix ``C`` it builds the drift
``A = Sigma_n (G + C^T Sigma_m C / 2)`` and the noise input
``B = Sigma_n C^T Sigma_m`` in ``fractions.Fraction``, and each dimension
is the exact rank of a Krylov matrix, found by Gaussian elimination on a
basis of its range that grows by its image under ``A``.  Such
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

The measurement-feedback loops are built from the physics, in the same
arithmetic.  A homodyne split ``M = [M1; M2]`` measures ``y = M1 W_out``; the
controller ``dx_K/dt = A_K x_K + B_K y`` displaces the input fields by
``u = C_K x_K`` (type 2: ``C_K1`` the raw feedback fields, ``C_K2`` the
evaluation fields), and the displaced fields reach both the plant and the
fields it emits.  Each loop is its state matrix ``A`` over ``[x; x_K]``, the
input columns of each noise port and the output rows of each output port.
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
    # zero terms skipped: the loops are sparse
    return [[sum((x * y for x, y in zip(row, col) if x and y), Fraction(0)) for col in cols]
            for row in X]


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
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], rows[r])]
        r += 1
    return rows[:r]


def rank(M: Matrix) -> int:
    """The exact rank of ``M``."""
    return len(echelon(M))


def krylov_basis(A: Matrix, B: Matrix) -> Matrix:
    """Rows that form a basis of the range of the Krylov matrix
    ``[B, AB, ..., A^{N-1} B]``: an echelon basis of the range of ``B``, grown
    by its image under ``A`` until it stops growing (it is then invariant
    under ``A``, so it holds every ``A^j B``)."""
    basis = echelon(transpose(B))
    while True:
        grown = echelon(basis + transpose(matmul(A, transpose(basis))))
        if len(grown) == len(basis):
            return basis
        basis = grown


def controllable_dim(A: Matrix, B: Matrix) -> int:
    """The rank of the Krylov matrix ``[B, AB, ..., A^{N-1} B]``."""
    return len(krylov_basis(A, B))


def observable_dim(A: Matrix, C: Matrix) -> int:
    """The rank of ``[C; CA; ...; CA^{N-1}]``: the controllable dimension of
    ``(A^T, C^T)``."""
    return controllable_dim(transpose(A), transpose(C))


def goal_dims(A: Matrix, B: Matrix, C: Matrix) -> dict:
    """The exact dimensions of the goals of the input columns ``B`` and the
    output rows ``C``: ``controllable`` (rank K), ``observable`` (rank O),
    ``qnd`` (rank O - rank OK), ``dfs`` (n - rank [K | O^T]) and
    ``overlap`` (rank OK)."""
    ctrl = krylov_basis(A, B)  # rows: a basis of the range of K
    obs = krylov_basis(transpose(A), transpose(C))  # of the row space of O
    overlap = rank(matmul(obs, transpose(ctrl)))
    return {"controllable": len(ctrl), "observable": len(obs), "qnd": len(obs) - overlap,
            "dfs": len(A) - rank(ctrl + obs), "overlap": overlap}


def zeros(rows: int, cols: int) -> Matrix:
    return [[Fraction(0)] * cols for _ in range(rows)]


def add(X: Matrix, Y: Matrix) -> Matrix:
    return [[x + y for x, y in zip(row_x, row_y)] for row_x, row_y in zip(X, Y)]


def blocks(grid) -> Matrix:
    """The block matrix of the rows of blocks ``grid`` (each block with at
    least one row)."""
    return [sum((blk[i] for blk in row), []) for row in grid for i in range(len(row[0]))]


def mf1_loop(G, C, M1, M2, A_K, B_K, C_K) -> tuple[Matrix, dict, dict]:
    """The type-1 loop of the plant ``(G, C)`` under the split ``(M1, M2)``
    with the controller ``(A_K, B_K, C_K)`` (at least one state).  Its
    inputs are the measured noise ``Q = M1 W`` and its conjugate
    ``P = M2 W``; its outputs ``y = M1 (C x + W + u)`` and the fields
    ``Wout = C x + W + u``, with ``W = M1^T Q + M2^T P``.  Returns ``A`` and
    the dicts of input columns and output rows per port."""
    A, B = drift_and_input(G, C)
    C, M1, M2, A_K, B_K, C_K = map(matrix, (C, M1, M2, A_K, B_K, C_K))
    BK_M1 = matmul(B_K, M1)
    A_cl = blocks([[A, matmul(B, C_K)], [matmul(BK_M1, C), add(A_K, matmul(BK_M1, C_K))]])
    inputs = {"Q": blocks([[matmul(B, transpose(M1))], [B_K]]),
              "P": blocks([[matmul(B, transpose(M2))], [zeros(len(A_K), len(M2))]])}
    outputs = {"y": blocks([[matmul(M1, C), matmul(M1, C_K)]]), "Wout": blocks([[C, C_K]])}
    return A_cl, inputs, outputs


def mf2_loop(G, C, m1, M, M1e, M2e, A_K, B_K, C_K1, C_K2) -> tuple[Matrix, dict, dict]:
    """The type-2 loop of the plant ``(G, C)`` whose first ``m1`` channels
    are the feedback ones, under the feedback selector ``M`` and the
    evaluation split ``(M1e, M2e)``, with the controller ``(A_K, B_K, C_K1,
    C_K2)`` (at least one state).  Its inputs are the raw feedback fields
    ``W1`` and the evaluation noise ``Q2 = M1e W2`` and ``P2 = M2e W2``; its
    outputs ``y = M (C1 x + W1 + u1)``, ``z = M1e (C2 x + W2 + u2)`` and the
    fields ``W1out``, ``W2out``.  Returns as :func:`mf1_loop`."""
    A, B = drift_and_input(G, C)
    C, M, M1e, M2e, A_K, B_K, C_K1, C_K2 = map(matrix, (C, M, M1e, M2e, A_K, B_K, C_K1, C_K2))
    C1, C2 = C[:2 * m1], C[2 * m1:]
    B1, B2 = [row[:2 * m1] for row in B], [row[2 * m1:] for row in B]
    BK_M = matmul(B_K, M)
    A_cl = blocks([[A, add(matmul(B1, C_K1), matmul(B2, C_K2))],
                   [matmul(BK_M, C1), add(A_K, matmul(BK_M, C_K1))]])
    inputs = {"W1": blocks([[B1], [BK_M]]),
              "Q2": blocks([[matmul(B2, transpose(M1e))], [zeros(len(A_K), len(M1e))]]),
              "P2": blocks([[matmul(B2, transpose(M2e))], [zeros(len(A_K), len(M2e))]])}
    outputs = {"y": blocks([[matmul(M, C1), matmul(M, C_K1)]]),
               "z": blocks([[matmul(M1e, C2), matmul(M1e, C_K2)]]),
               "W1out": blocks([[C1, C_K1]]), "W2out": blocks([[C2, C_K2]])}
    return A_cl, inputs, outputs
