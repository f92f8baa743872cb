import numpy as np
import pytest
import scipy.linalg

from conftest import random_orthogonal, random_system
from qlin import (
    Ports,
    ShapeError,
    StateSpaceModel,
    Subspace,
    classical_subsystem,
    complement,
    controllability_matrix,
    intersect,
    kalman_decompose,
    kernel,
    markov_parameters,
    observability_matrix,
    principal_angles,
    ValidationError,
    range_space,
    sigma,
    span_of,
)
from qlin.structural import reduce_pair
from qlin import scenarios as sc


def simple_model(A, B, C, in_names=None, out_names=None):
    A = np.atleast_2d(np.asarray(A, float))
    B = np.atleast_2d(np.asarray(B, float))
    C = np.atleast_2d(np.asarray(C, float))
    ins = Ports(in_names or [("u", B.shape[1])])
    outs = Ports(out_names or [("y", C.shape[0])])
    return StateSpaceModel(A, B, C, np.zeros((C.shape[0], B.shape[1])), ins, outs)


def test_controllability_matrix_trivial():
    model = simple_model(np.zeros((3, 3)), np.eye(3), np.eye(3))
    ctrb = controllability_matrix(model, "u")
    assert ctrb.shape == (3, 9)
    assert np.array_equal(ctrb[:, :3], np.eye(3))
    assert np.array_equal(ctrb[:, 3:], np.zeros((3, 6)))


def test_observability_matrix_trivial():
    model = simple_model(np.zeros((2, 2)), np.eye(2), np.eye(2))
    obs = observability_matrix(model, "y")
    assert np.array_equal(obs[:2], np.eye(2))
    assert np.array_equal(obs[2:], np.zeros((2, 2)))


def test_michelson_dark_port_drives_differential_plane_only():
    model = sc.michelson(sc.MichelsonParams(m=1, omega=0.5, lam=1.0)).to_state_space()
    ctrb = controllability_matrix(model, "W2")
    # independent rank oracle
    assert np.linalg.matrix_rank(ctrb) == 2
    diff = span_of(np.array([[1, 0], [0, 1], [-1, 0], [0, -1.0]]))
    assert np.max(principal_angles(range_space(ctrb), diff)) < 1e-12


def test_reduced_optomech_fully_observable_from_p():
    m = 2.0
    model = sc.optomech_reduced(m=m, omega=1.0, lam=1.0).to_state_space()
    obs = observability_matrix(model, "W.out.P")
    assert np.linalg.matrix_rank(obs) == 2
    assert np.allclose(obs[:2], [[1.0, 0.0], [0.0, 1.0 / m]])


def test_tsang_caves_controllability_span_matches_reference():
    model = sc.tsang_caves_loop().to_state_space()  # m=w=k=1, gamma=2, g=1
    ctrb = controllability_matrix(model, "W")
    assert np.linalg.matrix_rank(ctrb) == 4
    ref = span_of(np.array([
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 1, 0, 0, 0, 1],
        [1, 0, 0, 0, -1, 0],
    ], dtype=float).T)
    assert np.max(principal_angles(range_space(ctrb), ref)) < 1e-10


def test_tsang_caves_observability_kernel_matches_reference():
    model = sc.tsang_caves_loop().to_state_space()
    obs = observability_matrix(model, "W.out.P")
    ker = kernel(obs)
    assert ker.dim == 3
    ref = span_of(np.array([
        [0, 0, 1, 0, 0, 0],
        [0, 1, 0, 0, 0, 1],
        [-1, 0, 0, 0, 1, 0],
    ], dtype=float).T)
    assert np.max(principal_angles(ker, ref)) < 1e-10


def test_tsang_caves_qnd_intersection_contains_reference_vectors():
    model = sc.tsang_caves_loop().to_state_space()
    unctrl = kernel(controllability_matrix(model, "W").T)
    obs = range_space(observability_matrix(model, "W.out.P").T)
    meet = intersect(unctrl, obs)
    assert meet.dim == 2
    for v in ([0, -1, 0, 0, 0, 1], [1, 0, 0, 0, 1, 0]):
        v = np.asarray(v, float)
        v /= np.linalg.norm(v)
        assert np.linalg.norm(v - meet.project(v)) < 1e-10


def test_kernel_and_range_basics():
    k = kernel([[1.0, 0.0], [0.0, 0.0]])
    assert k.dim == 1
    assert np.allclose(np.abs(k.basis[:, 0]), [0.0, 1.0])
    r = range_space([[1.0, 0.0], [0.0, 0.0]])
    assert r.dim == 1
    assert np.allclose(np.abs(r.basis[:, 0]), [1.0, 0.0])


def test_intersect_with_complement_is_empty():
    rng = np.random.default_rng(10)
    for _ in range(10):
        X = span_of(rng.normal(size=(6, 3)))
        assert intersect(X, complement(X)).dim == 0


def test_intersect_commutative_and_monotone():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = span_of(rng.normal(size=(7, rng.integers(1, 5))))
        b = span_of(rng.normal(size=(7, rng.integers(1, 5))))
        ab = intersect(a, b)
        ba = intersect(b, a)
        assert ab.dim == ba.dim
        assert ab.dim <= min(a.dim, b.dim)
        if ab.dim:
            assert np.max(principal_angles(ab, ba)) < 1e-10


def test_rank_plus_kernel_dimension_budget():
    rng = np.random.default_rng(12)
    for _ in range(10):
        sys = random_system(rng, rng.integers(1, 4), rng.integers(1, 3))
        model = sys.to_state_space()
        port = sys.channels[0].label
        ctrb = controllability_matrix(model, port)
        assert kernel(ctrb.T).dim + range_space(ctrb).dim == model.nstates


def test_rank_invariant_under_similarity():
    rng = np.random.default_rng(13)
    for _ in range(10):
        sys = random_system(rng, 3, 1)
        model = sys.to_state_space()
        T = rng.normal(size=(6, 6)) + np.eye(6)
        sim = model.similar(T)
        r1 = np.linalg.matrix_rank(controllability_matrix(model, "W1"))
        r2 = np.linalg.matrix_rank(controllability_matrix(sim, "W1"))
        assert r1 == r2


def test_markov_parameters_trivial_and_invariance():
    model = simple_model(np.zeros((2, 2)), [[1.0], [0.0]], [[1.0, 1.0]])
    mk = markov_parameters(model, "u", "y")
    assert np.allclose(mk[0], [[1.0]])
    assert all(np.allclose(M, 0.0) for M in mk[1:])

    rng = np.random.default_rng(14)
    sys = random_system(rng, 2, 2)
    m = sys.to_state_space()
    T = rng.normal(size=(4, 4)) + 2 * np.eye(4)
    sim = m.similar(T)
    for M1, M2 in zip(markov_parameters(m, "W1", "W2.out"),
                      markov_parameters(sim, "W1", "W2.out")):
        assert np.allclose(M1, M2, atol=1e-10)


def test_reduced_optomech_back_action_markov():
    m_, lam = 1.0, 1.0
    model = sc.optomech_reduced(m=m_, omega=1.0, lam=lam).to_state_space(
        split=__import__("qlin").homodyne_split(1, "P"))
    mk = markov_parameters(model, "P", "y")
    assert abs(mk[0][0, 0]) < 1e-15
    # hand-multiplied M1 C A (Sigma C^T Sigma M2^T) = -lam/m
    assert np.isclose(mk[1][0, 0], -lam / m_)


def test_tsang_caves_markov_vanishes():
    model = sc.tsang_caves_loop().to_state_space()
    mk = markov_parameters(model, "W.Q", "W.out.P")
    assert max(float(np.max(np.abs(M))) for M in mk) < 1e-10


def test_kalman_fully_controllable_is_trivial():
    rng = np.random.default_rng(15)
    sys = random_system(rng, 2, 2)
    model = sys.to_state_space()
    dec = kalman_decompose(model, ["W1", "W2"], "controllable")
    assert dec.primary_dim == model.nstates


@pytest.mark.parametrize("A, B, message", [
    (np.diag([-1.0, -2.0, -3.0]), np.ones(3), "B must have 3 rows, got 1"),
    (np.diag([-1.0, -2.0, -3.0]), np.ones((2, 1)), "B must have 3 rows, got 2"),
    (np.diag([-1.0, -2.0, -3.0]), np.ones((3, 3, 1)), "B must be a 2-D matrix"),
    (np.ones((3, 2)), np.ones((3, 1)), r"A must be square, got \(3, 2\)"),
])
def test_controllable_subspace_checks_its_raw_arguments(A, B, message):
    from qlin.structural import controllable_subspace

    with pytest.raises(ShapeError, match=message):
        controllable_subspace(A, B)


_PAIR = (np.diag([-1.0, -2.0]), np.array([[1.0], [1.0]]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, error, message", [
    # all of R^2, from a NaN singular value
    (lambda: kernel([[np.inf, 1.0]]), ValidationError, "matrix contains non-finite"),
    # LinAlgError: SVD did not converge
    (lambda: kernel([[np.nan, 1.0]]), ValidationError, "matrix contains non-finite"),
    (lambda: span_of([[np.nan, 1.0]]), ValidationError, "vectors contains non-finite"),
    (lambda: range_space([[np.inf]]), ValidationError, "matrix contains non-finite"),
    (lambda: span_of(np.ones((2, 2, 2))), ShapeError, "vectors must be a 2-D matrix"),
    # accepted: its NaN orthonormality defect passed "defect > tol"
    (lambda: Subspace(2, [[np.nan], [0.0]]), ValidationError, "basis contains non-finite"),
    # an empty pair, which claims there is no path
    (lambda: reduce_pair(*_PAIR, np.array([[np.nan, 0.0]])), ValidationError,
     "C contains non-finite"),
    # numpy's matmul ValueError
    (lambda: reduce_pair(*_PAIR, np.ones((1, 3))), ShapeError, "C must have 2 columns, got 3"),
    # numpy's bare ValueError
    (lambda: span_of([[1.0], [1.0, 2.0]]), ValidationError, "vectors is not a numeric matrix"),
    (lambda: kernel("abc"), ValidationError, "matrix is not a numeric matrix"),
])
def test_subspace_algebra_rejects_non_finite_and_mis_shaped_input(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_reduce_pair_reads_nested_lists_as_arrays():
    # a TypeError from the list's missing A[None]
    A, B, C = _PAIR[0], _PAIR[1], np.array([[1.0, 0.0]])
    got = reduce_pair(A.tolist(), B.tolist(), C.tolist())
    want = reduce_pair(A, B, C)
    assert len(got) == 3 and all(np.array_equal(g, w) for g, w in zip(got, want))
    assert want[0].shape == (1, 1)  # only the first mode is seen


def test_orthonormality_check_fails_a_nan_defect():
    from qlin.structural import _check_orthonormal

    with pytest.raises(ShapeError, match="not orthonormal"):
        _check_orthonormal(2, np.array([[[np.nan], [0.0]]]))


def test_controllable_subspace_reads_nested_lists_as_arrays():
    from qlin.structural import controllable_subspace

    A, B = [[-1.0, 0.0], [0.0, -2.0]], [[1.0], [0.0]]
    got = controllable_subspace(A, B)
    want = controllable_subspace(np.array(A), np.array(B))
    assert got.dim == want.dim == 1 and np.array_equal(got.basis, want.basis)


def test_kalman_michelson_common_differential_split():
    p = sc.MichelsonParams(m=1.0, omega=0.5, lam=1.0)
    model = sc.michelson(p).to_state_space()
    dec = kalman_decompose(model, "W2", "controllable")
    assert dec.block_structure == ((0, 2), (2, 4))
    At = dec.transformed.A
    nA = np.linalg.norm(model.A)
    # both oscillators decouple: off-diagonal blocks vanish
    assert np.max(np.abs(At[2:, :2])) < 1e-10 * nA
    assert np.max(np.abs(At[:2, 2:])) < 1e-10 * nA
    # each block is the oscillator (eigenvalues +- i omega)
    for block in (At[:2, :2], At[2:, 2:]):
        assert np.allclose(np.sort(np.linalg.eigvals(block).imag),
                           [-p.omega, p.omega], atol=1e-12)
    # uncontrollable block sees no input
    Bt = dec.transformed.b("W2")
    assert np.max(np.abs(Bt[2:, :])) < 1e-12


def test_kalman_planted_recovery():
    rng = np.random.default_rng(16)
    for _ in range(5):
        A11 = rng.normal(size=(4, 4))
        A12 = rng.normal(size=(4, 2))
        A22 = rng.normal(size=(2, 2))
        B1 = rng.normal(size=(4, 2))
        A0 = np.block([[A11, A12], [np.zeros((2, 4)), A22]])
        B0 = np.vstack([B1, np.zeros((2, 2))])
        T = random_orthogonal(rng, 6)
        model = simple_model(T @ A0 @ T.T, T @ B0, np.eye(6))
        dec = kalman_decompose(model, "u", "controllable")
        assert dec.block_structure == ((0, 4), (4, 6))
        At = dec.transformed.A
        assert np.max(np.abs(At[4:, :4])) < 1e-10 * np.linalg.norm(At)
        assert np.max(np.abs(dec.transformed.b("u")[4:, :])) < 1e-10


def test_kalman_rtol_below_rounding_keeps_an_orthonormal_basis():
    # a cutoff under one staircase step's rounding is raised to it, so no
    # rounding residue becomes a basis direction
    model = sc.tsang_caves_loop().to_state_space()
    dec = kalman_decompose(model, "W", "controllable", rtol=1e-300)
    assert dec.primary_dim == 4
    assert np.allclose(dec.T.T @ dec.T, np.eye(model.nstates), atol=1e-12)


def test_kalman_observable_pattern():
    # the bright-port P quadrature sees only the common mode
    model = sc.michelson(sc.MichelsonParams(m=1.0, omega=0.5, lam=1.0)).to_state_space()
    dec = kalman_decompose(model, "W1.out.P", "observable")
    r = dec.primary_dim
    assert r == 2
    Ct = dec.transformed.c("W1.out.P")
    assert np.max(np.abs(Ct[:, r:])) < 1e-10 * max(1.0, np.linalg.norm(Ct))
    At = dec.transformed.A
    assert np.max(np.abs(At[:r, r:])) < 1e-10 * np.linalg.norm(At)


def test_classical_subsystem():
    # the Tsang-Caves QND pair commutes
    pair = span_of(np.array([[0, -1, 0, 0, 0, 1], [1, 0, 0, 0, 1, 0]], float).T)
    assert classical_subsystem(pair, sigma(3))
    # a canonical (q, p) pair does not
    qp = span_of(np.eye(4)[:, :2])
    assert not classical_subsystem(qp, sigma(2))
    # any single variable commutes with itself
    rng = np.random.default_rng(18)
    for _ in range(5):
        v = span_of(rng.normal(size=(6, 1)))
        assert classical_subsystem(v, sigma(3))


def test_principal_angles_against_scipy():
    rng = np.random.default_rng(19)
    for _ in range(10):
        a = span_of(rng.normal(size=(8, 3)))
        b = span_of(rng.normal(size=(8, 4)))
        ours = principal_angles(a, b)
        ref = np.sort(scipy.linalg.subspace_angles(a.basis, b.basis))
        assert np.allclose(ours, ref, atol=1e-10)


def test_subspace_validation():
    with pytest.raises(Exception):
        Subspace(3, np.ones((3, 2)))  # not orthonormal
    s = span_of(np.eye(3)[:, :2])
    assert s.dim == 2


def _one_pair_staircase(A, B, cutoff):
    """The staircase of one pair as it was written before stacks (kept
    verbatim as the reference of the stacked one)."""
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


def test_stacked_staircase_equals_one_at_a_time():
    from qlin.core import _frobenius
    from qlin.structural import _cutoff, _stacked, _staircase

    def cutoffs_of(As, Bs):  # the default cutoff of each pair, from its norms
        return _cutoff(As[0].shape[0], _frobenius(_stacked(As)), _frobenius(_stacked(Bs)))

    rng = np.random.default_rng(2024)
    for n in range(2, 11):
        for p in (1, 2, 4):
            for size in (1, 2, 5, 8):
                As = rng.normal(size=(size, n, n))
                Bs = rng.normal(size=(size, n, p))
                if size > 1:  # a member with a smaller controllable subspace
                    As[1, : n // 2, n // 2:] = 0.0
                    Bs[1, n // 2:] = 0.0
                Cs = [np.ascontiguousarray(b.T) for b in Bs]
                # the controllable side of (A, B) and the observable side of
                # (A, C), whose operands A^T and C^T are transposed views
                for side_A, side_B in ((list(As), list(Bs)),
                                       ([a.T for a in As], [c.T for c in Cs])):
                    cutoffs = cutoffs_of(side_A, side_B)
                    stacked = _staircase(_stacked(side_A), _stacked(side_B), cutoffs)
                    for a, b, c, got in zip(side_A, side_B, cutoffs, stacked):
                        want = _one_pair_staircase(a, b, c)
                        assert np.array_equal(got.basis, want.basis), (n, p, size)
                        assert not got.basis.flags.writeable
    # the ranks of a stack part at the second step: each part goes on alone
    A = np.zeros((3, 6, 6))
    A[:] = rng.normal(size=(6, 6))
    A[1, :4, 4:] = A[1, 4:, :4] = 0.0  # member 1 reaches 4 states, member 2 only 2
    A[2, :2, 2:] = A[2, 2:, :2] = 0.0
    B = np.zeros((3, 6, 2))
    B[:, :2] = rng.normal(size=(3, 2, 2))
    for side_A in (list(A), [np.ascontiguousarray(a.T).T for a in A]):
        cutoffs = cutoffs_of(side_A, list(B))
        stacked = _staircase(_stacked(side_A), B, cutoffs)
        assert [sub.dim for sub in stacked] == [6, 4, 2]
        for a, b, c, got in zip(side_A, B, cutoffs, stacked):
            assert np.array_equal(got.basis, _one_pair_staircase(a, b, c).basis)


def _one_pair_intersect(a, b, rtol):
    """The basis of the one-pair intersection: a kernel, then a span."""
    if a.dim == 0 or b.dim == 0:
        return np.zeros((a.ambient_dim, 0))
    null = kernel(np.hstack([a.basis, -b.basis]), rtol=rtol).basis
    if null.shape[1] == 0:
        return np.zeros((a.ambient_dim, 0))
    return span_of(a.basis @ null[:a.dim, :], ambient_dim=a.ambient_dim, rtol=rtol).basis


def test_stacked_intersect_equals_one_at_a_time():
    from qlin.structural import _intersects

    rng = np.random.default_rng(31)
    n, block = 8, Subspace(8, np.eye(8, 4))  # a plant block
    eye = np.eye(n)

    def orthonormal(M):
        return Subspace(n, np.linalg.qr(M)[0])

    # mixed dimensions; within dimension 2 an empty, a one- and a two-dimensional
    # intersection, so the kernel ranks part; empty ones beside
    subs = [orthonormal(rng.normal(size=(n, d))) for d in (1, 2, 3, 3, 5, 6, 6)]
    subs += [Subspace(n, eye[:, 1:3]), orthonormal(np.column_stack([eye[:, 0], rng.normal(size=n)])),
             complement(block), Subspace(n, np.zeros((n, 0))), Subspace(n, eye[:, 5:7])]
    for rtol in (None, 1e-8):
        stacked = _intersects(subs, block, rtol)
        dims = set()
        for a, got in zip(subs, stacked):
            want = _one_pair_intersect(a, block, rtol)
            assert got.basis.shape == want.shape and np.array_equal(got.basis, want)
            assert np.array_equal(intersect(a, block, rtol).basis, want)
            dims.add((a.dim, got.dim))
        assert {(2, 0), (2, 1), (2, 2), (4, 0), (5, 1), (6, 2)} <= dims
    assert [sub.dim for sub in _intersects(subs, Subspace(n, np.zeros((n, 0))))] == [0] * len(subs)
    with pytest.raises(ShapeError, match="ambient mismatch: 3 vs 8"):
        _intersects(subs + [Subspace(3, np.eye(3))], block)


def _old_rank(s, shape, rtol=None):
    """The count above the former ``structural.rank_tolerance``."""
    tol = 0.0 if s.size == 0 else (max(shape) * np.finfo(float).eps
                                   if rtol is None else rtol) * float(s[0])
    return int(np.sum(s > tol))


def test_ranks_count_as_the_former_rank_tolerance():
    from qlin.structural import _ranks

    rng = np.random.default_rng(17)
    for _ in range(100):
        shape = tuple(int(d) for d in rng.integers(1, 9, 2))
        r = int(rng.integers(0, min(shape) + 1))
        M = rng.normal(size=(shape[0], r)) @ rng.normal(size=(r, shape[1]))
        rows = [np.linalg.svd(M, compute_uv=False),
                np.sort(rng.random(min(shape)) * 10.0 ** rng.integers(-20, 20))[::-1],
                np.zeros(min(shape))]
        for rtol in (None, 1e-8, 0.3):
            for s in rows:
                assert _ranks(s, shape, rtol) == _old_rank(s, shape, rtol)
            assert _ranks(np.array(rows), shape, rtol).tolist() == \
                [_old_rank(s, shape, rtol) for s in rows]
    # no singular values: rank 0, for one matrix and for a stack
    assert _ranks(np.zeros(0), (0, 3)) == _old_rank(np.zeros(0), (0, 3)) == 0
    assert _ranks(np.zeros((4, 0)), (3, 0)).tolist() == [0] * 4


def test_controllability_matrix_has_the_bits_of_the_krylov_loop():
    # [B, AB, A^2 B, ...] by repeated A @ block, on systems of 1-8 modes
    # (up to 16 states, where BLAS blocking makes row- and column-side
    # products round apart) and every input port plus all at once
    rng = np.random.default_rng(1981)
    for _ in range(60):
        model = random_system(rng, int(rng.integers(1, 9)), int(rng.integers(1, 4))).to_state_space()
        names = list(model.inputs.names)
        for port in names + [names]:
            blocks, block = [], model.b(port)
            for _ in range(model.nstates):
                blocks.append(block)
                block = model.A @ block
            ctrb = controllability_matrix(model, port)
            assert ctrb.shape == (model.nstates, model.nstates * block.shape[1])
            assert ctrb.tobytes() == np.hstack(blocks).tobytes(), (model.nstates, port)
