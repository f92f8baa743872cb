import numpy as np
import pytest
import scipy.linalg

from conftest import random_orthogonal, random_system
from qlin import (
    Ports,
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
    range_space,
    sigma,
    span_of,
)
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
    from qlin.structural import _cutoff, _stacked, _staircase

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
                    cutoffs = [_cutoff(a, b, None) for a, b in zip(side_A, side_B)]
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
        cutoffs = [_cutoff(a, b, None) for a, b in zip(side_A, B)]
        stacked = _staircase(_stacked(side_A), B, cutoffs)
        assert [sub.dim for sub in stacked] == [6, 4, 2]
        for a, b, c, got in zip(side_A, B, cutoffs, stacked):
            assert np.array_equal(got.basis, _one_pair_staircase(a, b, c).basis)
