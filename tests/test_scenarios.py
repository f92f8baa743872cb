import numpy as np
import pytest

from qlin import (
    ValidationError,
    check_bae,
    classical_subsystem,
    find_dfs,
    find_qnd,
    homodyne_split,
    markov_parameters,
    realizability_defect,
    sigma,
    span_of,
)
from qlin import scenarios as sc
from qlin.structural import controllability_matrix, kalman_decompose
from qlin.xfer import TransferFunction, evaluate


def test_two_port_cavity_matrices():
    sys = sc.two_port_cavity(1.0, 1.0)
    assert np.allclose(sys.A, -2.0 * np.eye(2))
    assert np.allclose(sys.C, np.vstack([np.sqrt(2) * np.eye(2), np.sqrt(2) * np.eye(2)]))
    model = sys.to_state_space()
    assert np.linalg.matrix_rank(controllability_matrix(model, ["W1", "W2"])) == 2
    single = sc.two_port_cavity(1.0, 0.0)
    assert np.allclose(single.A, -np.eye(2))
    assert np.allclose(single.C[2:], 0.0)


def test_optomech_reduced_matrices():
    m_, w_, lam = 1.0, 0.7, 1.3
    sys = sc.optomech_reduced(m_, w_, lam)
    assert np.allclose(sys.A, [[0, 1 / m_], [-m_ * w_ ** 2, 0]])
    assert np.allclose(sys.C, np.sqrt(lam) * np.array([[0, 0], [1, 0]]))
    assert np.allclose(sys.force, [0, 1])
    closed = sc.optomech_reduced(m_, w_, 0.0)
    assert np.allclose(closed.B, 0.0)


def test_optomech_full_matrices():
    m_, w_, k_, g_ = 1.0, 1.0, 1.0, 2.0
    sys = sc.optomech_full(m_, w_, k_, g_)
    A_ref = np.array([
        [0, 1 / m_, 0, 0],
        [-m_ * w_ ** 2, 0, k_, 0],
        [0, 0, -g_, 0],
        [k_, 0, 0, -g_],
    ])
    B_ref = -np.sqrt(2 * g_) * np.array([[0, 0], [0, 0], [1, 0], [0, 1.0]])
    C_ref = np.sqrt(2 * g_) * np.array([[0, 0, 1, 0], [0, 0, 0, 1.0]])
    assert np.allclose(sys.A, A_ref)
    assert np.allclose(sys.B, B_ref)
    assert np.allclose(sys.C, C_ref)
    decoupled = sc.optomech_full(m_, w_, 0.0, g_)
    assert np.allclose(decoupled.A[:2, 2:], 0.0)
    assert np.allclose(decoupled.A[2:, :2], 0.0)


def test_optomech_adiabatic_elimination():
    m_, w_, k_, g_ = 1.0, 1.0, 1.0, 100.0
    lam = 2 * k_ ** 2 / g_
    full = sc.optomech_full(m_, w_, k_, g_).to_state_space()
    red = sc.optomech_reduced(m_, w_, lam).to_state_space()
    s = 1j * w_ / 10
    for pair in (("F", "W.out.P"), ("W.Q", "W.out.P")):
        a = evaluate(TransferFunction(full, *pair), s)[0, 0]
        b = evaluate(TransferFunction(red, *pair), s)[0, 0]
        assert abs(abs(a) - abs(b)) / abs(b) < 0.05


def test_michelson_matrices():
    p = sc.MichelsonParams(m=1.0, omega=0.5, lam=1.0)
    sys = sc.michelson(p)
    rl = np.sqrt(p.lam)
    osc = np.array([[0, 1 / p.m], [-p.m * p.omega ** 2, 0]])
    assert np.allclose(sys.A, np.block([[osc, np.zeros((2, 2))],
                                        [np.zeros((2, 2)), osc]]))
    assert np.allclose(sys.B[:, 0], [0, rl, 0, rl])      # bright-port Q
    assert np.allclose(sys.B[:, 2], [0, rl, 0, -rl])     # dark-port Q
    assert np.allclose(sys.B[:, 1], 0.0)
    assert np.allclose(sys.B[:, 3], 0.0)
    assert np.allclose(sys.C, rl * np.array([
        [0, 0, 0, 0], [1, 0, 1, 0], [0, 0, 0, 0], [1, 0, -1, 0.0]]))
    assert np.allclose(sys.force, [0, 1, 0, -1])


def test_michelson_common_differential_decomposition():
    p = sc.MichelsonParams(m=1.0, omega=0.5, lam=1.0)
    model = sc.michelson(p).to_state_space()
    dec = kalman_decompose(model, "W2", "controllable")
    assert dec.primary_dim == 2
    diff = span_of(np.array([[1, 0, -1, 0], [0, 1, 0, -1.0]]).T)
    got = span_of(dec.T[:, :2])
    from qlin import principal_angles

    assert np.max(principal_angles(diff, got)) < 1e-12
    # the force drives only the differential (dark-port) modes
    mk = markov_parameters(model, "F", ["W1.out.Q", "W2.out.Q"])
    assert max(float(np.max(np.abs(M))) for M in mk) < 1e-14


def test_michelson_rejects_bad_params():
    with pytest.raises(ValidationError):
        sc.MichelsonParams(m=-1.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
@pytest.mark.parametrize("name", ["m", "omega", "lam", "L"])
def test_michelson_names_the_parameter_it_refuses(name, value):
    # a NaN or infinite one passed "min(...) <= 0" and failed later as
    # "G contains non-finite entries"
    with pytest.raises(ValidationError, match=f"^{name} must be a finite positive number"):
        sc.MichelsonParams(**{name: value})


def test_atomic_ensemble():
    mu = 1.7
    sys = sc.atomic_ensemble_linear(mu)
    assert np.allclose(sys.A, 0.0)
    assert np.allclose(sys.C[0], [0, np.sqrt(mu)])
    split = homodyne_split(1, "Q")
    v = find_qnd(sys.to_state_space(split), ["Q", "P"], "y")
    assert v.achieved
    assert np.allclose(v.witnesses[0], [0, 1], atol=1e-14)
    isolated = sc.atomic_ensemble_linear(0.0)
    assert np.allclose(isolated.B, 0.0)


def test_lambda_memory():
    sys = sc.lambda_memory(1.0, 0.5, 1.0)
    v = find_dfs(sys.to_state_space(), ["A"], ["A.out"])
    assert v.achieved and len(v.witnesses) == 2
    # spin-wave pair only
    W = np.column_stack(v.witnesses)
    assert np.allclose(np.abs(W[:4]), 0.0, atol=1e-12)

    plain = sc.lambda_memory(1.0, 0.0, 0.0)
    A = plain.A
    for i in range(3):
        for j in range(3):
            if i != j:
                assert np.allclose(A[2 * i:2 * i + 2, 2 * j:2 * j + 2], 0.0)

    with pytest.raises(ValidationError):
        sc.lambda_memory(1.0, 0.5, 1.0, omega_rabi=0.3)


def test_tsang_caves_controller_parameters():
    ctrl = sc.tsang_caves_controller(1.0, 1.0, 1.0, 2.0)
    g = 1.0  # kappa / sqrt(m omega)
    assert np.allclose(ctrl.G_K, -np.eye(2))
    assert np.allclose(np.abs(ctrl.C1), (g / 2.0) * np.array([[0, 0], [1, 0]]))
    assert np.allclose(ctrl.C1, -ctrl.C2)


def test_tsang_caves_off_tuning_breaks_bae():
    for g in (0.5, 0.9, 1.1, 2.0):
        model = sc.tsang_caves_loop(1.0, 1.0, 1.0, 2.0, g=g).to_state_space()
        v = check_bae(model, "W.Q", "W.out.P")
        assert not v.achieved
        assert v.residual > 1e4 * v.tolerance
    ok = check_bae(sc.tsang_caves_loop().to_state_space(), "W.Q", "W.out.P")
    assert ok.achieved


def test_tsang_caves_loop_has_classical_subsystem():
    model = sc.tsang_caves_loop().to_state_space()
    v = find_qnd(model, ["W"], "W.out.P")
    assert v.achieved
    assert classical_subsystem(span_of(np.column_stack(v.witnesses)), sigma(3))


def test_michelson_cf_params():
    # omega -> 0 limit
    p = sc.MichelsonParams(m=1.0, omega=1e-4, lam=1.0)
    eps, alpha = sc.michelson_cf_params(p)
    assert abs(eps - 1.0) < 1e-4
    assert abs(alpha + 1.0) < 1e-4
    # frozen value at omega = 1: sqrt(2)/sqrt(1 + sqrt(5))
    p1 = sc.MichelsonParams(m=1.0, omega=1.0, lam=1.0)
    eps1, alpha1 = sc.michelson_cf_params(p1)
    assert np.isclose(eps1, np.sqrt(2.0) / np.sqrt(1.0 + np.sqrt(5.0)))
    assert np.isclose(alpha1, -1.0 / eps1)


def test_michelson_cf_loop_achieves_bae():
    loop = sc.michelson_cf_loop()
    model = loop.to_state_space()
    v = check_bae(model, "W2.Q", "W2.out.P")
    assert v.achieved and v.method_agreement
    mk = markov_parameters(model, "F", "W2.out.Q")
    assert max(float(np.max(np.abs(M))) for M in mk) < 1e-10


def test_every_scenario_is_realizable_and_reproducible():
    builders = [
        lambda: sc.two_port_cavity(1.0, 0.5),
        lambda: sc.optomech_reduced(1.0, 1.0, 1.0),
        lambda: sc.optomech_full(1.0, 1.0, 1.0, 2.0),
        lambda: sc.michelson(),
        lambda: sc.atomic_ensemble_linear(1.0),
        lambda: sc.lambda_memory(1.0, 0.5, 1.0),
        lambda: sc.tsang_caves_loop(),
        lambda: sc.michelson_cf_loop(),
    ]
    for build in builders:
        a, b = build(), build()
        assert realizability_defect(a.A, a.C) < 1e-12
        assert np.array_equal(a.G, b.G)
        assert np.array_equal(a.C, b.C)
