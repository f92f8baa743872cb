import numpy as np
import pytest

from conftest import random_system
from qlin import (
    Channel,
    ClassicalController,
    MeasurementSplit,
    QuantumController,
    ShapeError,
    ValidationError,
    build_system,
    cf_type1,
    cf_type2,
    direct_mf,
    find_qnd,
    homodyne_split,
    mf_type1,
    mf_type2,
    realizability_defect,
    sigma,
)
from qlin import scenarios as sc
from qlin.interconnect import direct_mf_controller, mf_type2_open_loop
from qlin.nogo import random_orthosymplectic, random_split, sample_classical_controller
from qlin.xfer import TransferFunction, evaluate


def zero_mf1(plant):
    m = plant.m
    return ClassicalController(np.zeros((0, 0)), np.zeros((0, m)),
                               C_K=np.zeros((2 * m, 0)))


def test_mf1_zero_controller_reproduces_measured_plant():
    rng = np.random.default_rng(40)
    plant = random_system(rng, 2, 2, force=True)
    split = homodyne_split(2, "P")
    loop = mf_type1(plant, zero_mf1(plant), split)
    ref = plant.to_state_space(split)
    assert np.array_equal(loop.A, ref.A)
    assert np.array_equal(loop.B, ref.B)
    assert np.array_equal(loop.C, ref.C)
    assert np.array_equal(loop.D, ref.D)
    assert loop.inputs.names == ref.inputs.names
    assert loop.outputs.names == ref.outputs.names


def random_mf1_controller(rng, plant, k):
    return ClassicalController(
        rng.normal(size=(k, k)) - 2 * np.eye(k),
        rng.normal(size=(k, plant.m)),
        C_K=rng.normal(size=(2 * plant.m, k)))


def test_mf1_block_pattern():
    rng = np.random.default_rng(41)
    plant = random_system(rng, 2, 1)
    ctrl = random_mf1_controller(rng, plant, 3)
    split = homodyne_split(1, "P")
    loop = mf_type1(plant, ctrl, split)
    n2 = 2 * plant.n
    # conjugate noise never enters the controller state
    assert np.array_equal(loop.b("P")[n2:, :], np.zeros((3, 1)))
    # plant block of the drift is untouched by the loop
    assert np.array_equal(loop.A[:n2, :n2], plant.A)
    # measured noise drives the controller through B_K
    assert np.array_equal(loop.b("Q")[n2:, :], ctrl.B_K)


def test_mf1_width_validation():
    # B_K has one column per measured signal, C_K two rows per channel; the
    # error names the matrix
    rng = np.random.default_rng(42)
    plant = random_system(rng, 1, 1)
    for bad, name in ((ClassicalController(np.zeros((1, 1)), np.zeros((1, 2)),
                                           C_K=np.zeros((2, 1))), "B_K must have 1 columns"),
                      (ClassicalController(np.zeros((1, 1)), np.zeros((1, 1)),
                                           C_K=np.zeros((4, 1))), "C_K must have 2 rows")):
        with pytest.raises(ShapeError, match=f"^{name}"):
            mf_type1(plant, bad, homodyne_split(1, "P"))


def zero_mf2(plant):
    m1 = sum(1 for ch in plant.channels if ch.role == "feedback")
    m2 = sum(1 for ch in plant.channels if ch.role == "evaluation")
    return ClassicalController(np.zeros((0, 0)), np.zeros((0, m1)),
                               C_K1=np.zeros((2 * m1, 0)), C_K2=np.zeros((2 * m2, 0)))


def test_mf2_zero_controller_and_direct_term():
    plant = sc.michelson()
    fb = homodyne_split(1, "P")
    ev = homodyne_split(1, "P")
    loop = mf_type2(plant, zero_mf2(plant), fb, ev)
    assert np.array_equal(loop.A, plant.A)
    # the z output carries the measured evaluation noise directly
    assert np.array_equal(loop.d("z", "Q2"), np.eye(1))
    assert np.array_equal(loop.d("z", "P2"), np.zeros((1, 1)))

    # a dead controller (zero gains, nonzero dimension) stays decoupled
    dead = ClassicalController(-np.eye(3), np.zeros((3, 1)),
                               C_K1=np.zeros((2, 3)), C_K2=np.zeros((2, 3)))
    loop2 = mf_type2(plant, dead, fb, ev)
    assert np.array_equal(loop2.A[:4, 4:], np.zeros((4, 3)))
    assert np.array_equal(loop2.A[4:, :4], np.zeros((3, 4)))


def test_mf2_width_validation():
    # michelson has one feedback and one evaluation channel: B_K has one
    # column, and C_K1 and C_K2 two rows each; the error names the matrix
    plant, fb, ev = sc.michelson(), homodyne_split(1, "P"), homodyne_split(1, "P")
    A, B, gain = -np.eye(1), np.ones((1, 1)), np.ones((2, 1))
    for ctrl, name in ((ClassicalController(A, np.ones((1, 2)), C_K1=gain, C_K2=gain),
                        "B_K must have 1 columns"),
                       (ClassicalController(A, B, C_K1=np.ones((4, 1)), C_K2=gain),
                        "C_K1 must have 2 rows"),
                       (ClassicalController(A, B, C_K1=gain, C_K2=np.ones((1, 1))),
                        "C_K2 must have 2 rows")):
        with pytest.raises(ShapeError, match=f"^{name}"):
            mf_type2(plant, ctrl, fb, ev)
    with pytest.raises(ValidationError, match="^type-2 controller needs C_K1 and C_K2"):
        mf_type2(plant, ClassicalController(A, B, C_K1=gain), fb, ev)


@pytest.mark.filterwarnings("error")
def test_overflowing_splits_and_loops_are_validation_errors():
    # each overflowed with a RuntimeWarning: the split identities and the
    # loop's products are now checked finite without one
    with pytest.raises(ValidationError, match="^measurement split violates"):
        MeasurementSplit(1, [[1e160, 0.0]], [[0.0, 1.0]])
    huge = ClassicalController([[1e308]], [[1.0]], C_K=[[1e308], [1e308]])
    with pytest.raises(ValidationError, match="^A contains non-finite entries"):
        mf_type1(sc.optomech_reduced(), huge, homodyne_split(1, "P"))


def test_mf2_requires_role_partition():
    rng = np.random.default_rng(43)
    plant = random_system(rng, 1, 2)  # default roles: environment
    with pytest.raises(ValidationError):
        mf_type2(plant, zero_mf2(sc.michelson()), homodyne_split(1, "P"),
                 homodyne_split(1, "P"))


def test_loops_refuse_what_their_scheme_lacks():
    plant = sc.michelson()
    with pytest.raises(ShapeError, match="measurement splits do not match the channel partition"):
        mf_type2_open_loop(plant, homodyne_split(2, "Q"), homodyne_split(1, "P"))
    with pytest.raises(ValidationError, match="unknown scheme 'cf1'; expected 'mf1' or 'mf2'"):
        sample_classical_controller(np.random.default_rng(0), plant, "cf1", [1])
    with pytest.raises(ValidationError, match="type-1 CF controller needs C1 and C2"):
        cf_type1(sc.optomech_full(), QuantumController(G_K=np.zeros((2, 2)), C1=np.eye(2)))
    with pytest.raises(ValidationError, match="type-2 CF controller needs C_K"):
        cf_type2(plant, QuantumController(G_K=np.zeros((2, 2)), C1=np.eye(2), C2=np.eye(2)))


def test_mf_port_bookkeeping():
    plant = sc.michelson()
    loop = mf_type2(plant, zero_mf2(plant), homodyne_split(1, "P"),
                    homodyne_split(1, "P"))
    # free field width (4 quadratures) plus force: no channel double-counted
    assert loop.inputs.total == 2 * plant.m + 1
    loop1 = mf_type1(sc.optomech_full(), random_mf1_controller(
        np.random.default_rng(44), sc.optomech_full(), 2), homodyne_split(1, "P"))
    assert loop1.inputs.total == 2 * sc.optomech_full().m + 1


NON_FINITE_CONTROLLERS = {
    "A_K": lambda: ClassicalController([[np.inf]], [[1.0]], C_K=[[1.0], [0.0]]),
    "B_K": lambda: ClassicalController([[-1.0]], [[np.nan]], C_K=[[1.0], [0.0]]),
    "C_K1": lambda: ClassicalController([[-1.0]], [[1.0]], C_K1=[[np.nan], [0.0]],
                                        C_K2=[[0.0], [0.0]]),
    "G_K": lambda: QuantumController(G_K=[[np.nan, 0.0], [0.0, 0.0]], C1=np.zeros((2, 2)),
                                     C2=np.zeros((2, 2))),
    "C1": lambda: QuantumController(G_K=np.zeros((2, 2)), C1=[[np.nan, 0.0], [0.0, 0.0]],
                                    C2=np.zeros((2, 2))),
    "S": lambda: QuantumController(G_K=np.zeros((2, 2)), C_K=np.eye(2),
                                   S=[[np.nan, 0.0], [0.0, 1.0]]),
}


@pytest.mark.parametrize("name", list(NON_FINITE_CONTROLLERS))
def test_controllers_reject_non_finite_fields(name):
    with pytest.raises(ValidationError, match=f"^{name} contains non-finite entries"):
        NON_FINITE_CONTROLLERS[name]()


def test_flat_controller_fields_must_fit_the_state_count():
    # a flat B_K is read as one row per state, a flat gain as rows of one
    # column per state; a length that does not fit names the field
    A2 = -np.eye(2)
    for make, name in ((lambda: ClassicalController(A2, [1.0, 2.0, 3.0], C_K=np.ones((2, 2))),
                        "B_K"),
                       (lambda: ClassicalController(A2, np.ones((2, 1)), C_K=[1.0, 2.0, 3.0]),
                        "C_K"),
                       (lambda: ClassicalController([], [1.0, 2.0], C_K=[[], []]), "B_K"),
                       (lambda: ClassicalController([], [], C_K1=[1.0]), "C_K1")):
        with pytest.raises(ValidationError, match=f"^flat {name} has"):
            make()
    ok = ClassicalController(A2, [1.0, 2.0, 3.0, 4.0], C_K=[1.0, 2.0])
    assert ok.B_K.shape == (2, 2) and ok.C_K.shape == (1, 2)
    empty = ClassicalController([], [], C_K=[[], []])
    assert empty.B_K.shape == (0, 0) and empty.C_K.shape == (2, 0)


def test_cf1_reproduces_tsang_caves_reference_matrices():
    m_, w_, k_, g_ = 1.0, 1.0, 1.0, 2.0
    loop = sc.tsang_caves_loop(m_, w_, k_, g_)
    g = k_ / np.sqrt(m_ * w_)
    A_ref = np.array([
        [0, 1 / m_, 0, 0, 0, 0],
        [-m_ * w_ ** 2, 0, k_, 0, 0, 0],
        [0, 0, -g_, 0, 0, 0],
        [k_, 0, 0, -g_, g, 0],
        [0, 0, 0, 0, 0, -w_],
        [0, 0, g, 0, w_, 0],
    ])
    C_ref = np.sqrt(2 * g_) * np.array([[0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0.0]])
    assert np.allclose(loop.A, A_ref)
    assert np.allclose(loop.C, C_ref)
    # canonical input matrix; the displayed B_e = C_e^T has a sign slip
    assert np.allclose(loop.B, sigma(3) @ C_ref.T @ sigma(1))
    assert np.allclose(loop.B, -C_ref.T)
    assert np.allclose(loop.force, [0, 1, 0, 0, 0, 0])


def test_cf1_decoupled_when_couplings_vanish():
    rng = np.random.default_rng(45)
    plant = random_system(rng, 1, 1)
    ctrl = QuantumController(G_K=np.zeros((2, 2)), C1=np.zeros((2, 2)),
                             C2=np.zeros((2, 2)))
    loop = cf_type1(plant, ctrl)
    assert np.array_equal(loop.A[:2, 2:], np.zeros((2, 2)))
    assert np.array_equal(loop.A[2:, :2], np.zeros((2, 2)))
    assert np.array_equal(loop.C[:, 2:], np.zeros((2, 2)))


def test_cf1_direct_interaction_blocks():
    rng = np.random.default_rng(46)
    plant = random_system(rng, 2, 1)
    GK = rng.normal(size=(2, 2))
    GK = (GK + GK.T) / 2
    C1 = rng.normal(size=(2, 2))
    ctrl = QuantumController(G_K=GK, C1=C1, C2=-C1)
    loop = cf_type1(plant, ctrl)
    S1, Sn = sigma(1), sigma(plant.n)
    # controller couples to the plant only through the direct interaction
    assert np.allclose(loop.C[:, 4:], 0.0)
    assert np.allclose(loop.A[:4, 4:], Sn @ plant.C.T @ S1 @ C1)
    assert np.allclose(loop.A[4:, :4], sigma(1) @ C1.T @ S1.T @ plant.C)
    assert np.allclose(loop.A[4:, 4:], sigma(1) @ GK)
    # no field reaches the controller block
    assert np.allclose(loop.B[4:, :], 0.0)


def test_cf1_dfs_construction_blocks():
    plant = sc.two_port_cavity(1.0, 1.0)
    ctrl = QuantumController(G_K=plant.G, C1=plant.C / 2, C2=plant.C / 2)
    loop = cf_type1(plant, ctrl)
    A, B, C = plant.A, plant.B, plant.C
    coupling = sigma(1) @ C.T @ sigma(2) @ C / 2
    assert np.allclose(loop.A[:2, :2], A)
    assert np.allclose(loop.A[2:, 2:], A)
    assert np.allclose(loop.A[:2, 2:], coupling)
    assert np.allclose(loop.A[2:, :2], coupling)
    assert np.allclose(loop.B, np.vstack([B, B]))
    assert np.allclose(loop.C, np.hstack([C, C]))


def test_cf2_reproduces_michelson_reference_matrices():
    p = sc.MichelsonParams(m=1.0, omega=0.01, lam=1.0, L=1.0)
    eps, alpha = sc.michelson_cf_params(p)
    beta = alpha
    loop = sc.michelson_cf_loop(p)
    lam, m_, w_ = p.lam, p.m, p.omega
    rle = np.sqrt(2 * lam * eps)
    rl = np.sqrt(lam)
    re = np.sqrt(2 * eps)
    A_ref = np.array([
        [0, 1 / m_, 0, 0, 0, 0],
        [lam - m_ * w_ ** 2, 0, lam, 0, rle, 0],
        [0, 0, 0, 1 / m_, 0, 0],
        [-lam, 0, -lam - m_ * w_ ** 2, 0, -rle, 0],
        [-rle, 0, -rle, 0, -eps, beta],
        [0, 0, 0, 0, -alpha, -eps],
    ])
    B_ref = np.array([
        [0, 0], [rl, -rl], [0, 0], [-rl, -rl], [-re, 0], [0, -re]])
    C_ref = np.array([[rl, 0, rl, 0, re, 0], [rl, 0, -rl, 0, 0, re]])
    assert np.allclose(loop.A, A_ref)
    assert np.allclose(loop.B, B_ref)
    assert np.allclose(loop.C, C_ref)
    assert np.allclose(loop.force, [0, 1, 0, -1, 0, 0])


def test_cf2_controller_decoupled_from_untouched_quadratures():
    plant = sc.michelson()
    ctrl = QuantumController(G_K=np.diag([0.3, 0.7]), C_K=np.zeros((2, 2)), S=np.eye(2))
    loop = cf_type2(plant, ctrl)
    # zero coupling: controller invisible in the output field
    assert np.allclose(loop.C[:, 4:], 0.0)
    assert np.allclose(loop.B[4:, :], 0.0)


def test_cf2_with_identity_scattering_matches_cf1_dfs_form():
    kappa = 0.8
    plant2 = sc.two_port_cavity(kappa, kappa)  # C1 = C2 = C/2
    C_full = 2.0 * np.sqrt(2 * kappa) * np.eye(2)
    ctrl2 = QuantumController(G_K=plant2.G, C_K=C_full, S=np.eye(2))
    loop2 = cf_type2(plant2, ctrl2)

    plant1 = build_system(np.zeros((2, 2)), C_full, channels=[Channel("W")])
    ctrl1 = QuantumController(G_K=plant1.G, C1=C_full / 2, C2=C_full / 2)
    loop1 = cf_type1(plant1, ctrl1)
    assert np.allclose(loop1.A, loop2.A)
    assert np.allclose(loop1.B, loop2.B)
    assert np.allclose(loop1.C, loop2.C)


def test_cf_loops_always_realizable():
    rng = np.random.default_rng(47)
    for _ in range(10):
        plant = random_system(rng, 2, 1)
        C1 = rng.normal(size=(2, 2))
        C2 = rng.normal(size=(2, 2))
        GK = rng.normal(size=(2, 2))
        GK = (GK + GK.T) / 2
        loop = cf_type1(plant, QuantumController(G_K=GK, C1=C1, C2=C2))
        assert realizability_defect(loop.A, loop.C) < 1e-12
    for _ in range(10):
        plant = random_system(rng, 2, 2)
        plant = build_system(plant.G, plant.C,
                             channels=[Channel("W1", "feedback"),
                                       Channel("W2", "evaluation")])
        GK = rng.normal(size=(2, 2))
        GK = (GK + GK.T) / 2
        S = random_orthosymplectic(rng, 1)
        loop = cf_type2(plant, QuantumController(
            G_K=GK, C_K=rng.normal(size=(2, 2)), S=S))
        assert realizability_defect(loop.A, loop.C) < 1e-12


def test_cf2_rejects_bad_scattering():
    with pytest.raises(ValidationError):
        QuantumController(G_K=np.zeros((2, 2)), C_K=np.eye(2),
                          S=np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_cf_loops_obey_the_cascade_law():
    # the loop's field transfer is the product of its stages' transfers:
    # type 1 with C2 = 0 is controller then plant; type 2 with zero
    # evaluation rows is plant feedback rows, scattering S, then controller
    rng = np.random.default_rng(48)

    def field_tf(sysq, channels):
        ports = [ch.label for ch in channels]
        return TransferFunction(sysq.to_state_space(), ports, [p + ".out" for p in ports])

    worst = 0.0
    for _ in range(50):
        n, m, k = rng.integers(1, 4, size=3)
        GK = rng.normal(size=(2 * k, 2 * k))
        GK = (GK + GK.T) / 2
        s = complex(rng.uniform(0.1, 2.0), rng.uniform(-3.0, 3.0))

        plant = random_system(rng, n, m, force=True)
        C1 = rng.normal(size=(2 * m, 2 * k))
        ctrl = build_system(GK, C1, channels=plant.channels)
        loop = cf_type1(plant, QuantumController(G_K=GK, C1=C1, C2=np.zeros_like(C1)))
        lhs = evaluate(field_tf(loop, loop.channels), s)
        rhs = (evaluate(field_tf(plant, plant.channels), s)
               @ evaluate(field_tf(ctrl, ctrl.channels), s))
        worst = max(worst, np.max(np.abs(lhs - rhs)) / max(1.0, np.max(np.abs(rhs))))

        fb = [Channel(f"F{j}", "feedback") for j in range(m)]
        ev = [Channel(f"E{j}", "evaluation") for j in range(m)]
        plant = random_system(rng, n, m)
        plant = build_system(plant.G, np.vstack([plant.C, np.zeros_like(plant.C)]),
                             channels=fb + ev)
        S = random_orthosymplectic(rng, m)
        CK = rng.normal(size=(2 * m, 2 * k))
        ctrl = build_system(GK, CK, channels=ev)
        loop = cf_type2(plant, QuantumController(G_K=GK, C_K=CK, S=S))
        lhs = evaluate(field_tf(loop, loop.channels), s) @ S
        rhs = (evaluate(field_tf(ctrl, ctrl.channels), s) @ S
               @ evaluate(field_tf(plant, fb), s))
        worst = max(worst, np.max(np.abs(lhs - rhs)) / max(1.0, np.max(np.abs(rhs))))
    assert worst < 1e-12


def test_mf_loops_obey_the_loop_transfer_law():
    # with the open loop G (all inputs to all outputs), the controller
    # K = C_K (s - A_K)^-1 B_K and the map E of u onto the inputs (u displaces
    # the field: type 1 W = M1^T Q + M2^T P, type 2 W1 and W2 = M1e^T Q2 +
    # M2e^T P2), the loop is G + G E K (I - G_yu K)^-1 G_y, G_yu = G_y E
    rng = np.random.default_rng(49)

    def tf(A, B, C, D, s):
        return D + C @ np.linalg.solve(s * np.eye(len(A)) - A, B)

    worst = 0.0
    for scheme, plant in (("mf1", sc.optomech_reduced()), ("mf2", sc.michelson())):
        for _ in range(100):
            ctrl = sample_classical_controller(rng, plant, scheme, range(0, 5))
            if scheme == "mf1":
                splits = [random_split(rng, plant.m)]
                loop, open_loop = mf_type1(plant, ctrl, *splits), plant.to_state_space(*splits)
                E = np.zeros((open_loop.inputs.total, 2 * plant.m))
                E[open_loop.inputs.slice("Q")] = splits[0].M1
                E[open_loop.inputs.slice("P")] = splits[0].M2
                C_K = ctrl.C_K
            else:
                splits = [random_split(rng, 1), random_split(rng, 1)]
                loop, open_loop = mf_type2(plant, ctrl, *splits), mf_type2_open_loop(plant, *splits)
                E = np.zeros((open_loop.inputs.total, 4))
                E[open_loop.inputs.slice("W1"), :2] = np.eye(2)
                E[open_loop.inputs.slice("Q2"), 2:] = splits[1].M1
                E[open_loop.inputs.slice("P2"), 2:] = splits[1].M2
                C_K = np.vstack([ctrl.C_K1, ctrl.C_K2])
            s = complex(rng.uniform(0.1, 2.0), rng.uniform(-3.0, 3.0))
            G = tf(open_loop.A, open_loop.B, open_loop.C, open_loop.D, s)
            Gy = G[open_loop.outputs.slice("y")]
            K = tf(ctrl.A_K, ctrl.B_K, C_K, np.zeros((len(C_K), len(Gy))), s)
            rhs = G + G @ E @ K @ np.linalg.solve(np.eye(len(Gy)) - Gy @ E @ K, Gy)
            lhs = tf(loop.A, loop.B, loop.C, loop.D, s)
            worst = max(worst, np.max(np.abs(lhs - rhs)) / max(1.0, np.max(np.abs(rhs))))
    assert worst < 1e-12


def test_direct_mf_ideal_limit_has_position_qnd():
    loop = direct_mf(1.0, 0.0)
    v = find_qnd(loop, ["Q", "P"], "y")
    assert v.achieved
    assert np.allclose(v.witnesses[0], [1.0, 0.0], atol=1e-14)
    # u = sqrt(k) y: direct gain from the measured noise
    assert np.isclose(loop.d("u", "Q")[0, 0], 1.0)


def test_direct_mf_finite_bandwidth_transfer():
    kappa, tau = 1.0, 1.0
    loop = direct_mf(kappa, tau)
    tf = TransferFunction(loop, "Q", "q")
    for s in (0.0, 0.5, 2.0):
        ref = -np.sqrt(kappa) * tau / ((kappa * tau + 1) + tau * s)
        assert np.isclose(evaluate(tf, s)[0, 0].real, ref, atol=1e-12)
    # QND is recovered only in the tau -> 0 limit
    v = find_qnd(loop, ["Q", "P"], "y")
    assert not any(np.allclose(np.abs(w), [1, 0, 0]) for w in v.witnesses)


def test_direct_mf_small_tau_bound():
    kappa, tau = 1.0, 1e-6
    loop = direct_mf(kappa, tau)
    tf = TransferFunction(loop, "Q", "q")
    for W in np.linspace(0.0, kappa, 7):
        assert abs(evaluate(tf, 1j * W)[0, 0]) < 2e-6 * np.sqrt(kappa)


def test_direct_mf_controller_ideal_limit_is_a_static_gain():
    # tau = 0 raised ShapeError: the stateless model lost its (0, 1) input
    # matrix and (1, 0) output matrix
    kappa = 1.7
    ctl = direct_mf_controller(kappa, 0.0)
    assert (ctl.nstates, ctl.B.shape, ctl.C.shape) == (0, (0, 1), (1, 0))
    for s in (0.0, 1j, 3.0 + 2j):
        assert evaluate(TransferFunction(ctl, "y", "u"), s)[0, 0] == np.sqrt(kappa)


def test_direct_mf_rejects_negative_tau():
    with pytest.raises(ValidationError):
        direct_mf(1.0, -0.1)


@pytest.mark.parametrize("kappa, tau, name", [
    (float("nan"), 0.0, "kappa"), (float("inf"), 0.0, "kappa"), (0.0, 1.0, "kappa"),
    (1.0, float("nan"), "tau"), (1.0, float("inf"), "tau"), (1.0, -0.1, "tau")])
def test_direct_feedback_names_the_rate_it_refuses(kappa, tau, name):
    # a NaN kappa passed "kappa <= 0" and failed later, naming B; an
    # infinite tau built a loop
    for build in (direct_mf, direct_mf_controller):
        with pytest.raises(ValidationError, match=f"^{name}"):
            build(kappa, tau)


def test_an_empty_scattering_matrix_is_refused_by_the_loop_it_does_not_fit():
    # [] is the 0 x 0 scattering matrix, orthogonal and symplectic with no
    # defect at all (its check took the maximum of an empty array)
    ctrl = QuantumController(np.eye(2), C_K=np.eye(2), S=[])
    assert ctrl.S.shape == (0, 0)
    with pytest.raises(ShapeError, match="^S must have 2 rows, got 0"):
        cf_type2(sc.michelson(), ctrl)


def _one_loop(plant, scheme, A_K, B_K, gains, *splits):
    """(A, B, C, D) of one measurement-feedback loop, built as one loop is:
    the open loop by ``np.hstack``/``np.vstack`` of its blocks, then the
    closed-loop blocks; a stacked assembly must give these bits and layouts."""
    rows = lambda group: np.array([r for j in group for r in (2 * j, 2 * j + 1)])  # noqa: E731
    force = [] if plant.force is None else [plant.force.reshape(-1, 1)]
    if scheme == "mf1":
        (M1, M2), = splits
        m = plant.m
        B = np.hstack([plant.B @ M1.T, plant.B @ M2.T] + force)
        C = np.vstack([M1 @ plant.C, M2 @ plant.C, plant.C])
        D = np.zeros((4 * m, B.shape[1]))
        D[:2 * m, :2 * m] = np.eye(2 * m)
        D[2 * m:, :m], D[2 * m:, m:2 * m] = M1.T, M2.T
        ny, fields, C_K = m, slice(2 * m, 4 * m), gains[0] if gains else None
    else:
        (M, _), (M1e, M2e) = splits
        fb, ev = plant.role_partition()
        m1, m2 = len(fb), len(ev)
        B1, B2 = plant.B[:, rows(fb)], plant.B[:, rows(ev)]
        C1, C2 = plant.C[rows(fb), :], plant.C[rows(ev), :]
        B = np.hstack([B1, B2 @ M1e.T, B2 @ M2e.T] + force)
        C = np.vstack([M @ C1, M1e @ C2, C1, C2])
        D = np.zeros((3 * (m1 + m2), B.shape[1]))
        D[:m1, :2 * m1] = M
        D[m1:m1 + m2, 2 * m1:2 * m1 + m2] = np.eye(m2)
        D[m1 + m2:3 * m1 + m2, :2 * m1] = np.eye(2 * m1)
        D[3 * m1 + m2:, 2 * m1:2 * m1 + m2], D[3 * m1 + m2:, 2 * m1 + m2:2 * m1 + 2 * m2] = \
            M1e.T, M2e.T
        ny, fields, C_K = m1, slice(m1 + m2, 3 * (m1 + m2)), np.vstack(gains) if gains else None
    E = np.ascontiguousarray(D[fields].T)
    n, k = plant.A.shape[0], A_K.shape[0]
    EC = E @ (C_K if k else np.zeros((E.shape[1], 0)))
    A = np.empty((n + k, n + k))
    A[:n, :n], A[:n, n:] = plant.A, B @ EC
    A[n:, :n], A[n:, n:] = B_K @ C[:ny], A_K + B_K @ D[:ny] @ EC
    return A, np.vstack([B, B_K @ D[:ny]]), np.hstack([C, D @ EC]), D


def test_stacked_loops_equal_one_at_a_time():
    # the loops of stacks of controllers and splits, and the public one-loop
    # assembly, have the bits and memory layouts of loops built one at a time
    from qlin.interconnect import _GAINS, _classical_feedback, _split_widths

    rng = np.random.default_rng(41)
    for plant, scheme in ((sc.optomech_reduced(), "mf1"), (sc.michelson(), "mf1"),
                          (sc.michelson(), "mf2")):
        widths = _split_widths(plant, scheme)
        for k in (0, 1, 3):
            ctrls = [sample_classical_controller(rng, plant, scheme, [k]) for _ in range(4)]
            splits = [[random_split(rng, width) for width in widths] for _ in ctrls]
            gains = [np.array([getattr(c, name) for c in ctrls]) for name in _GAINS[scheme]]
            loops = _classical_feedback(
                plant, scheme, np.array([c.A_K for c in ctrls]), np.array([c.B_K for c in ctrls]),
                gains if k else [], *((np.array([s[i].M1 for s in splits]),
                                      np.array([s[i].M2 for s in splits]))
                                     for i in range(len(widths))))
            for ctrl, split, loop in zip(ctrls, splits, loops):
                one = (mf_type1 if scheme == "mf1" else mf_type2)(plant, ctrl, *split)
                want = _one_loop(plant, scheme, ctrl.A_K, ctrl.B_K,
                                 [getattr(ctrl, name) for name in _GAINS[scheme]] if k else [],
                                 *((s.M1, s.M2) for s in split))
                for got in (loop, one):
                    for name, ref in zip("ABCD", want):
                        arr = getattr(got, name)
                        assert np.array_equal(arr, ref) and arr.strides == ref.strides, \
                            (scheme, k, name)
                        assert not arr.flags.writeable
