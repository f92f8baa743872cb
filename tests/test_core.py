import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_system
from qlin import (
    ClassicalController,
    MeasurementSplit,
    Ports,
    QuantumController,
    ShapeError,
    StateSpaceModel,
    ValidationError,
    augment_with_vacuum,
    build_system,
    complex_to_quadrature,
    homodyne_split,
    mf_type1,
    mf_type2,
    normalized_gw_signal,
    quadrature_to_complex,
    realizability_defect,
    sigma,
)
from qlin import scenarios as sc
from qlin.core import HALF_MAX
from qlin.interconnect import mf_type2_open_loop
from qlin.serialize import system_from_dict, system_to_dict


def test_public_names_are_pinned():
    import types

    import qlin

    public = sorted(n for n, v in vars(qlin).items()
                    if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert public == [
        "Channel", "ClassicalController", "GoalVerdict", "KalmanDecomposition",
        "MeasurementSplit", "NogoReport", "PortLookupError", "Ports",
        "QuantumController", "QuantumLinearSystem", "ShapeError", "SingularityError",
        "SpectrumCurve", "StateSpaceModel", "Subspace", "TransferFunction",
        "ValidationError", "augment_with_vacuum", "build_system", "cf_type1",
        "cf_type2", "check_bae", "classical_subsystem", "complement",
        "complex_to_quadrature", "controllability_matrix", "direct_mf",
        "direct_mf_controller", "evaluate", "find_dfs", "find_qnd",
        "frequency_response", "homodyne_split", "intersect", "kalman_decompose",
        "kernel", "markov_parameters", "mf_type1", "mf_type2", "noise_power",
        "normalized_gw_signal", "observability_matrix", "principal_angles",
        "quadrature_to_complex", "range_space", "realizability_defect",
        "sample_classical_controller", "sigma", "span_of", "spectrum_csv",
        "sql_curve", "squeezed_variances", "transfer_zero_equivalence", "verify_nogo",
    ]
    assert isinstance(qlin.scenarios, types.ModuleType)


def test_sigma_identities():
    for n in range(1, 5):
        S = sigma(n)
        assert np.array_equal(S, -S.T)
        assert np.array_equal(S @ S.T, np.eye(2 * n))
        assert np.array_equal(S @ S, -np.eye(2 * n))


def test_sigma_and_drift_are_cached_read_only():
    S = sigma(3)
    assert sigma(3) is S
    assert np.array_equal(sigma(3), np.kron(np.eye(3), [[0.0, 1.0], [-1.0, 0.0]]))
    sys = random_system(np.random.default_rng(48), 2, 1)
    assert sys.A is sys.A and sys.B is sys.B
    for arr in (S, sys.A, sys.B):
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
    assert np.array_equal(sigma(3), np.kron(np.eye(3), [[0.0, 1.0], [-1.0, 0.0]]))


def test_build_system_lossy_cavity_drift():
    # one mode, one channel at kappa=1: the Ito term alone gives A = -I
    sys = build_system(np.zeros((2, 2)), np.sqrt(2.0) * np.eye(2))
    assert np.allclose(sys.A, -np.eye(2))
    assert np.allclose(sys.B, -np.sqrt(2.0) * np.eye(2))


def test_build_system_isolated_mode():
    sys = build_system(np.zeros((2, 2)), np.zeros((0, 2)))
    assert sys.m == 0
    assert np.array_equal(sys.A, np.zeros((2, 2)))
    assert sys.B.shape == (2, 0)


def test_build_system_reduced_optomech_matrices():
    m, omega, lam = 1.5, 0.7, 2.0
    G = np.diag([m * omega ** 2, 1.0 / m])
    C = np.sqrt(lam) * np.array([[0.0, 0.0], [1.0, 0.0]])
    sys = build_system(G, C)
    assert np.allclose(sys.A, [[0.0, 1.0 / m], [-m * omega ** 2, 0.0]])
    # the noise enters momentum through the measured quadrature only
    assert np.allclose(sys.B, [[0.0, 0.0], [np.sqrt(lam), 0.0]])


def test_build_system_rejects_bad_input():
    with pytest.raises(ValidationError):
        build_system([[0.0, 1.0], [0.0, 0.0]], np.zeros((0, 2)))
    with pytest.raises(ShapeError):
        build_system(np.zeros((3, 3)), np.zeros((0, 3)))
    with pytest.raises(ShapeError):
        build_system(np.zeros((2, 2)), np.zeros((3, 2)))
    with pytest.raises(ValidationError):
        build_system(np.full((2, 2), np.nan), np.zeros((2, 2)))


def test_realizability_of_random_systems():
    rng = np.random.default_rng(1)
    for _ in range(25):
        sys = random_system(rng, rng.integers(1, 4), rng.integers(1, 4))
        assert realizability_defect(sys.A, sys.C) < 1e-12
        # independent restatement: Sigma^T A - C^T Sigma C / 2 is symmetric
        M = sigma(sys.n).T @ sys.A - sys.C.T @ sigma(sys.m) @ sys.C / 2.0
        assert np.linalg.norm(M - M.T) <= 1e-12 * max(1.0, np.linalg.norm(M))


SEVEN = (
    lambda M1, M2, S, I2m: M1 @ S @ M1.T,
    lambda M1, M2, S, I2m: M2 @ S @ M2.T,
    lambda M1, M2, S, I2m: M1 @ M1.T - np.eye(M1.shape[0]),
    lambda M1, M2, S, I2m: M2 @ M2.T - np.eye(M1.shape[0]),
    lambda M1, M2, S, I2m: M1 @ S @ M2.T - np.eye(M1.shape[0]),
    lambda M1, M2, S, I2m: M1 @ M2.T,
    lambda M1, M2, S, I2m: M1.T @ M1 + M2.T @ M2 - I2m,
)


def seven_condition_defect(M1, M2, m):
    S, I2m = sigma(m), np.eye(2 * m)
    return max(float(np.max(np.abs(f(M1, M2, S, I2m)))) for f in SEVEN)


def test_homodyne_split_single_p_oracle():
    # oracle: enumerate all axis-aligned sign choices for M2 and keep the
    # one satisfying every identity
    M1 = np.array([[0.0, 1.0]])
    valid = [M2 for M2 in (np.array([[s * a, s * b]])
                           for s in (1.0, -1.0) for a, b in ((1, 0), (0, 1)))
             if seven_condition_defect(M1, M2, 1) < 1e-12]
    assert len(valid) == 1
    expected_M2 = valid[0]
    split = homodyne_split(1, "P")
    assert np.allclose(split.M1, M1)
    assert np.allclose(split.M2, expected_M2)
    assert np.allclose(expected_M2, [[-1.0, 0.0]])


def test_homodyne_split_single_q():
    split = homodyne_split(1, "Q")
    assert np.allclose(split.M1, [[1.0, 0.0]])
    assert np.allclose(split.M2, [[0.0, 1.0]])


def test_homodyne_split_two_channel_pp():
    split = homodyne_split(2, ["P", "P"])
    assert np.allclose(split.M1, [[0, 1, 0, 0], [0, 0, 0, 1]])
    assert seven_condition_defect(split.M1, split.M2, 2) < 2e-12


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 5), data=st.data())
def test_homodyne_split_conditions_random_angles(m, data):
    angles = data.draw(st.lists(
        st.floats(-np.pi, np.pi, allow_nan=False), min_size=m, max_size=m))
    split = homodyne_split(m, angles)
    assert seven_condition_defect(split.M1, split.M2, m) <= 1e-12 * m


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("measured,message", [
    ("X", "homodyne_split expects 'Q', 'P' or a finite angle per channel, got 'X'"),
    (None, "homodyne_split expects 'Q', 'P' or a finite angle per channel, got None"),
    (float("inf"), "homodyne_split expects 'Q', 'P' or a finite angle per channel, got inf"),
    (["P", float("nan")], "homodyne_split expects 'Q', 'P' or a finite angle per channel, "
                          "got nan"),
    (["P", "Q", "P"], "need one selector per channel, got 3 for m=2"),
    # a boolean is a mistaken flag, not an angle of 0 or 1 rad
    (True, "homodyne_split expects 'Q', 'P' or a finite angle per channel, got True"),
    (["Q", False], "homodyne_split expects 'Q', 'P' or a finite angle per channel, "
                   "got False"),
])
def test_homodyne_split_rejects_bad_selectors(measured, message):
    with pytest.raises(ValidationError) as err:
        homodyne_split(2, measured)
    assert str(err.value) == message


def test_measurement_split_rejects_invalid():
    with pytest.raises(ValidationError):
        MeasurementSplit(1, [[0.0, 1.0]], [[1.0, 0.0]])  # M1 Sigma M2^T = -1


def test_augment_with_vacuum():
    rng = np.random.default_rng(2)
    sys = random_system(rng, 2, 1)
    aug = augment_with_vacuum(sys, 1)
    assert aug.m == 2
    assert np.array_equal(aug.C[2:], np.zeros((2, 4)))
    assert np.array_equal(aug.A, sys.A)  # zero rows add zero Ito correction
    assert augment_with_vacuum(sys, 0) is sys
    with pytest.raises(ShapeError):
        augment_with_vacuum(sys, -1)


def test_augment_enables_full_width_split():
    sys = build_system(np.zeros((2, 2)), np.sqrt(2.0) * np.eye(2))
    aug = augment_with_vacuum(sys, 1)
    model = aug.to_state_space(homodyne_split(2, ["Q", "P"]))
    assert model.inputs.width("Q") == 2
    assert model.outputs.width("y") == 2


def test_complex_to_quadrature_single_mode():
    kappa = 0.8
    sys = complex_to_quadrature([[-kappa]], [[np.sqrt(2 * kappa)]])
    assert np.allclose(sys.A, -kappa * np.eye(2))
    assert np.allclose(sys.C, np.sqrt(2 * kappa) * np.eye(2))


def test_complex_to_quadrature_zero():
    sys = complex_to_quadrature(np.zeros((2, 2), dtype=complex), [])
    assert np.array_equal(sys.A, np.zeros((4, 4)))
    assert sys.m == 0


def test_complex_to_quadrature_memory_storage_decouples_spin_wave():
    kappa, g = 1.0, 1.3
    F = np.array([[-kappa, 1j * g, 0.0], [1j * g, 0.0, 0.0], [0.0, 0.0, 0.0]])
    sys = complex_to_quadrature(F, [[np.sqrt(2 * kappa), 0.0, 0.0]])
    A = sys.A
    assert np.allclose(A[4:, :4], 0.0)
    assert np.allclose(A[:4, 4:], 0.0)


def test_complex_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        H = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        H = (H + H.conj().T) / 2.0
        ls = [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(m)]
        F = -1j * H - 0.5 * sum(np.outer(np.conj(l), l) for l in ls)
        sys = complex_to_quadrature(F, ls)
        F2, ls2 = quadrature_to_complex(sys)
        assert np.allclose(F, F2, atol=1e-12)
        for a, b in zip(ls, ls2):
            assert np.allclose(a, b, atol=1e-12)


def test_complex_to_quadrature_rejects_nonrealizable():
    # a coupling with no matching Ito correction in the drift
    with pytest.raises(ValidationError):
        complex_to_quadrature([[0.0]], [[1.0]])


@pytest.mark.filterwarnings("error")
def test_conversions_reject_huge_non_complex_linear_drifts():
    # |G|_F of entries of 1e160 overflows a plain norm: inf / inf made the
    # realizability defect NaN, which passed "defect > 1e-10", and an inf
    # scale cleared the complex-linearity test; both are rejected, unwarned
    with pytest.raises(ValidationError, match="non-realizable drift"):
        complex_to_quadrature([[0, 1e160], [0, 0]], [[0, 0]])
    squeezer = build_system([[0, 1e160], [1e160, 0]], np.zeros((0, 2)))
    with pytest.raises(ValidationError, match="drift is not complex-linear"):
        quadrature_to_complex(squeezer)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [
    lambda: realizability_defect(np.eye(2), np.full((2, 2), 1e200)),
    lambda: complex_to_quadrature([[1e200]], [[1e200]]),
    lambda: realizability_defect(1e308 * np.eye(2), np.zeros((0, 2))),
    lambda: realizability_defect(np.full((2, 2), np.nan), np.zeros((0, 2))),
])
def test_an_overflowing_implied_hamiltonian_is_rejected_without_a_warning(call):
    # C^T Sigma C overflowed in matmul, and the defect came out NaN after
    # three RuntimeWarnings; the implied Hamiltonian is now checked as any
    # Hamiltonian is, so no finite input gives a NaN defect
    with pytest.raises(ValidationError, match="^the implied Hamiltonian .* contains non-finite"):
        call()


@pytest.mark.filterwarnings("error")
def test_a_huge_asymmetric_hamiltonian_is_not_symmetrised():
    # every entry is below HALF_MAX, but |G|_F and |G - G^T|_F both overflow:
    # "inf > 1e-12 * inf" let an antisymmetric pair through (symmetrised to
    # zero, with an overflow warning); the NaN relative asymmetry now fails
    G = np.full((4, 4), 0.9 * HALF_MAX)
    G[0, 1] = -G[1, 0]
    with pytest.raises(ValidationError, match="not symmetric within tolerance"):
        build_system(G, np.zeros((0, 4)))


def test_a_stateless_model_keeps_the_shapes_of_its_empty_matrices():
    # a (0, 1) B and a (1, 0) C were read as having no columns and no rows
    model = StateSpaceModel(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[2.0]],
                            Ports([("y", 1)]), Ports([("u", 1)]))
    assert (model.B.shape, model.C.shape, model.D.tolist()) == ((0, 1), (1, 0), [[2.0]])
    # an empty matrix without two axes is still one with no columns or rows
    bare = StateSpaceModel(-np.eye(2), [], [], [], Ports(), Ports())
    assert (bare.B.shape, bare.C.shape, bare.D.shape) == ((2, 0), (0, 2), (0, 0))


def test_realizability_defect_keeps_its_bits():
    # in range, the overflow-safe norm is np.linalg.norm bit for bit
    rng = np.random.default_rng(21)
    cases = [(s.A, s.C) for s in (random_system(rng, int(rng.integers(1, 4)),
                                                int(rng.integers(1, 4))) for _ in range(25))]
    cases += [(s.A, s.C) for s in (sc.optomech_reduced(), sc.michelson(), sc.tsang_caves_loop())]
    cases += [(rng.normal(size=(4, 4)), rng.normal(size=(2, 4))) for _ in range(25)]
    for A, C in cases:
        G = sigma(A.shape[0] // 2).T @ A - C.T @ sigma(C.shape[0] // 2) @ C / 2.0
        want = float(np.linalg.norm(G - G.T) / max(np.linalg.norm(G), 1.0))
        assert realizability_defect(A, C) == want


def test_state_space_ports_raw():
    rng = np.random.default_rng(4)
    sys = random_system(rng, 2, 2, force=True)
    model = sys.to_state_space()
    assert model.inputs.names[:3] == ("W1", "W1.Q", "W1.P")
    assert "F" in model.inputs
    assert np.array_equal(model.b("W1"), sys.B[:, :2])
    assert np.array_equal(model.b("W1.P"), sys.B[:, 1:2])
    assert np.array_equal(model.c("W2.out"), sys.C[2:, :])
    assert np.array_equal(model.d("W1.out", "W1"), np.eye(2))
    assert np.array_equal(model.d("W1.out", "W2"), np.zeros((2, 2)))


def test_state_space_ports_split():
    rng = np.random.default_rng(5)
    sys = random_system(rng, 2, 2)
    split = homodyne_split(2, "P")
    model = sys.to_state_space(split)
    assert np.allclose(model.b("Q"), sys.B @ split.M1.T)
    assert np.allclose(model.b("P"), sys.B @ split.M2.T)
    assert np.allclose(model.c("y"), split.M1 @ sys.C)
    assert np.allclose(model.d("y", "Q"), np.eye(2))
    assert np.allclose(model.d("y", "P"), np.zeros((2, 2)))
    # Wout reconstructs the raw field: D = [M1^T, M2^T]
    assert np.allclose(model.d("Wout", "Q"), split.M1.T)
    assert np.allclose(model.d("Wout", "P"), split.M2.T)


def test_port_lookups_by_name_and_by_list_agree():
    # a single name resolves to its slice, a list to its indices: equal
    # values, and a fresh writable array either way
    sys = random_system(np.random.default_rng(7), 2, 2, force=True)
    for model in (sys.to_state_space(), sys.to_state_space(homodyne_split(2, [0.3, "Q"]))):
        pairs = [(model.b(i), model.b([i])) for i in model.inputs.names]
        pairs += [(model.c(o), model.c([o])) for o in model.outputs.names]
        for o in model.outputs.names:
            for i in model.inputs.names:
                pairs += [(model.d(o, i), model.d([o], [i])), (model.d(o, i), model.d(o, [i])),
                          (model.d(o, i), model.d([o], i))]
        for one, listed in pairs:
            assert one.shape == listed.shape and np.array_equal(one, listed)
            for arr in (one, listed):
                assert arr.flags.writeable
                assert not any(np.shares_memory(arr, M) for M in (model.B, model.C, model.D))
        i, o = model.inputs.names[0], model.outputs.names[0]
        assert np.array_equal(model.b(i), model.B[:, model.inputs.indices(i)])
        assert np.array_equal(model.c(o), model.C[model.outputs.indices(o)])
        assert np.array_equal(model.d(o, i), model.D[np.ix_(model.outputs.indices(o),
                                                            model.inputs.indices(i))])


def test_model_keeps_no_alias_of_caller_arrays():
    arrays = [np.diag([-1.0, -2.0]), np.ones((2, 1)), np.ones((1, 2)), np.zeros((1, 1))]
    model = StateSpaceModel(*arrays, Ports([("u", 1)]), Ports([("y", 1)]))
    for arr in arrays:
        arr += 5.0
    assert np.array_equal(model.A, np.diag([-1.0, -2.0]))
    assert np.array_equal(model.B, np.ones((2, 1)))
    assert np.array_equal(model.C, np.ones((1, 2)))
    assert np.array_equal(model.D, np.zeros((1, 1)))
    for name in "ABCD":
        with pytest.raises(ValueError):
            getattr(model, name)[0, 0] = 1.0


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_overflowing_drift_is_rejected_at_to_state_space():
    # C^T Sigma C overflows: the system builds, but its drift is not finite
    sys = build_system(np.eye(2), 1e200 * np.eye(2))
    for split in (None, homodyne_split(1, "P")):
        with pytest.raises(ValidationError, match="A contains non-finite entries"):
            sys.to_state_space(split)


def test_overflowing_symmetrisation_is_rejected():
    # (G + G^T) / 2 would overflow although every entry of G is finite; the
    # magnitude check rejects it first, so nothing warns
    with pytest.raises(ValidationError, match="^G contains non-finite entries"):
        build_system([[1.7e308, 0], [0, 0]], np.zeros((0, 2)))


@pytest.mark.filterwarnings("error")
def test_symmetry_test_of_large_hamiltonians_does_not_overflow():
    # |G - G^T|_F and |G|_F square entries of 1e200, which overflow; the
    # overflow-safe norm rescales them, so an antisymmetric G is rejected
    # rather than symmetrised to zero, and nothing warns
    with pytest.raises(ValidationError, match="not symmetric within tolerance"):
        build_system([[0, 1e200], [-1e200, 0]], np.zeros((0, 2)))
    G = [[1e200, 3e199], [3e199, 1e200]]
    assert np.array_equal(build_system(G, np.zeros((0, 2))).G, G)
    tilted = np.array(G)
    tilted[0, 1] *= 1.0 + 2.0 ** -52  # asymmetric within rounding: symmetrised
    assert build_system(tilted, np.zeros((0, 2))).G[0, 1] == np.mean([tilted[0, 1], 3e199])


def test_overflow_safe_norm_keeps_the_bits_of_np_linalg_norm():
    from qlin.core import _frobenius

    rng = np.random.default_rng(12)
    for _ in range(200):
        x = rng.normal(size=tuple(rng.integers(0, 7, 2))) * 10.0 ** rng.integers(-30, 30)
        for y in (x, x.T, np.asfortranarray(x), x[:, :1], x[::2]):
            assert _frobenius(y[None]).tolist() == [np.linalg.norm(y)]
        stack = np.array([x, 2.0 * x, -x])
        assert _frobenius(stack).tolist() == [np.linalg.norm(m) for m in stack]
        assert _frobenius(stack.swapaxes(1, 2)).tolist() == [np.linalg.norm(m.T) for m in stack]
    # out of range, the rescaled norm: no overflow to inf, no underflow to 0
    assert _frobenius(np.array([[[3e200, 4e200]]]))[0] == pytest.approx(5e200, rel=1e-15)
    assert _frobenius(np.array([[[3e-200], [4e-200]]]))[0] == pytest.approx(5e-200, rel=1e-15)
    assert _frobenius(np.zeros((1, 2, 2)))[0] == 0.0
    assert np.isnan(_frobenius(np.array([[[np.nan]]]))[0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("G", [
    [[1e308, 0], [0, 1]], [[-1e308, 0], [0, 1]], [[1, 1e308], [1e308, 1]],
    [[1, -1e308], [-1e308, 1]], [[0, 1e308], [-1e308, 0]],
])
def test_huge_hamiltonian_is_rejected_without_a_warning(G):
    # an entry above half the float range is a ValidationError before any
    # arithmetic, whether G is symmetric or (anti)symmetric: no RuntimeWarning
    with pytest.raises(ValidationError, match="^G contains non-finite entries or entries above"):
        build_system(G, [[0.0, 0.0], [1.0, 0.0]])


def test_symmetric_hamiltonian_is_frozen_as_given():
    # a bitwise symmetric G is its own symmetrisation; it is kept bit for bit
    # (a copy, read-only); a G whose transpose differs only in the sign of a
    # zero is symmetrised, as at any asymmetry
    rng = np.random.default_rng(5)
    G = rng.normal(size=(4, 4))
    G = (G + G.T) / 2
    G[0, 1] = G[1, 0] = -0.0
    sys = build_system(G, rng.normal(size=(2, 4)))
    assert sys.G.tobytes() == ((G + G.T) / 2).tobytes() == G.tobytes()
    assert not sys.G.flags.writeable and not np.shares_memory(sys.G, G)
    G[2, 3], G[3, 2] = 0.0, -0.0
    assert build_system(G, np.zeros((0, 4))).G.tobytes() == ((G + G.T) / 2).tobytes()
    for huge in (8.98e307, -8.98e307):
        G = np.diag([huge, 1.0])
        assert build_system(G, np.zeros((0, 2))).G.tobytes() == G.tobytes()


def test_port_registries_are_sealed_once_a_model_holds_them():
    ss = sc.optomech_reduced().to_state_space()
    tf = normalized_gw_signal(ss, "W.out.P", 1, 1)
    # the derived realization shares its parent's input registry
    for add in (lambda: tf.realization.inputs.append("X", 1),
                lambda: tf.realization.outputs.alias("X", 0, 1),
                lambda: ss.outputs.append("X", 1)):
        with pytest.raises(ValidationError, match="belongs to a model"):
            add()
    assert ss.inputs.total == 3 == ss.B.shape[1]
    assert "X" not in ss.outputs and ss.outputs.total == ss.C.shape[0]
    copy = Ports.from_entries(ss.outputs.entries())
    copy.append("X", 1)
    assert copy.total == ss.outputs.total + 1


def test_sealed_registries_resolve_each_name_list_once():
    from qlin.core import PortLookupError

    ports = Ports([("W1", 2), ("W2", 2)])
    ports.alias("W1.P", 1, 1)
    assert ports._resolve(["W2", "W1.P"]).flags.writeable  # open: it may still grow
    StateSpaceModel(np.zeros((1, 1)), np.zeros((1, 4)), np.zeros((0, 1)), np.zeros((0, 4)),
                    ports, Ports())
    first = ports._resolve(["W2", "W1.P"])
    assert first.tolist() == [2, 3, 1] and not first.flags.writeable
    assert ports._resolve(("W2", "W1.P")) is first
    assert ports._resolve("W2") is ports._resolve(["W2"])
    with pytest.raises(PortLookupError, match="W3"):
        ports._resolve(["W1", "W3"])
    # the public indices stay a new, writable array on every call
    mine = ports.indices(["W2", "W1.P"])
    assert mine.flags.writeable and mine is not first
    mine += 1
    assert ports.indices(["W2", "W1.P"]).tolist() == [2, 3, 1]
    with pytest.raises(PortLookupError, match="W3"):
        ports.indices(["W1", "W3"])


def test_systems_with_equal_channel_labels_share_one_sealed_registry():
    # registries depend on the channel labels (and the force port) only, so
    # the realizations of one layout share them, sealed
    rng = np.random.default_rng(12)
    one, two = (random_system(rng, 2, 2, force=True) for _ in range(2))
    split = homodyne_split(2, "P")
    for a, b in ((one.to_state_space(), two.to_state_space()),
                 (one.to_state_space(split), two.to_state_space(split)),
                 (mf_type2_open_loop(sc.michelson(), homodyne_split(1, "Q"), homodyne_split(1, 0.3)),
                  mf_type2_open_loop(sc.michelson(sc.MichelsonParams(lam=2.0)),
                                     homodyne_split(1, "P"), homodyne_split(1, 1.0)))):
        assert a.inputs is b.inputs and a.outputs is b.outputs
        for add in (lambda: a.inputs.append("X", 1), lambda: a.outputs.alias("X", 0, 1)):
            with pytest.raises(ValidationError, match="belongs to a model"):
                add()
    # other labels or no force port: another layout
    relabelled = build_system(one.G, one.C, channels=["A", "B"], force=one.force)
    assert relabelled.to_state_space().inputs is not one.to_state_space().inputs
    assert build_system(one.G, one.C).to_state_space().inputs is not one.to_state_space().inputs
    # the "gw" extension is built once per sealed parent registry
    gw = [normalized_gw_signal(sys.to_state_space(), "W1.out.P", 1.0, 1.0).realization
          for sys in (one, two)]
    assert gw[0].outputs is gw[1].outputs
    assert gw[0].outputs.names == one.to_state_space().outputs.names + ("gw",)
    with pytest.raises(ValidationError, match="belongs to a model"):
        gw[0].outputs.append("X", 1)
    for _ in range(2):  # an extension that fails is not kept
        with pytest.raises(ValidationError, match="duplicate port name 'gw'"):
            normalized_gw_signal(gw[0], "W1.out.P", 1.0, 1.0)


def test_shared_raw_feedthrough_is_read_only():
    rng = np.random.default_rng(13)
    a, b = (random_system(rng, 2, 2, force=True).to_state_space() for _ in range(2))
    assert a.D is b.D
    assert np.array_equal(a.D, np.hstack([np.eye(4), np.zeros((4, 1))]))
    with pytest.raises(ValueError):
        a.D[0, 0] = 2.0
    # d() still hands out a fresh, writable copy
    block = a.d("W1.out", "W1")
    block[0, 0] = 2.0
    assert a.D[0, 0] == 1.0


def test_derived_realizations_match_the_checked_constructor():
    # the package's own realizations share their parent's arrays; each must
    # equal what the public, checking constructor makes of the same fields
    rng = np.random.default_rng(8)
    sys = random_system(rng, 2, 2, force=True)
    raw = sys.to_state_space()
    plant, mich = sc.optomech_reduced(), sc.michelson()
    models = [raw, sys.to_state_space(homodyne_split(2, [0.3, "Q"])),
              normalized_gw_signal(raw, "W1.out.P", 0.7, 1.3).realization,
              raw.similar(np.triu(np.ones((4, 4)))),
              mf_type1(plant, ClassicalController([[-1.0]], [[1.0]], C_K=[[0.5], [0.2]]),
                       homodyne_split(1, "P")),
              mf_type2(mich, ClassicalController([[-1.0]], [[1.0]], C_K1=[[0.5], [0.2]],
                                                 C_K2=[[0.1], [0.3]]),
                       homodyne_split(1, "P"), homodyne_split(1, "Q"))]
    for model in models:
        ref = StateSpaceModel(model.A, model.B, model.C, model.D, model.inputs, model.outputs)
        for name in "ABCD":
            assert np.array_equal(getattr(model, name), getattr(ref, name))
            assert not getattr(model, name).flags.writeable
    assert models[2].A is raw.A and models[2].B is raw.B and models[2].inputs is raw.inputs


def test_derive_checks_every_new_array_and_shares_the_rest():
    # the one check of the package's own realizations: a new (writable)
    # array is checked and frozen in place, a parent's array is shared
    raw = random_system(np.random.default_rng(9), 2, 2, force=True).to_state_space()
    for name in "ABCD":
        bad = np.array(getattr(raw, name))
        bad[0, 0] = np.inf
        with pytest.raises(ValidationError, match=f"^{name} contains non-finite entries"):
            StateSpaceModel._derive(raw, **{name: bad})
    C = np.array(raw.C)
    model = StateSpaceModel._derive(raw, C=C)
    assert model.C is C and not C.flags.writeable
    assert model.A is raw.A and model.B is raw.B and model.D is raw.D


def test_system_json_roundtrip():
    rng = np.random.default_rng(6)
    sys = random_system(rng, 2, 2, force=True)
    d = system_to_dict(sys)
    back = system_from_dict(d)
    assert np.array_equal(back.G, sys.G)
    assert np.array_equal(back.C, sys.C)
    assert np.array_equal(back.force, sys.force)
    assert back.channels == sys.channels
    assert back.mode_labels == sys.mode_labels


def test_system_json_rejects_nonfinite():
    d = {"modes": 1, "G": [[0.0, 0.0], [0.0, float("inf")]], "C": []}
    with pytest.raises(ValidationError):
        system_from_dict(d)


def test_a_stateless_realization_round_trips_through_json():
    # A = [] was read as 1 x 0 (one state), and the (0, 1) B had no shape
    # left in JSON: model_from_dict raised ShapeError
    from qlin.interconnect import direct_mf_controller
    from qlin.serialize import model_from_dict, model_to_dict

    ctl = direct_mf_controller(1.7, 0.0)
    doc = model_to_dict(ctl)
    assert (doc["A"], doc["B"], doc["C"]) == ([], [], [[]])
    back = model_from_dict(doc)
    for name in "ABCD":
        assert getattr(back, name).shape == getattr(ctl, name).shape
        assert getattr(back, name).tobytes() == getattr(ctl, name).tobytes()
    assert (back.inputs.entries(), back.outputs.entries()) == (ctl.inputs.entries(),
                                                               ctl.outputs.entries())


def test_a_zero_mode_system_round_trips_through_json():
    # its 2 x 0 C was read as 0 x 0, so its one channel had no rows
    sys = build_system(np.zeros((0, 0)), np.zeros((2, 0)), channels=[("W", "feedback")])
    assert (sys.n, sys.m) == (0, 1)
    back = system_from_dict(system_to_dict(sys))
    assert (back.G.shape, back.C.shape, back.channels) == ((0, 0), (2, 0), sys.channels)


def test_a_bare_empty_list_is_the_empty_matrix_of_the_shape_its_caller_fixes():
    from qlin.structural import controllable_subspace, range_space, reduce_pair

    model = StateSpaceModel([], [], [], [[2.0]], Ports([("y", 1)]), Ports([("u", 1)]))
    assert (model.A.shape, model.B.shape, model.C.shape, model.D.tolist()) == (
        (0, 0), (0, 1), (1, 0), [[2.0]])
    # with no shape fixed, [] has no rows and no columns
    assert range_space([]).ambient_dim == 0
    assert controllable_subspace([], []).dim == 0
    assert [M.shape for M in reduce_pair([], [], [])] == [(0, 0)] * 3
    assert build_system([], []).n == 0 and QuantumController([]).dim == 0
    # where the shape holds entries, an empty matrix is a ShapeError, not
    # a zero matrix put in its place
    with pytest.raises(ShapeError, match="^D must have 1 columns, got 0"):
        StateSpaceModel(-np.eye(1), [[1.0]], [[1.0]], [], Ports([("u", 1)]), Ports([("y", 1)]))
    with pytest.raises(ShapeError, match="^C must have 2 columns, got 0"):
        build_system(np.eye(2), np.zeros((0, 0)))


def test_the_empty_split_is_the_split_of_a_zero_channel_system():
    # M1 and M2 are read by the one rule: at m = 0 a bare [] is the 0 x 0
    # selector, which meets the split identities vacuously, so it is
    # accepted; homodyne_split still asks for a channel
    split = MeasurementSplit(0, [], [])
    assert split.M1.shape == split.M2.shape == (0, 0)
    model = build_system(np.eye(2), np.zeros((0, 2))).to_state_space(split)
    assert (model.B.shape, model.C.shape, model.D.shape) == ((2, 0), (0, 2), (0, 0))
    with pytest.raises(ShapeError):
        homodyne_split(0, "Q")


#: Valid arguments of each public constructor (and function) that reads a
#: matrix.
_VALID = {
    build_system: {"G": np.eye(2), "C": np.zeros((0, 2)), "force": [0.0, 1.0]},
    realizability_defect: {"A": np.zeros((2, 2)), "C": np.zeros((0, 2))},
    MeasurementSplit: {"m": 1, "M1": [[1.0, 0.0]], "M2": [[0.0, 1.0]]},
    StateSpaceModel: {"A": [[-1.0]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]],
                      "inputs": Ports([("u", 1)]), "outputs": Ports([("y", 1)])},
    ClassicalController: {"A_K": [[-1.0]], "B_K": [[1.0]], "C_K": [[1.0]], "C_K1": [[1.0]],
                          "C_K2": [[1.0]]},
    QuantumController: {"G_K": np.eye(2), "C1": np.eye(2), "C2": np.eye(2),
                        "C_K": np.eye(2), "S": [[0.0, 1.0], [-1.0, 0.0]]},
}


@pytest.mark.parametrize("bad", [[[1.0], [1.0, 2.0]], "abc", {"x": 1.0}],
                         ids=["ragged", "string", "object"])
@pytest.mark.parametrize("kind, field", [
    (kind, field) for kind, valid in _VALID.items() for field in valid
    if field not in ("m", "inputs", "outputs")], ids=lambda x: getattr(x, "__name__", x))
def test_a_field_that_is_not_a_numeric_matrix_is_a_validation_error_naming_it(kind, field,
                                                                                bad):
    # a ragged list leaked numpy's bare ValueError from build_system,
    # StateSpaceModel, MeasurementSplit and both controllers
    kind(**_VALID[kind])
    with pytest.raises(ValidationError, match=f"^{field} is not a numeric matrix"):
        kind(**{**_VALID[kind], field: bad})


def _sigma_from_scratch(n):
    return np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def _assert_sealed(arr, ref):
    assert not arr.flags.writeable
    assert np.isfinite(arr).all()
    assert arr.dtype == ref.dtype and arr.shape == ref.shape
    assert arr.tobytes() == ref.tobytes()


_entries = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), m=st.integers(1, 3), with_force=st.booleans(), data=st.data())
def test_every_held_array_is_sealed_and_equals_its_formula(n, m, with_force, data):
    # each array a system, its raw and split realizations and the "gw"
    # realization hold is read-only, finite and bitwise the formula of the
    # core module docstring, computed here from scratch; arrays validated
    # once are never checked again, so this pins what they hold
    from hypothesis.extra.numpy import arrays

    upper = data.draw(arrays(np.float64, (2 * n, 2 * n), elements=_entries))
    G = np.triu(upper) + np.triu(upper, 1).T
    C = data.draw(arrays(np.float64, (2 * m, 2 * n), elements=_entries))
    f = data.draw(arrays(np.float64, 2 * n, elements=_entries)) if with_force else None
    sys = build_system(G, C, force=f)
    Sn, Sm = _sigma_from_scratch(n), _sigma_from_scratch(m)
    A = Sn @ (G + C.T @ Sm @ C / 2.0)
    B = Sn @ C.T @ Sm
    for arr, ref in ((sys.G, (G + G.T) / 2.0), (sys.C, C), (sys.A, A), (sys.B, B)):
        _assert_sealed(arr, ref)
    if with_force:
        _assert_sealed(sys.force, f)

    raw = sys.to_state_space()
    Braw = np.concatenate((B, f[:, None]), axis=1) if with_force else B
    Draw = np.zeros((2 * m, Braw.shape[1]))
    Draw[:, :2 * m] = np.eye(2 * m)
    for arr, ref in zip((raw.A, raw.B, raw.C, raw.D), (A, Braw, C, Draw)):
        _assert_sealed(arr, ref)

    angles = data.draw(st.lists(st.floats(-np.pi, np.pi), min_size=m, max_size=m))
    split = homodyne_split(m, angles)
    M1, M2 = split.M1, split.M2
    model = sys.to_state_space(split)
    cols = [B @ M1.T, B @ M2.T] + ([f.reshape(-1, 1)] if with_force else [])
    Bsplit = np.hstack(cols)
    Dsplit = np.zeros((4 * m, Bsplit.shape[1]))
    Dsplit[:m, :m] = Dsplit[m:2 * m, m:2 * m] = np.eye(m)
    Dsplit[2 * m:, :m], Dsplit[2 * m:, m:2 * m] = M1.T, M2.T
    for arr, ref in zip((model.A, model.B, model.C, model.D),
                        (A, Bsplit, np.vstack([M1 @ C, M2 @ C, C]), Dsplit)):
        _assert_sealed(arr, ref)

    if with_force:
        lam, L = data.draw(st.floats(1e-3, 1e3)), data.draw(st.floats(1e-3, 1e3))
        gw = normalized_gw_signal(raw, "W1.out.P", lam, L).realization
        scale = 1.0 / (2.0 * np.sqrt(lam) * L)
        for arr, ref in zip((gw.A, gw.B, gw.C, gw.D),
                            (A, Braw, np.vstack([C, scale * C[1:2]]),
                             np.vstack([Draw, scale * Draw[1:2]]))):
            _assert_sealed(arr, ref)


def test_public_constructors_check_a_read_only_caller_array():
    # a read-only array counts as validated only inside the package: a
    # caller's read-only array that holds an inf is rejected as any other
    def frozen(arr, at):
        arr = np.array(arr, dtype=float)
        arr[at] = np.inf
        arr.setflags(write=False)
        return arr

    G, C, f = np.eye(2), np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.0, 1.0])
    for args, name in (((frozen(G, (0, 0)), C, None), "G"), ((G, frozen(C, (1, 0)), None), "C"),
                       ((G, C, frozen(f, 1)), "force")):
        with pytest.raises(ValidationError, match=f"^{name} contains non-finite entries"):
            build_system(args[0], args[1], force=args[2])
    arrays = [-np.eye(2), np.ones((2, 1)), np.ones((1, 2)), np.zeros((1, 1))]
    for k, name in enumerate("ABCD"):
        bad = list(arrays)
        bad[k] = frozen(bad[k], (0, 0))
        with pytest.raises(ValidationError, match=f"^{name} contains non-finite entries"):
            StateSpaceModel(*bad, Ports([("u", 1)]), Ports([("y", 1)]))
