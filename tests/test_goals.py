import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    planted_dfs_system,
    planted_qnd_system,
    random_orthogonal,
    random_symplectic,
    random_system,
)
from qlin import (
    Ports,
    StateSpaceModel,
    Subspace,
    ValidationError,
    build_system,
    check_bae,
    find_dfs,
    find_qnd,
    homodyne_split,
    principal_angles,
    span_of,
    transfer_zero_equivalence,
)
from qlin import goals, structural
from qlin import scenarios as sc
from qlin.nogo import random_orthosymplectic
from qlin.xfer import TransferFunction, evaluate


def split_model(sys, selector="P"):
    return sys.to_state_space(homodyne_split(sys.m, selector))


def test_bae_fails_for_reduced_optomech():
    m_, lam = 1.0, 1.0
    model = split_model(sc.optomech_reduced(m=m_, omega=1.0, lam=lam))
    v = check_bae(model, "P", "y")
    assert not v.achieved
    assert v.method_agreement
    R = 2.0 * np.linalg.norm(model.A) + 1.0  # the probe radius
    assert np.isclose(v.residual, lam / (m_ * R ** 2))  # the scaled k=1 Markov term


def test_bae_achieved_for_tsang_caves():
    model = sc.tsang_caves_loop().to_state_space()
    v = check_bae(model, "W.Q", "W.out.P")
    assert v.achieved
    assert v.method_agreement
    assert v.residual < 1e-10
    assert v.witnesses == ()


def test_bae_overlap_is_the_controllable_and_observable_part():
    # ctrl = span(1, 1) meets obs = span(1, 0) only in 0, yet CB = 1
    model = StateSpaceModel(-np.eye(2), np.ones((2, 1)), np.array([[1.0, 0.0]]),
                            np.zeros((1, 1)), Ports([("u", 1)]), Ports([("y", 1)]))
    v = check_bae(model, "u", "y")
    assert not v.achieved
    assert v.method_agreement
    assert v.dims["overlap"] == 1


def test_bae_of_a_static_gain():
    # a stateless model raised numpy's ValueError in the probe's reshape;
    # u = sqrt(2) y sees y through the feedthrough alone
    from qlin.interconnect import direct_mf_controller

    v = check_bae(direct_mf_controller(2.0, 0.0), "y", "u")
    assert (v.achieved, v.method_agreement, v.residual) == (False, True, np.sqrt(2.0))
    zero = StateSpaceModel([], [], [], [[0.0]], Ports([("y", 1)]), Ports([("u", 1)]))
    assert check_bae(zero, "y", "u").achieved and check_bae(zero, "y", "u").method_agreement


def test_bae_trivial_for_uncoupled_plant():
    sys = build_system(np.diag([1.0, 1.0]), np.zeros((2, 2)))
    model = split_model(sys)
    v = check_bae(model, "P", "y")
    assert v.achieved
    assert v.method_agreement


def test_qnd_atomic_ensemble_witness():
    model = split_model(sc.atomic_ensemble_linear(1.0), "Q")
    v = find_qnd(model, ["Q", "P"], "y")
    assert v.achieved and v.method_agreement
    assert len(v.witnesses) == 1
    assert np.allclose(v.witnesses[0], [0.0, 1.0], atol=1e-14)


def test_qnd_absent_for_reduced_optomech():
    model = split_model(sc.optomech_reduced())
    v = find_qnd(model, ["Q", "P"], "y")
    assert not v.achieved
    assert v.method_agreement
    assert v.residual > v.tolerance


def test_qnd_tsang_caves_pair():
    model = sc.tsang_caves_loop().to_state_space()
    v = find_qnd(model, ["W"], "W.out.P")
    assert v.achieved and v.method_agreement
    assert len(v.witnesses) == 2
    ref = span_of(np.array([[0, -1, 0, 0, 0, 1], [1, 0, 0, 0, 1, 0]], float).T)
    got = span_of(np.column_stack(v.witnesses))
    assert np.max(principal_angles(ref, got)) < 1e-8


def test_missed_witnesses_are_flagged(monkeypatch):
    # cut far below rounding, the witness test misses the Tsang-Caves QND
    # pair; the probe finds the least-reached candidate direction undriven
    model = sc.tsang_caves_loop().to_state_space()
    monkeypatch.setattr(goals, "INTERSECT_RTOL", 1e-300)
    v = find_qnd(model, ["W"], "W.out.P")
    assert not v.achieved
    assert not v.method_agreement


def test_spurious_witnesses_are_flagged(monkeypatch):
    # cut far above rounding, driven directions pass as DFS witnesses; the
    # probe sees the noise reach them
    model = sc.lambda_memory(1.0, 0.5, 1.0).to_state_space()
    monkeypatch.setattr(goals, "INTERSECT_RTOL", 0.5)
    v = find_dfs(model, ["A"], ["A.out"])
    assert v.achieved
    assert not v.method_agreement


@pytest.mark.parametrize("base", [float("nan"), float("inf"), -1.0, 0.0])
def test_bad_base_is_rejected(base):
    loop = sc.tsang_caves_loop().to_state_space()
    memory = sc.lambda_memory(1.0, 0.5, 1.0).to_state_space()
    for run in (lambda: check_bae(loop, "W.Q", "W.out.P", base=base),
                lambda: find_qnd(loop, ["W"], "W.out.P", base=base),
                lambda: find_dfs(memory, ["A"], ["A.out"], base=base),
                lambda: transfer_zero_equivalence(loop, "W.Q", "W.out.P", base=base)):
        with pytest.raises(ValidationError, match="base must be a finite positive"):
            run()



@pytest.mark.parametrize("base", [2.0, 1e200])
def test_base_above_one_is_rejected(base):
    # a base of 1 already calls every probe zero, and a larger one could
    # overflow a threshold to inf
    loop = sc.tsang_caves_loop().to_state_space()
    for run in (lambda b: check_bae(loop, "W.Q", "W.out.P", base=b),
                lambda b: find_qnd(loop, ["W"], "W.out.P", base=b),
                lambda b: transfer_zero_equivalence(loop, "W.Q", "W.out.P", base=b)):
        with pytest.raises(ValidationError, match="base must be a finite positive number at most 1"):
            run(base)
        run(1.0)  # the bound itself is a base
    assert goals.checked_base(1) == 1.0

def test_dfs_memory_spin_wave():
    model = sc.lambda_memory(1.0, 0.5, 1.0).to_state_space()
    v = find_dfs(model, ["A"], ["A.out"])
    assert v.achieved and v.method_agreement
    assert len(v.witnesses) == 2
    ref = span_of(np.eye(6)[:, 4:])
    assert np.max(principal_angles(ref, span_of(np.column_stack(v.witnesses)))) < 1e-8


def test_dfs_absent_for_lossy_cavity():
    model = sc.two_port_cavity(1.0, 1.0).to_state_space()
    v = find_dfs(model, ["W1", "W2"], ["W1.out", "W2.out"])
    assert not v.achieved
    assert v.method_agreement


def test_dfs_witnesses_are_uncontrollable_and_dynamically_closed():
    from qlin.structural import controllability_matrix

    model = sc.lambda_memory(1.0, 0.7, 1.2).to_state_space()
    v = find_dfs(model, ["A"], ["A.out"])
    ctrb = controllability_matrix(model, "A")
    W = np.column_stack(v.witnesses)
    assert np.max(np.abs(W.T @ ctrb)) < 1e-10
    # A maps the witness span into itself
    AW = model.A @ W
    resid = AW - W @ (W.T @ AW)
    assert np.max(np.abs(resid)) <= 1e-10 * max(1.0, np.linalg.norm(model.A))


def test_restrict_to_masks_witnesses():
    model = sc.lambda_memory(1.0, 0.5, 1.0).to_state_space()
    # restricting to the field-coupled block removes the DFS
    block = Subspace(6, np.eye(6)[:, :4])
    v = find_dfs(model, ["A"], ["A.out"], restrict_to=block)
    assert not v.achieved


def test_transfer_zero_equivalence_reduced_optomech():
    m_, w_, lam = 1.0, 1.0, 1.0
    model = split_model(sc.optomech_reduced(m=m_, omega=w_, lam=lam))
    assert transfer_zero_equivalence(model, "P", "y")
    # the path really is live: Xi_{BA->y}(1) = -lam/(m (1 + w^2)) via the
    # oscillator response, up to the conjugate-selector sign
    val = evaluate(TransferFunction(model, "P", "y"), 1.0)[0, 0]
    assert np.isclose(abs(val), lam / (m_ * (1 + w_ ** 2)))


def test_transfer_zero_equivalence_on_achieved_case():
    model = sc.tsang_caves_loop().to_state_space()
    assert transfer_zero_equivalence(model, "W.Q", "W.out.P")


def test_bae_invariant_under_conjugate_reblocking():
    rng = np.random.default_rng(21)
    from qlin import augment_with_vacuum

    cases = []
    # achieved case: BAE loop padded with a vacuum channel
    loop = augment_with_vacuum(sc.tsang_caves_loop(), 1)
    cases.append((split_model(loop), True))
    # failing case: the bare interferometer
    cases.append((split_model(sc.michelson()), False))
    for model, expect in cases:
        base = check_bae(model, "P", "y")
        assert base.achieved is expect
        m = model.inputs.width("P")
        S = random_orthogonal(rng, m)
        idx = model.inputs.indices("P")
        B2 = np.array(model.B)
        B2[:, idx] = model.B[:, idx] @ S.T
        D2 = np.array(model.D)
        D2[:, idx] = model.D[:, idx] @ S.T
        reblocked = StateSpaceModel(model.A, B2, model.C, D2,
                                    model.inputs, model.outputs)
        again = check_bae(reblocked, "P", "y")
        assert again.achieved is expect
        assert again.method_agreement


def test_qnd_witness_subspace_invariant_under_symplectic_similarity():
    # dual vectors map by T^T for both QND legs, so any symplectic works
    rng = np.random.default_rng(22)
    model = sc.tsang_caves_loop().to_state_space()
    T = random_symplectic(rng, 3)
    sim = model.similar(T)
    v0 = find_qnd(model, ["W"], "W.out.P")
    v1 = find_qnd(sim, ["W"], "W.out.P")
    assert v1.achieved and len(v1.witnesses) == len(v0.witnesses)
    mapped = span_of(T.T @ np.column_stack(v0.witnesses))
    got = span_of(np.column_stack(v1.witnesses))
    assert np.max(principal_angles(mapped, got)) < 1e-8


def test_dfs_witness_subspace_invariant_under_orthosymplectic_similarity():
    # the unobservability leg transforms by T^{-1}, not T^T, so the Ker/Ker
    # intersection is frame-aligned only when T is also orthogonal
    from qlin.nogo import random_orthosymplectic

    rng = np.random.default_rng(22)
    mem = sc.lambda_memory(1.0, 0.5, 1.0).to_state_space()
    Tm = random_orthosymplectic(rng, 3)
    d0 = find_dfs(mem, ["A"], ["A.out"])
    d1 = find_dfs(mem.similar(Tm), ["A"], ["A.out"])
    assert d1.achieved and len(d1.witnesses) == len(d0.witnesses)
    mapped = span_of(Tm.T @ np.column_stack(d0.witnesses))
    assert np.max(principal_angles(mapped, span_of(np.column_stack(d1.witnesses)))) < 1e-8


def test_method_agreement_on_scenario_suite():
    checks = []
    m1 = split_model(sc.optomech_reduced())
    checks += [check_bae(m1, "P", "y"), find_qnd(m1, ["Q", "P"], "y"),
               find_dfs(m1, ["Q", "P"], "Wout")]
    m2 = sc.tsang_caves_loop().to_state_space()
    checks += [check_bae(m2, "W.Q", "W.out.P"), find_qnd(m2, ["W"], "W.out.P"),
               find_dfs(m2, ["W"], "W.out")]
    m3 = sc.lambda_memory(1.0, 0.5, 1.0).to_state_space()
    checks += [find_dfs(m3, ["A"], ["A.out"]), find_qnd(m3, ["A"], "A.out.Q")]
    m4 = split_model(sc.michelson())
    checks += [check_bae(m4, "P", "y"), find_qnd(m4, ["Q", "P"], "y"),
               find_dfs(m4, ["Q", "P"], "Wout")]
    assert all(v.method_agreement for v in checks)


def random_mixed_system(rng):
    kind = rng.random()
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 4))
    if kind < 0.7:
        return random_system(rng, n, m)
    if kind < 0.85:
        return planted_dfs_system(rng, n, m)
    return planted_qnd_system(rng, n, m)


def test_fuzz_route_agreement():
    rng = np.random.default_rng(23)
    for _ in range(200):
        sys = random_mixed_system(rng)
        model = sys.to_state_space(homodyne_split(sys.m, "P"))
        verdicts = [
            check_bae(model, "P", "y"),
            find_qnd(model, ["Q", "P"], "y"),
            find_dfs(model, ["Q", "P"], "Wout"),
        ]
        assert all(v.method_agreement for v in verdicts)
        assert transfer_zero_equivalence(model, "P", "y")


# Two-channel systems of N states: (BAE achieved, QND witnesses, DFS witnesses).
SCALING_EXPECTED = {"dense": (False, 0, 0), "dfs": (False, 0, 2), "qnd": (True, 1, 0)}


def scaling_system(kind, N, seed):
    rng = np.random.default_rng([seed, N])
    if kind == "dense":
        return random_system(rng, N // 2, 2)
    if kind == "dfs":
        return planted_dfs_system(rng, N // 2 - 1, 2)
    return planted_qnd_system(rng, N // 2 - 1, 2)


def scaling_verdict(model, kind, goal):
    # the planted QND mode is read through W2's Q quadrature, so its momentum
    # is a QND variable and W2.P -> W2.out.Q evades back-action
    noise, fields = ["W1", "W2"], ["W1.out", "W2.out"]
    ch = "W2" if kind == "qnd" else "W1"
    if goal == "bae":
        return check_bae(model, ch + ".P", ch + ".out.Q")
    if goal == "qnd":
        return find_qnd(model, noise, "W2.out.Q" if kind == "qnd" else fields)
    return find_dfs(model, noise, fields)


@pytest.mark.parametrize("N", [16, 24, 32])
def test_verdicts_stay_right_as_systems_grow(N):
    for seed in range(3):
        for kind, expected in SCALING_EXPECTED.items():
            model = scaling_system(kind, N, seed).to_state_space()
            bae, qnd, dfs = (scaling_verdict(model, kind, g) for g in ("bae", "qnd", "dfs"))
            assert (bae.achieved, len(qnd.witnesses), len(dfs.witnesses)) == expected, \
                (kind, seed)
            assert bae.method_agreement and qnd.method_agreement and dfs.method_agreement


@settings(max_examples=12, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), modes=st.integers(2, 16),
       kind=st.sampled_from(sorted(SCALING_EXPECTED)))
def test_verdicts_invariant_under_change_of_coordinates(seed, modes, kind):
    # BAE and QND are invariant under any similarity, so a symplectic one
    # serves; the DFS intersection needs an orthogonal (orthosymplectic) one
    rng = np.random.default_rng(seed)
    model = scaling_system(kind, 2 * modes, seed).to_state_space()
    frames = {"bae": random_symplectic(rng, modes), "qnd": random_symplectic(rng, modes),
              "dfs": random_orthosymplectic(rng, modes)}
    for goal, T in frames.items():
        v0 = scaling_verdict(model, kind, goal)
        v1 = scaling_verdict(model.similar(T), kind, goal)
        assert v0.method_agreement and v1.method_agreement
        assert (v1.achieved, len(v1.witnesses), v1.dims.get("overlap")) == \
            (v0.achieved, len(v0.witnesses), v0.dims.get("overlap")), goal


def same_verdict(a, b):
    return ((a.goal, a.achieved, a.residual, a.tolerance, a.dims, a.method_agreement)
            == (b.goal, b.achieved, b.residual, b.tolerance, b.dims, b.method_agreement)
            and len(a.witnesses) == len(b.witnesses)
            and all(np.array_equal(x, y) for x, y in zip(a.witnesses, b.witnesses)))


def memo_cases():
    """(fresh-model factory, verdicts): the scenario suite, then 20 seeded
    dense and planted 2-channel systems of N = 4..32."""
    m1 = lambda: split_model(sc.optomech_reduced())  # noqa: E731
    yield m1, [(check_bae, "P", "y"), (find_qnd, ["Q", "P"], "y"),
               (find_dfs, ["Q", "P"], "Wout"), (find_dfs, ["Q", "P"], ["y", "ybar"])]
    m2 = sc.tsang_caves_loop().to_state_space
    yield m2, [(check_bae, "W.Q", "W.out.P"), (find_qnd, ["W"], "W.out.P"),
               (check_bae, "W.P", "W.out.P"), (find_dfs, ["W"], "W.out"),
               (check_bae, "W", "W.out"),
               (find_qnd, ["W.Q", "W.P"], ["W.out.Q", "W.out.P"])]
    m3 = sc.lambda_memory(1.0, 0.5, 1.0).to_state_space
    yield m3, [(find_dfs, ["A"], ["A.out"]), (find_qnd, ["A"], "A.out.Q"),
               (check_bae, "A.P", "A.out.Q")]
    m4 = lambda: split_model(sc.michelson())  # noqa: E731
    yield m4, [(check_bae, "P", "y"), (find_qnd, ["Q", "P"], "y"),
               (find_dfs, ["Q", "P"], "Wout")]
    for seed in range(20):
        kind = sorted(SCALING_EXPECTED)[seed % 3]
        N = 4 * (1 + seed % 8)
        system = scaling_system(kind, N, seed)
        # an output row and an input column with the same index: the
        # observable subspace of W1.out.P is memoised before the
        # controllable subspace of W1.P
        yield system.to_state_space, [
            (find_qnd, ["W1", "W2"], "W1.out.P"), (check_bae, "W1.P", "W1.out.P"),
            (check_bae, "W1.P", "W1.out.Q"), (check_bae, "W2.P", "W2.out.Q"),
            (check_bae, "W1", "W2.out"), (find_qnd, ["W1", "W2"], "W2.out.Q"),
            (find_qnd, ["W1", "W2"], ["W1.out", "W2.out"]),
            (find_dfs, ["W1", "W2"], ["W1.out", "W2.out"]), (find_dfs, "W1", "W1.out")]


def test_bae_residual_is_in_probe_units():
    # the residual is the scaled Markov term |C A^k B| / R^(k+1) with
    # R = 2 |A|_F + 1, so it stays finite: unscaled, G entries of order 100
    # at N = 128 overflowed (6.3e305 and RuntimeWarnings)
    strong = random_system(np.random.default_rng(5), 64, 2)
    large = [build_system(100.0 * strong.G, strong.C, channels=strong.channels),
             random_system(np.random.default_rng(128), 64, 2)]  # as bench's dense_system
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for system in large:
            assert np.isfinite(check_bae(system.to_state_space(), "W1.P", "W1.out.Q").residual)
    # each term is at most |B|_F |C|_F / R, the probe bound of C (sI - A)^{-1} B
    cases = list(memo_cases())
    for build, defaults in sc.SCENARIOS.values():
        model = build(**defaults).to_state_space()
        cases.append((lambda model=model: model, [
            (check_bae, i, o) for i in model.inputs.names for o in model.outputs.names]))
    for fresh, verdicts in cases:
        model = fresh()
        for engine, i, o in (v for v in verdicts if v[0] is check_bae):
            B, C, D = model.b(i), model.c(o), model.d(o, i)
            bound = max(np.linalg.norm(B) * np.linalg.norm(C) / (2 * np.linalg.norm(model.A) + 1),
                        np.max(np.abs(D)))
            assert check_bae(model, i, o).residual <= bound, (i, o)


def test_probe_points_are_drawn_once():
    from qlin.core import _frobenius

    units = np.exp(2j * np.pi * np.random.default_rng(goals.PROBE_SEED).random(goals.PROBE_COUNT))
    assert np.array_equal(goals._probe_units(), units)
    assert goals._probe_units() is goals._probe_units()
    assert not goals._probe_units().flags.writeable
    # a probe is the same as one that draws its points afresh
    model = scaling_system("dense", 8, 1).to_state_space()
    left, right = model.c("W2.out"), model.b("W1")
    nA = np.array([np.linalg.norm(model.A)])  # the norms of a stack of one
    s = (2.0 * nA[0] + 1.0) * units
    X = np.linalg.solve(s[:, None, None] * np.eye(model.nstates) - model.A,
                        np.broadcast_to(right, (goals.PROBE_COUNT,) + right.shape))
    # one model is a stack of one, and _probe returns one result per member
    [(_, (worst, tol))] = goals._probe(model.A[None], True, [(left[None], right[None])], [],
                                       1e-9, nA)
    assert worst == float(np.max(np.abs(left @ X)))
    assert [tol] == structural._threshold(1e-9, _frobenius(left[None]),
                                          _frobenius(right[None]), nA).tolist()


def test_memo_changes_no_verdict():
    for fresh, verdicts in memo_cases():
        shared = fresh()
        for engine, *ports in verdicts + verdicts[::-1]:
            assert same_verdict(engine(shared, *ports), engine(fresh(), *ports)), \
                (engine.__name__, ports)
        for engine, *ports in verdicts:
            if engine is check_bae:
                assert transfer_zero_equivalence(shared, *ports) == \
                    transfer_zero_equivalence(fresh(), *ports)


def test_memo_keys_resolved_indices():
    model = scaling_system("dense", 8, 1).to_state_space()
    memo = model._memo
    whole = check_bae(model, "W1", "W2.out")
    assert len(memo) == 3  # W1, W2.out and their reduced pair
    split = check_bae(model, ["W1.Q", "W1.P"], ["W2.out.Q", "W2.out.P"])
    assert len(memo) == 3
    assert same_verdict(whole, split)
    assert structural._subspaces([model], "in", "W1")[0] is \
        structural._subspaces([model], "in", ["W1.Q", "W1.P"])[0]
    # another column order is another staircase
    structural._subspaces([model], "in", ["W1.P", "W1.Q"])
    assert len(memo) == 4
    with pytest.raises(ValueError):
        structural._reduced_pair(model, "W1", "W2.out")[0][0, 0] = 1.0


def test_one_model_is_a_stack_of_one_view(monkeypatch):
    # the engines take only stacks: one model's drift enters as the view
    # A[None] of its own matrix, not as a copy
    seen = []

    def record(owner, name):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda A, *args: seen.append((name, A)) or fn(A, *args))

    record(structural, "_staircase")
    record(goals, "_probe")
    for engine, ports in ((check_bae, ("W1", "W2.out")), (find_qnd, (["W1", "W2"], "W1.out"))):
        model = scaling_system("dense", 8, 1).to_state_space()
        seen.clear()
        engine(model, *ports)
        names = [name for name, _ in seen]
        assert names[0] == "_staircase" and "_probe" in names, engine.__name__
        assert all(A.ndim == 3 and len(A) == 1 for _, A in seen), engine.__name__
        assert np.shares_memory(seen[0][1], model.A)
        assert all(np.shares_memory(A, model.A) for name, A in seen if name == "_probe")


def wide_model(A, B, C):
    return StateSpaceModel(A, B, C, np.zeros((C.shape[0], B.shape[1])),
                           Ports([("W", B.shape[1])]), Ports([("Y", C.shape[0])]))


def test_candidate_spaces_wider_than_the_drive_keep_their_verdicts():
    # drive = [B, A Q] (QND) or [B, A Q, C^T, A^T Q] (DFS) has fewer columns
    # than the candidate space, so the witness SVD has fewer singular values
    # than candidate directions: the large-witness cases
    chain = wide_model(np.eye(3, k=1), np.eye(3)[:, :1], np.eye(3)[:1])
    qnd = find_qnd(chain, "W", "Y")
    assert (qnd.achieved, qnd.method_agreement, qnd.residual) == (True, True, 0.0)
    assert qnd.dims == {"witness": 2, "uncontrollable": 2, "observable": 3}
    assert [w.tolist() for w in qnd.witnesses] == [[0, 1, 0], [0, 0, 1]]
    assert qnd.tolerance == pytest.approx(1e-9 * np.sqrt(2) / (np.sqrt(2) + 1), rel=1e-12)
    flat = wide_model(np.zeros((5, 5)), np.eye(5)[:, :1], np.eye(5)[:1])
    dfs = find_dfs(flat, "W", "Y")
    assert (dfs.achieved, dfs.method_agreement, dfs.residual) == (True, True, 0.0)
    assert dfs.dims == {"witness": 4, "uncontrollable": 4, "unobservable": 4}
    assert sorted(np.flatnonzero(w).item() for w in dfs.witnesses) == [1, 2, 3, 4]
    assert dfs.tolerance == 2e-9  # base |W|_F |B|_F / (|A|_F + 1), |W|_F = 2
    # in a stack, beside a member with a wide drive and none
    tall = wide_model(np.eye(3, k=1), np.eye(3)[:, 2:], np.eye(3)[:1])
    models = [chain, tall, wide_model(2.0 * np.eye(3, k=1), np.eye(3)[:, :1], np.eye(3)[:1])]
    for v, model in zip(goals._verdict("QND", models, "W", "Y", None, 1e-9), models):
        assert same_verdict(v, find_qnd(wide_model(model.A, model.B, model.C), "W", "Y"))
    assert not find_qnd(tall, "W", "Y").achieved


def test_stacked_restricted_verdicts_equal_one_at_a_time():
    # QND restricted to a block intersects each observable subspace with it
    # once per group of equal observable dimensions: observable dimensions 3
    # and 1 side by side, an empty intersection (span(e3) with span(e1, e2)),
    # and a drive [B, A Q] of 2 columns beside a candidate space of 3
    shift = np.eye(3, k=1)
    models = [wide_model(shift, np.eye(3)[:, :1], np.eye(3)[:1]),
              wide_model(shift, np.eye(3)[:, 2:], np.eye(3)[:1]),
              wide_model(shift, np.eye(3)[:, :1], np.eye(3)[2:]),
              wide_model(2.0 * shift, np.eye(3)[:, :1], np.eye(3)[:1]),
              wide_model(shift, np.eye(3)[:, 1:2], np.eye(3)[2:])]
    seen = set()
    for restrict in (Subspace(3, np.eye(3)), Subspace(3, np.eye(3)[:, :2])):
        fresh = [wide_model(m.A, m.B, m.C) for m in models]
        for v, model in zip(goals._verdict("QND", fresh, "W", "Y", restrict, 1e-9), models):
            one = find_qnd(wide_model(model.A, model.B, model.C), "W", "Y", restrict_to=restrict)
            assert same_verdict(v, one)
            seen.add((v.dims["observable"], v.dims["witness"], v.achieved))
    assert {(3, 2, True), (1, 0, False), (3, 0, False)} <= seen


def test_stacked_bae_verdicts_equal_check_bae():
    # one _verdict("BAE", ...) of a stack gives each member the verdict
    # check_bae gives it alone: an achieving loop beside two that fail
    noise = np.random.default_rng(8).normal(size=(6, 6))

    def fresh():
        loop = sc.tsang_caves_loop()
        return [build_system(loop.G + scale * (noise + noise.T), loop.C,
                             channels=loop.channels).to_state_space()
                for scale in (0.0, 1e-3, 1.0)]

    achieved = {}
    for ports in (("W.Q", "W.out.P"), ("W", "W.out")):
        stacked = goals._verdict("BAE", fresh(), *ports, None, goals.DEFAULT_RESIDUAL_BASE)
        alone = [check_bae(model, *ports) for model in fresh()]
        assert len(stacked) == 3 and all(map(same_verdict, stacked, alone)), ports
        achieved[ports] = [v.achieved for v in stacked]
    assert achieved == {("W.Q", "W.out.P"): [True, False, False], ("W", "W.out"): [False] * 3}
