import dataclasses
import json
from collections import Counter

import numpy as np
import pytest

from qlin import MeasurementSplit, ValidationError, check_bae, find_dfs, find_qnd, homodyne_split
from qlin import scenarios as sc
from qlin.interconnect import mf_type1, mf_type2, mf_type2_open_loop
from qlin.structural import Subspace
from qlin.nogo import (
    THEOREM_INDEX,
    random_orthosymplectic,
    random_split,
    sample_classical_controller,
    verify_nogo,
)


def test_theorem_index_complete():
    assert set(THEOREM_INDEX.values()) == {1, 2, 3, 4, 5, 6}


def test_random_orthosymplectic_properties():
    rng = np.random.default_rng(50)
    from qlin import sigma

    for m in (1, 2, 3):
        O = random_orthosymplectic(rng, m)
        assert np.allclose(O.T @ O, np.eye(2 * m), atol=1e-12)
        assert np.allclose(O @ sigma(m) @ O.T, sigma(m), atol=1e-12)


def test_random_split_is_valid():
    rng = np.random.default_rng(51)
    split = random_split(rng, 3)  # constructor validates the identities
    assert split.M1.shape == (3, 6)


def test_sample_controller_zero_dim_and_determinism():
    plant = sc.optomech_reduced()
    rng = np.random.default_rng(52)
    ctrl = sample_classical_controller(rng, plant, "mf1", [0])
    assert ctrl.dim == 0
    assert ctrl.B_K.shape == (0, 1)
    assert ctrl.C_K.shape == (2, 0)
    a = sample_classical_controller(np.random.default_rng(99), plant, "mf1", range(5))
    b = sample_classical_controller(np.random.default_rng(99), plant, "mf1", range(5))
    assert np.array_equal(a.A_K, b.A_K)
    assert np.array_equal(a.B_K, b.B_K)
    assert np.array_equal(a.C_K, b.C_K)


def test_sampled_controllers_are_stable_and_loops_build():
    plant = sc.michelson()
    rng = np.random.default_rng(53)
    for _ in range(1000):
        ctrl = sample_classical_controller(rng, plant, "mf2", range(0, 11))
        if ctrl.dim:
            assert np.max(np.linalg.eigvals(ctrl.A_K).real) < 0
        loop = mf_type2(plant, ctrl, random_split(rng, 1), random_split(rng, 1))
        assert loop.nstates == 4 + ctrl.dim


def test_verify_nogo_deterministic():
    plant = sc.optomech_reduced()
    r1 = verify_nogo(plant, "qnd", "mf1", trials=40, seed=11)
    r2 = verify_nogo(plant, "qnd", "mf1", trials=40, seed=11)
    assert r1 == r2
    r3 = verify_nogo(plant, "qnd", "mf1", trials=40, seed=12)
    assert r3.worst_residual_gap != r1.worst_residual_gap


def test_verify_nogo_small_runs_clean():
    combos = [
        (sc.optomech_reduced(), "bae", "mf1", 60, 3),
        (sc.optomech_reduced(), "qnd", "mf1", 60, 3),
        (sc.optomech_reduced(), "dfs", "mf1", 60, 3),
        (sc.michelson(), "bae", "mf2", 60, 3),
        (sc.michelson(), "qnd", "mf2", 60, 3),
        (sc.michelson(), "dfs", "mf2", 60, 3),
        # a weakly live path (Markov 1e-8) and a Markov residual under an
        # exponential threshold once split the BAE routes on these seeds
        (sc.optomech_reduced(), "bae", "mf1", 20, 3149220904),
        (sc.michelson(), "bae", "mf2", 20, 2634757919),
    ]
    for plant, goal, scheme, trials, seed in combos:
        r = verify_nogo(plant, goal, scheme, trials=trials, seed=seed)
        assert r.theorem == THEOREM_INDEX[(scheme, goal)]
        assert r.violations == 0
        assert r.disagreements == 0
        assert r.worst_residual_gap > 0
        assert r.near_tolerance == 0  # no near-misses counted as silent passes


def test_verify_nogo_assembles_one_loop_per_trial(monkeypatch):
    import qlin.nogo as nogo

    calls = []
    for name in ("mf_type1", "mf_type2"):
        def counted(*args, _assemble=getattr(nogo, name), **kwargs):
            calls.append(1)
            return _assemble(*args, **kwargs)
        monkeypatch.setattr(nogo, name, counted)
    for plant, scheme in ((sc.optomech_reduced(), "mf1"), (sc.michelson(), "mf2")):
        calls.clear()
        verify_nogo(plant, "qnd", scheme, trials=7, seed=4)
        assert len(calls) == 7


def test_verify_nogo_counts_violations_skips_and_near_misses(monkeypatch):
    import qlin.nogo as nogo

    plant = sc.optomech_reduced()
    # the pre-check, then the bare plant of each trial whose loop achieves
    bare = iter([False, True, False, True, False])

    def loops_achieve(model, *args, **kwargs):
        v = check_bae(model, *args, **kwargs)
        closed = model.nstates > 2 * plant.n
        return dataclasses.replace(v, achieved=closed or next(bare))

    monkeypatch.setattr(nogo, "check_bae", loops_achieve)
    r = verify_nogo(plant, "bae", "mf1", trials=4, seed=0, controller_dim_range=[1])
    assert (r.violations, r.hypothesis_skips, r.near_tolerance) == (2, 2, 0)
    assert r.worst_residual_gap == np.inf
    assert r.to_dict()["worst_residual_gap"] is None

    def near_misses(model, *args, **kwargs):
        v = check_bae(model, *args, **kwargs)
        return dataclasses.replace(v, residual=5.0 * v.tolerance)

    monkeypatch.setattr(nogo, "check_bae", near_misses)
    r = verify_nogo(plant, "bae", "mf1", trials=4, seed=0, controller_dim_range=[1])
    assert (r.violations, r.hypothesis_skips, r.near_tolerance) == (0, 0, 4)
    assert 0 < r.worst_residual_gap < np.inf


def test_type2_bae_is_one_joint_zero_transfer():
    # Theorem 4's condition Xi_{z <- (W1, P2)} = 0 checked once equals the
    # two column blocks checked apart
    plant = sc.michelson()
    rng = np.random.default_rng(20240811)
    for _ in range(60):
        ctrl = sample_classical_controller(rng, plant, "mf2", range(0, 11))
        loop = mf_type2(plant, ctrl, random_split(rng, 1), random_split(rng, 1))
        joint = check_bae(loop, ["W1", "P2"], "z")
        fb, ba = check_bae(loop, "W1", "z"), check_bae(loop, "P2", "z")
        assert joint.achieved == (fb.achieved and ba.achieved)
        assert joint.method_agreement == (fb.method_agreement and ba.method_agreement)
        assert joint.residual == pytest.approx(max(fb.residual, ba.residual), rel=1e-12)


def test_verify_nogo_rejects_achieving_plant():
    loop = sc.tsang_caves_loop()
    with pytest.raises(ValidationError):
        verify_nogo(loop, "bae", "mf1", trials=5, seed=0)


def test_verify_nogo_rejects_unknown_goal():
    with pytest.raises(ValidationError):
        verify_nogo(sc.optomech_reduced(), "cooling", "mf1", trials=1, seed=0)


def test_zero_trials_report():
    r = verify_nogo(sc.optomech_reduced(), "bae", "mf1", trials=0, seed=0)
    assert r.violations == 0
    assert r.trials == 0
    none = {"violations": 0, "worst_residual_gap": None, "near_tolerance": 0,
            "disagreements": 0, "hypothesis_skips": 0, "residual_base": 1e-9}
    assert r.to_dict() == {"theorem": 1, "plant_id": "1modes/1ch", "goal": "bae",
                           "scheme": "mf1", "trials": 0, "seed": 0,
                           "controller_dim_range": [0, 1, 2, 3, 4], **none}
    r = verify_nogo(sc.michelson(), "dfs", "mf2", trials=0, seed=7)
    assert r.to_dict() == {"theorem": 6, "plant_id": "2modes/2ch", "goal": "dfs",
                           "scheme": "mf2", "trials": 0, "seed": 7,
                           "controller_dim_range": [0, 1, 2, 3, 4, 5, 6], **none}


def _reference_report(plant, goal, scheme, trials, seed):
    """verify_nogo's report from one trial at a time: its stream draws the
    trial's splits with the public random_split, then its controller."""
    ports = {("mf1", "bae"): ("P", "y"), ("mf1", "qnd"): (["Q", "P"], "y"),
             ("mf1", "dfs"): (["Q", "P"], "Wout"), ("mf2", "bae"): (["W1", "P2"], "z"),
             ("mf2", "qnd"): (["W1", "Q2", "P2"], ["y", "z"]),
             ("mf2", "dfs"): (["W1", "Q2", "P2"], ["W1out", "W2out"])}
    noise, judged = ports[(scheme, goal)]

    def judge(model, witnesses):
        if goal == "bae":
            return check_bae(model, noise, judged)
        restrict = Subspace(model.nstates, np.eye(model.nstates, 2 * plant.n))
        engine = find_qnd if goal == "qnd" else find_dfs
        return engine(model, noise, judged, restrict_to=restrict if witnesses else None)

    widths = (plant.m,) if scheme == "mf1" else tuple(map(len, plant.role_partition()))
    dims = tuple(range(0, 2 * plant.n + 3))
    violations = disagreements = near = skips = 0
    worst = float("inf")
    for ss in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.Generator(np.random.Philox(ss))
        splits = [random_split(rng, width) for width in widths]
        ctrl = sample_classical_controller(rng, plant, scheme, dims)
        loop = (mf_type1 if scheme == "mf1" else mf_type2)(plant, ctrl, *splits)
        closed = judge(loop, True)
        disagreements += not closed.method_agreement
        if closed.achieved:
            bare = (plant.to_state_space(splits[0]) if scheme == "mf1"
                    else mf_type2_open_loop(plant, *splits))
            if judge(bare, True).achieved:
                skips += 1
            else:
                violations += 1
            continue
        worst = min(worst, closed.residual)
        near += closed.tolerance > 0 and closed.residual < 10.0 * closed.tolerance
    return {"theorem": THEOREM_INDEX[(scheme, goal)], "plant_id": f"{plant.n}modes/{plant.m}ch",
            "goal": goal, "scheme": scheme, "trials": trials, "violations": violations,
            "worst_residual_gap": worst if np.isfinite(worst) else None, "seed": seed,
            "controller_dim_range": list(dims), "near_tolerance": near,
            "disagreements": disagreements, "hypothesis_skips": skips, "residual_base": 1e-9}


def test_verify_nogo_matches_a_per_trial_reference():
    # drawing every trial first and building its splits as one stack changes
    # no byte of any report
    for scheme, plant in (("mf1", sc.optomech_reduced()), ("mf2", sc.michelson())):
        for goal in ("bae", "qnd", "dfs"):
            for seed in (0, 1, 20240811):
                got = verify_nogo(plant, goal, scheme, trials=12, seed=seed).to_dict()
                want = _reference_report(plant, goal, scheme, 12, seed)
                assert json.dumps(got) == json.dumps(want), (scheme, goal, seed)


def test_stacked_splits_equal_one_at_a_time_splits():
    import qlin.nogo as nogo

    def parent_orthosymplectic(rng, m):  # one QR per matrix
        Z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        Q, R = np.linalg.qr(Z)
        Q = Q * (np.diagonal(R) / np.abs(np.diagonal(R)))
        out = np.zeros((2 * m, 2 * m))
        out[0::2, 0::2], out[0::2, 1::2] = Q.real, -Q.imag
        out[1::2, 0::2], out[1::2, 1::2] = Q.imag, Q.real
        return out

    for m in (1, 2, 3):
        rng = np.random.default_rng(60 + m)
        singles = [random_split(rng, m) for _ in range(6)]
        rng = np.random.default_rng(60 + m)
        stacked = MeasurementSplit._stack(
            m, nogo._orthosymplectic(np.array([nogo._gaussian(rng, m) for _ in range(6)])))
        for one, many in zip(singles, stacked):
            assert many.m == m
            assert np.array_equal(one.M1, many.M1) and np.array_equal(one.M2, many.M2)
            assert not many.M1.flags.writeable and many.M1.flags.c_contiguous
        rng, ref = np.random.default_rng(70 + m), np.random.default_rng(70 + m)
        for _ in range(6):
            assert np.array_equal(random_orthosymplectic(rng, m), parent_orthosymplectic(ref, m))


def test_verify_nogo_makes_one_qr_per_split_width(monkeypatch):
    calls = []

    def counted(*args, _qr=np.linalg.qr, **kwargs):
        calls.append(np.shape(args[0]))
        return _qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    for plant, scheme, shapes in ((sc.optomech_reduced(), "mf1", [(9, 1, 1)]),
                                  (sc.michelson(), "mf2", [(9, 1, 1), (9, 1, 1)])):
        calls.clear()
        verify_nogo(plant, "qnd", scheme, trials=9, seed=2)
        assert calls == shapes


def test_split_stack_names_the_member_that_fails():
    import qlin.nogo as nogo

    rng = np.random.default_rng(80)
    O = nogo._orthosymplectic(np.array([nogo._gaussian(rng, 2) for _ in range(4)]))
    assert len(MeasurementSplit._stack(2, O)) == 4
    O[2, 1, 3] += 1e-9
    with pytest.raises(ValidationError, match=r"violates M Sigma M\^T = J at member 2 \(defect"):
        MeasurementSplit._stack(2, O)
    # a stack of one is the constructor's check, with its message
    split = homodyne_split(2, "P")
    with pytest.raises(ValidationError, match=r"violates M Sigma M\^T = J \(defect"):
        MeasurementSplit(2, split.M1 + 1e-9 * np.eye(2, 4), split.M2)


def test_cf_sanity_inversion():
    # coherent feedback achieves exactly what the sampled classical loops
    # never reach on the same plants
    tc = sc.tsang_caves_loop().to_state_space()
    assert check_bae(tc, "W.Q", "W.out.P").achieved
    assert find_qnd(tc, ["W"], "W.out.P").achieved

    mcf = sc.michelson_cf_loop().to_state_space()
    assert check_bae(mcf, "W2.Q", "W2.out.P").achieved

    from qlin.interconnect import QuantumController, cf_type1

    cavity = sc.two_port_cavity(1.0, 1.0)
    dfs_loop = cf_type1(cavity, QuantumController(
        G_K=cavity.G, C1=cavity.C / 2, C2=cavity.C / 2))
    v = find_dfs(dfs_loop.to_state_space(), ["W1", "W2"], ["W1.out", "W2.out"])
    assert v.achieved and len(v.witnesses) == 2


def test_report_serialization():
    r = verify_nogo(sc.optomech_reduced(), "dfs", "mf1", trials=10, seed=5)
    d = r.to_dict()
    assert d["theorem"] == 3
    assert d["violations"] == 0
    assert isinstance(d["controller_dim_range"], list)


def test_verify_nogo_matches_a_per_trial_reference_in_dimension_groups():
    # at 60 trials most loop dimensions hold several trials, so the stacked
    # staircases, witness SVDs and probes run on groups of more than one
    for scheme, plant in (("mf1", sc.optomech_reduced()), ("mf2", sc.michelson())):
        for goal in ("bae", "qnd", "dfs"):
            for seed in (3, 20240812):
                got = verify_nogo(plant, goal, scheme, trials=60, seed=seed).to_dict()
                want = _reference_report(plant, goal, scheme, 60, seed)
                assert json.dumps(got) == json.dumps(want), (scheme, goal, seed)


def test_verify_nogo_judges_each_dimension_group_once(monkeypatch):
    import qlin.goals as goals
    import qlin.nogo as nogo
    import qlin.structural as structural

    calls = Counter()
    for owner, name in ((structural, "_staircase"), (goals, "_probe")):
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls.update([_name])
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    dims = []
    for name in ("mf_type1", "mf_type2"):
        def assemble(*args, _fn=getattr(nogo, name), **kwargs):
            loop = _fn(*args, **kwargs)
            dims.append(loop.nstates)
            return loop
        monkeypatch.setattr(nogo, name, assemble)
    for plant, scheme in ((sc.optomech_reduced(), "mf1"), (sc.michelson(), "mf2")):
        for goal in ("qnd", "dfs"):
            calls.clear()
            dims.clear()
            verify_nogo(plant, goal, scheme, trials=40, seed=3)
            groups = len(set(dims))
            assert len(dims) == 40 and groups < 20
            # one staircase per side and one probe per group, and those of
            # the plant's own pre-check
            assert calls == {"_staircase": 2 * groups + 2, "_probe": groups + 1}, (scheme, goal)


@pytest.mark.parametrize("dims", [[-1], [], [2.5], [1, None], 3, "12"])
def test_verify_nogo_rejects_a_bad_controller_dim_range(dims, monkeypatch):
    import qlin.nogo as nogo

    drawn = []
    monkeypatch.setattr(nogo, "sample_classical_controller",
                        lambda *args, **kwargs: drawn.append(1))
    with pytest.raises(ValidationError, match="controller_dim_range"):
        verify_nogo(sc.optomech_reduced(), "qnd", "mf1", trials=3, seed=0,
                    controller_dim_range=dims)
    assert drawn == []


def test_verify_nogo_reads_every_valid_dim_range_alike():
    plant = sc.optomech_reduced()
    reports = [verify_nogo(plant, "dfs", "mf1", trials=8, seed=11,
                           controller_dim_range=dims).to_dict()
               for dims in (None, range(0, 5), [0, 1, 2, 3, 4], np.arange(5), (0, 1, 2, 3, 4))]
    assert all(report == reports[0] for report in reports)
    assert reports[0]["controller_dim_range"] == [0, 1, 2, 3, 4]


def test_type2_open_loop_reads_the_plant_once(monkeypatch):
    from qlin.core import QuantumLinearSystem

    calls = []
    roles = QuantumLinearSystem._roles
    monkeypatch.setattr(QuantumLinearSystem, "_roles",
                        lambda self: calls.append(1) or roles(self))
    plant = sc.michelson()
    rng = np.random.default_rng(5)
    loops = [mf_type2_open_loop(plant, random_split(rng, 1), random_split(rng, 1))
             for _ in range(4)]
    for _ in range(4):
        sample_classical_controller(rng, plant, "mf2", range(3))
    assert calls == [1]
    # each loop has a feedthrough of its own; the plant's fixed blocks stay
    assert loops[0].D is not loops[1].D
    assert not np.array_equal(loops[0].D, loops[1].D)
    assert np.array_equal(loops[0].D[1:2, 2:3], [[1.0]])
