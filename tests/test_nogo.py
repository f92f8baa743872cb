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
    # the exact pairing of the paper's Theorems 1-6, which the order of the
    # port table gives
    assert THEOREM_INDEX == {("mf1", "bae"): 1, ("mf1", "qnd"): 2, ("mf1", "dfs"): 3,
                             ("mf2", "bae"): 4, ("mf2", "qnd"): 5, ("mf2", "dfs"): 6}


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


def test_sampled_controllers_equal_the_public_constructor():
    # the sampler keeps its fresh draws without a second check; the draws and
    # the controllers equal, bit for bit, those of a verbatim copy of the
    # sampler that builds through the public ClassicalController constructor
    from qlin.interconnect import _GAINS, ClassicalController, _split_widths

    def reference(rng, plant, scheme, dims):
        k = int(rng.choice(np.asarray(dims, dtype=int)))
        scale = 1.0 / np.sqrt(max(k, 1))
        A_K = rng.normal(size=(k, k)) * scale
        if k:
            shift = np.max(np.linalg.eigvals(A_K).real) + 0.5
            A_K = A_K - shift * np.eye(k)
        widths = _split_widths(plant, scheme)
        B_K = rng.normal(size=(k, widths[0])) * scale
        return ClassicalController(A_K=A_K, B_K=B_K, **{
            name: rng.normal(size=(2 * width, k)) * scale
            for name, width in zip(_GAINS[scheme], widths)})

    for plant, scheme in ((sc.optomech_reduced(), "mf1"), (sc.michelson(), "mf1"),
                          (sc.michelson(), "mf2")):
        for dims in ([0], [0, 1, 2], range(1, 5), [3, 6]):
            for seed in (0, 1, 7, 20240811):
                rngs = np.random.default_rng(seed), np.random.default_rng(seed)
                for _ in range(3):
                    got = sample_classical_controller(rngs[0], plant, scheme, dims)
                    ref = reference(rngs[1], plant, scheme, dims)
                    for name in ("A_K", "B_K", "C_K", "C_K1", "C_K2"):
                        a, b = getattr(got, name), getattr(ref, name)
                        assert (a is None) == (b is None), name
                        if a is not None:
                            assert a.dtype == b.dtype and a.shape == b.shape, name
                            assert a.tobytes() == b.tobytes(), name
                assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


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
    # the loops of one controller dimension are assembled as one stack, and
    # every trial's loop once
    import qlin.nogo as nogo

    built = []

    def counted(*args, _assemble=nogo._classical_feedback, **kwargs):
        loops = _assemble(*args, **kwargs)
        built.append(len(loops))
        return loops

    monkeypatch.setattr(nogo, "_classical_feedback", counted)
    for plant, scheme in ((sc.optomech_reduced(), "mf1"), (sc.michelson(), "mf2")):
        built.clear()
        verify_nogo(plant, "qnd", scheme, trials=7, seed=4)
        assert sum(built) == 7 and len(built) < 7


def test_verify_nogo_counts_violations_skips_and_near_misses(monkeypatch):
    import qlin.goals as goals

    plant = sc.optomech_reduced()
    # the pre-check, then the bare plant of each trial whose loop achieves
    bare = iter([False, True, False, True, False])

    # every BAE verdict is made by the per-model builder goals._bae
    real = goals._bae

    def loops_achieve(model, *args):
        v = real(model, *args)
        closed = model.nstates > 2 * plant.n
        return dataclasses.replace(v, achieved=closed or next(bare))

    monkeypatch.setattr(goals, "_bae", loops_achieve)
    r = verify_nogo(plant, "bae", "mf1", trials=4, seed=0, controller_dim_range=[1])
    assert (r.violations, r.hypothesis_skips, r.near_tolerance) == (2, 2, 0)
    assert r.worst_residual_gap == np.inf
    assert r.to_dict()["worst_residual_gap"] is None

    def near_misses(model, *args):
        v = real(model, *args)
        return dataclasses.replace(v, residual=5.0 * v.tolerance)

    monkeypatch.setattr(goals, "_bae", near_misses)
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


def test_report_dict_keeps_the_field_order():
    # the JSON keys of a report are its fields in order, so its bytes are fixed
    r = verify_nogo(sc.optomech_reduced(), "qnd", "mf1", trials=3, seed=1)
    d = r.to_dict()
    assert list(d) == ["theorem", "plant_id", "goal", "scheme", "trials", "violations",
                       "worst_residual_gap", "seed", "controller_dim_range", "near_tolerance",
                       "disagreements", "hypothesis_skips", "residual_base"]
    assert d["controller_dim_range"] == [0, 1, 2, 3, 4]
    assert d["worst_residual_gap"] == r.worst_residual_gap < np.inf
    assert json.loads(json.dumps(d)) == d


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


def test_achieving_trials_judge_the_bare_loop_of_their_own_splits(monkeypatch):
    # no sampled loop achieves its goal, so force every one to: each trial's
    # bare loop must then be the plant under that trial's splits, as the
    # public builders make it from splits redrawn one trial at a time
    import qlin.goals as goals
    import qlin.nogo as nogo

    closed, bare = [], []

    def assemble(*args, _fn=nogo._classical_feedback):
        loops = _fn(*args)
        closed.extend(loops)  # kept alive, so no bare loop can take the place of one
        return loops

    def bae(model, *args, _fn=goals._bae):
        verdict = _fn(model, *args)
        if any(model is loop for loop in closed):
            return dataclasses.replace(verdict, achieved=True)
        bare.append(model)
        return verdict

    monkeypatch.setattr(nogo, "_classical_feedback", assemble)
    monkeypatch.setattr(goals, "_bae", bae)
    trials, seed = 8, 3
    for plant, scheme in ((sc.optomech_reduced(), "mf1"), (sc.michelson(), "mf2")):
        verify_nogo(plant, "bae", scheme, trials=0)  # the pre-check, kept in the plant's memo
        bare.clear()
        report = verify_nogo(plant, "bae", scheme, trials=trials, seed=seed)
        assert report.violations + report.hypothesis_skips == trials == len(bare)
        widths = (plant.m,) if scheme == "mf1" else tuple(map(len, plant.role_partition()))
        for model, ss in zip(bare, np.random.SeedSequence(seed).spawn(trials)):
            rng = np.random.Generator(np.random.Philox(ss))
            splits = [random_split(rng, width) for width in widths]
            want = (plant.to_state_space(splits[0]) if scheme == "mf1"
                    else mf_type2_open_loop(plant, *splits))
            assert (model.inputs.entries(), model.outputs.entries()) == \
                (want.inputs.entries(), want.outputs.entries())
            for name in "ABCD":
                got, ref = getattr(model, name), getattr(want, name)
                assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), (scheme, name)


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
        # verify_nogo's selector rows of one width: one stacked build, C-ordered
        O = nogo._orthosymplectic(np.array([nogo._gaussian(rng, m) for _ in range(6)]))
        M1s, M2s = np.ascontiguousarray(O[:, 0::2]), np.ascontiguousarray(O[:, 1::2])
        for t, one in enumerate(singles):
            assert one.m == m
            assert one.M1.tobytes() == M1s[[t]].tobytes()
            assert one.M2.tobytes() == M2s[[t]].tobytes()
            assert not one.M1.flags.writeable and one.M1.flags.c_contiguous
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
    from qlin.core import _check_splits as check_splits

    rng = np.random.default_rng(80)
    O = nogo._orthosymplectic(np.array([nogo._gaussian(rng, 2) for _ in range(4)]))
    check_splits(2, np.concatenate((O[:, 0::2], O[:, 1::2]), axis=1))
    O[2, 1, 3] += 1e-9
    with pytest.raises(ValidationError, match=r"violates M Sigma M\^T = J at member 2 \(defect"):
        check_splits(2, np.concatenate((O[:, 0::2], O[:, 1::2]), axis=1))
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
    for owner, name in ((structural, "_staircase"), (goals, "_probe"), (goals, "_intersects"),
                        (np.linalg, "eigvals")):
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls.update([_name])
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    groups = []  # (controller dimension, loops) of each stacked assembly

    def assemble(plant, scheme, A_K, *args, _fn=nogo._classical_feedback):
        loops = _fn(plant, scheme, A_K, *args)
        groups.append((A_K.shape[-1], len(loops)))
        return loops

    monkeypatch.setattr(nogo, "_classical_feedback", assemble)
    for plant, scheme in ((sc.optomech_reduced(), "mf1"), (sc.michelson(), "mf2")):
        for goal in ("qnd", "dfs"):
            calls.clear()
            groups.clear()
            verify_nogo(plant, goal, scheme, trials=40, seed=3)
            dims = [k for k, _ in groups]
            assert sum(count for _, count in groups) == 40
            assert len(set(dims)) == len(groups) < 20
            # one staircase per side, one probe per group and, for QND, one
            # intersection with the plant block per group, besides the two
            # staircases and the probe of the plant's own pre-check; one
            # eigvals per sampled controller dimension with states
            assert calls == {"_staircase": 2 * len(groups) + 2, "_probe": len(groups) + 1,
                             "eigvals": sum(k > 0 for k in dims),
                             **({"_intersects": len(groups)} if goal == "qnd" else {})}, \
                (scheme, goal)
            # another run on the same plant reads the plant's own verdict from
            # the plant's memo
            calls.clear()
            groups.clear()
            verify_nogo(plant, goal, scheme, trials=40, seed=4)
            assert (calls["_staircase"], calls["_probe"]) == (2 * len(groups), len(groups))


def test_bae_no_go_counts_one_reduced_pair_and_one_probe_per_loop(monkeypatch):
    import qlin.goals as goals
    import qlin.nogo as nogo
    import qlin.structural as structural

    calls = Counter()
    for owner, name in ((structural, "_staircase"), (goals, "_probe"),
                        (goals, "transfer_zero_equivalence")):
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls.update([_name])
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    groups = []

    def assemble(plant, scheme, A_K, *args, _fn=nogo._classical_feedback):
        loops = _fn(plant, scheme, A_K, *args)
        groups.append(len(loops))
        return loops

    monkeypatch.setattr(nogo, "_classical_feedback", assemble)
    for plant, scheme in ((sc.optomech_reduced(), "mf1"), (sc.michelson(), "mf2")):
        calls.clear()
        groups.clear()
        r = verify_nogo(plant, "bae", scheme, trials=40, seed=3)
        assert sum(groups) == 40 and r.violations == r.hypothesis_skips == 0
        # the pre-check's two subspaces and reduced pair, one staircase per
        # side and group, and one reduced pair and one probe per loop
        assert calls == {"_staircase": 3 + 2 * len(groups) + 40, "_probe": 1 + 40,
                         "transfer_zero_equivalence": 1 + 40}, scheme


@pytest.mark.parametrize("counts, message", [
    # bare TypeErrors, or a float count of trials
    ({"trials": 2.5}, "^trials must be an integer, got 2.5"),
    ({"seed": 1.5}, "^seed must be an integer, got 1.5"),
    ({"trials": "3"}, "^trials must be an integer, got '3'"),
    ({"trials": -1}, "^trials must be at least 0, got -1"),
    ({"seed": -1}, "^seed must be at least 0, got -1"),
])
def test_verify_nogo_names_the_count_it_refuses(counts, message):
    with pytest.raises(ValidationError, match=message):
        verify_nogo(sc.optomech_reduced(), "qnd", "mf1", **{"trials": 2, "seed": 0, **counts})


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


@pytest.mark.parametrize("dims", [[-1], [], "ab", [1.5], [2.5], [1, None], 3])
def test_sample_classical_controller_rejects_a_bad_controller_dim_range(dims):
    # [-1], [] and "ab" raised a bare numpy ValueError, and [1.5] drew a
    # one-state controller
    with pytest.raises(ValidationError, match="controller_dim_range"):
        sample_classical_controller(np.random.default_rng(0), sc.optomech_reduced(), "mf1", dims)


def test_sample_classical_controller_reads_every_valid_dim_range_alike():
    plant = sc.michelson()
    draws = [sample_classical_controller(np.random.default_rng(3), plant, "mf2", dims)
             for dims in (range(1, 6), [1, 2, 3, 4, 5], np.arange(1, 6), (1, 2, 3, 4, 5))]
    for ctrl in draws[1:]:
        for name in ("A_K", "B_K", "C_K1", "C_K2"):
            assert np.array_equal(getattr(ctrl, name), getattr(draws[0], name)), name


def test_verify_nogo_reads_every_valid_dim_range_alike():
    plant = sc.optomech_reduced()
    reports = [verify_nogo(plant, "dfs", "mf1", trials=8, seed=11,
                           controller_dim_range=dims).to_dict()
               for dims in (None, range(0, 5), [0, 1, 2, 3, 4], np.arange(5), (0, 1, 2, 3, 4))]
    assert all(report == reports[0] for report in reports)
    assert reports[0]["controller_dim_range"] == [0, 1, 2, 3, 4]


def test_type2_open_loops_have_their_own_feedthrough():
    plant = sc.michelson()
    rng = np.random.default_rng(5)
    loops = [mf_type2_open_loop(plant, random_split(rng, 1), random_split(rng, 1))
             for _ in range(4)]
    # each loop has a feedthrough of its own; the plant's fixed blocks stay
    assert loops[0].D is not loops[1].D
    assert not np.array_equal(loops[0].D, loops[1].D)
    assert np.array_equal(loops[0].D[1:2, 2:3], [[1.0]])
