"""The staircase's subspace dimensions and the goal verdicts against exact
rational arithmetic."""

from collections import Counter

import numpy as np

import exact
from qlin import (
    Channel,
    ClassicalController,
    MeasurementSplit,
    build_system,
    check_bae,
    find_dfs,
    find_qnd,
    mf_type1,
    mf_type2,
)
from qlin.nogo import _PORTS
from qlin.structural import _subspaces

SYSTEMS = 64


def integer_system(rng, n, closed, probed=False, m=None):
    """A system of ``n`` modes and ``m`` channels (default: one or two, at
    random) with small integer ``G`` and ``C``; with
    ``closed``, its last mode couples to nothing (no ``G`` entry with another
    mode and no ``C`` column), so it is neither reached nor seen.  With
    ``probed``, the first mode's ``q`` has no ``G`` entry and no ``C``
    column, so its ``p`` is constant and undriven, a QND variable wherever
    it shows in an output."""
    if m is None:
        m = int(rng.integers(1, 3))
    G = rng.integers(-2, 3, size=(2 * n, 2 * n))
    G = G + G.T
    C = rng.integers(-2, 3, size=(2 * m, 2 * n))
    if closed:
        G[-2:, :-2] = G[:-2, -2:] = 0
        C[:, -2:] = 0
    if probed:
        G[0, :] = G[:, 0] = 0
        C[:, 0] = 0
    return G, C


def test_subspace_dimensions_are_exact_at_unit_scale():
    rng = np.random.default_rng(1981)
    by_ports: dict = {}  # channel labels -> [(model, exact dims)]
    for i in range(SYSTEMS):
        G, C = integer_system(rng, 1 + i % 4, closed=i // 4 % 2 == 1)
        labels = tuple(f"W{j + 1}" for j in range(len(C) // 2))
        model = build_system(G, C, channels=[Channel(label) for label in labels]).to_state_space()
        A, B = exact.drift_and_input(G.tolist(), C.tolist())
        # the float realization holds the exact matrices
        assert np.array_equal(model.A, np.array(A, dtype=float))
        assert np.array_equal(model.b(labels), np.array(B, dtype=float))
        assert np.array_equal(model.c([label + ".out" for label in labels]), C)
        dims = (exact.controllable_dim(A, B), exact.observable_dim(A, exact.matrix(C.tolist())))
        by_ports.setdefault(labels, []).append((model, dims))
    deficient = 0
    for labels, group in by_ports.items():
        models = [model for model, _ in group]
        # the models of one port layout at once: one stacked staircase per
        # state dimension and side
        ctrls = _subspaces(models, "in", list(labels))
        obss = _subspaces(models, "out", [label + ".out" for label in labels])
        for (model, dims), ctrl, obs in zip(group, ctrls, obss):
            assert (ctrl.dim, obs.dim) == dims, (labels, model.A, model.B)
            deficient += min(dims) < model.nstates
    assert deficient >= SYSTEMS // 2  # every closed mode is unreached and unseen


GOAL_SYSTEMS = 120


def test_goal_verdicts_are_exact_at_unit_scale():
    # QND with noise on every channel and the W1.out.P homodyne output; DFS
    # with every field output; BAE from W1.Q to W1.out.P, whose direct term
    # is 0, so BAE holds iff the overlap is 0.  Half the systems have a
    # closed mode and half a probed one, in every combination.
    rng = np.random.default_rng(1984)
    found = Counter()
    for i in range(GOAL_SYSTEMS):
        G, C = integer_system(rng, 1 + i % 4, closed=i // 4 % 2 == 1, probed=i // 8 % 2 == 1)
        labels = [f"W{j + 1}" for j in range(len(C) // 2)]
        outs = [label + ".out" for label in labels]
        model = build_system(G, C, channels=[Channel(label) for label in labels]).to_state_space()
        A, B = exact.drift_and_input(G.tolist(), C.tolist())
        Cx = exact.matrix(C.tolist())
        n = len(A)
        qnd = exact.goal_dims(A, B, Cx[1:2])
        dfs = exact.goal_dims(A, B, Cx)
        bae = exact.goal_dims(A, [row[:1] for row in B], Cx[1:2])
        v = find_qnd(model, labels, "W1.out.P")
        assert (v.achieved, v.dims) == (qnd["qnd"] > 0, {
            "witness": qnd["qnd"], "uncontrollable": n - qnd["controllable"],
            "observable": qnd["observable"]}), (G, C)
        v = find_dfs(model, labels, outs)
        assert (v.achieved, v.dims) == (dfs["dfs"] > 0, {
            "witness": dfs["dfs"], "uncontrollable": n - dfs["controllable"],
            "unobservable": n - dfs["observable"]}), (G, C)
        v = check_bae(model, "W1.Q", "W1.out.P")
        assert (v.achieved, v.dims) == (bae["overlap"] == 0, {
            "controllable": bae["controllable"], "observable": bae["observable"],
            "overlap": bae["overlap"]}), (G, C)
        found.update(qnd=qnd["qnd"] > 0, dfs=dfs["dfs"] > 0, bae=bae["overlap"] == 0)
    # every goal is achieved on part of the suite and missed on part of it
    assert all(0 < found[goal] < GOAL_SYSTEMS for goal in ("qnd", "dfs", "bae")), found


LOOPS = 24  # per scheme


def integer_split(rng, m):
    """A homodyne split of ``m`` channels whose rows are 0 or +-1: each
    channel measures one of Q, P, -Q, -P (``homodyne_split`` at pi/2 leaves
    cos(pi/2) = 6.1e-17 in its rows, so it is not exact)."""
    M1, M2 = np.zeros((m, 2 * m)), np.zeros((m, 2 * m))
    for j in range(m):
        c, s = ((1, 0), (0, 1), (-1, 0), (0, -1))[rng.integers(4)]
        M1[j, 2 * j:2 * j + 2], M2[j, 2 * j:2 * j + 2] = (c, s), (-s, c)
    return MeasurementSplit(m, M1, M2)


def test_loop_verdicts_are_exact_at_unit_scale():
    # mf1 and mf2 loops of 4-10 states with integer controllers, judged on
    # the ports of the no-go harness (BAE's direct term is 0 on both)
    rng = np.random.default_rng(2014)
    found = Counter()
    verdict = {"bae": check_bae, "qnd": find_qnd, "dfs": find_dfs}
    for i in range(2 * LOOPS):
        scheme, n = ("mf1", "mf2")[i % 2], 1 + i // 2 % 3
        k = int(rng.integers(max(1, 4 - 2 * n), 11 - 2 * n))
        # the channels of each split: all of them (mf1); feedback, evaluation (mf2)
        widths = [int(w) for w in rng.integers(1, 3, 1 if scheme == "mf1" else 2)]
        G, C = integer_system(rng, n, closed=i // 4 % 2 == 1, probed=i // 8 % 2 == 1,
                              m=sum(widths))
        roles = ["feedback"] * widths[0] + ["evaluation"] * (sum(widths) - widths[0])
        plant = build_system(G, C, channels=[Channel(f"W{j + 1}", role)
                                             for j, role in enumerate(roles)])
        splits = [integer_split(rng, width) for width in widths]
        A_K, B_K = rng.integers(-2, 3, (k, k)), rng.integers(-2, 3, (k, widths[0]))
        gains = [rng.integers(-2, 3, (2 * width, k)) for width in widths]
        if scheme == "mf1":
            loop = mf_type1(plant, ClassicalController(A_K, B_K, C_K=gains[0]), splits[0])
            A, inputs, outputs = exact.mf1_loop(G.tolist(), C.tolist(), splits[0].M1.tolist(),
                                                splits[0].M2.tolist(), A_K.tolist(),
                                                B_K.tolist(), gains[0].tolist())
        else:
            loop = mf_type2(plant, ClassicalController(A_K, B_K, C_K1=gains[0], C_K2=gains[1]),
                            *splits)
            A, inputs, outputs = exact.mf2_loop(
                G.tolist(), C.tolist(), widths[0], splits[0].M1.tolist(),
                splits[1].M1.tolist(), splits[1].M2.tolist(), A_K.tolist(), B_K.tolist(),
                gains[0].tolist(), gains[1].tolist())
        # the float loop holds the exact matrices
        N = len(A)
        assert 4 <= N <= 10 and np.array_equal(loop.A, np.array(A, dtype=float)), (scheme, i)
        for port, cols in inputs.items():
            assert np.array_equal(loop.b(port), np.array(cols, dtype=float)), (scheme, i, port)
        for port, rows in outputs.items():
            assert np.array_equal(loop.c(port), np.array(rows, dtype=float)), (scheme, i, port)
        for goal in ("bae", "qnd", "dfs"):
            noise, judged = (
                [ports] if isinstance(ports, str) else ports for ports in _PORTS[(scheme, goal)])
            B = [sum(row, []) for row in zip(*(inputs[port] for port in noise))]
            want = exact.goal_dims(A, B, sum((outputs[port] for port in judged), []))
            v = verdict[goal](loop, noise, judged)
            if goal == "bae":
                expected = (want["overlap"] == 0, {key: want[key] for key in (
                    "controllable", "observable", "overlap")})
            elif goal == "qnd":
                expected = (want["qnd"] > 0, {
                    "witness": want["qnd"], "uncontrollable": N - want["controllable"],
                    "observable": want["observable"]})
            else:
                expected = (want["dfs"] > 0, {
                    "witness": want["dfs"], "uncontrollable": N - want["controllable"],
                    "unobservable": N - want["observable"]})
            assert (v.achieved, v.dims) == expected, (scheme, goal, G, C, A_K, B_K, gains)
            found[scheme, goal] += v.achieved
    # QND and DFS on both schemes, and mf1's BAE, are achieved on part of
    # the suite and missed on part of it
    assert all(0 < found[key] < LOOPS for key in (
        ("mf1", "bae"), ("mf1", "qnd"), ("mf1", "dfs"), ("mf2", "qnd"), ("mf2", "dfs"))), found
