"""The staircase's subspace dimensions and the goal verdicts against exact
rational arithmetic."""

from collections import Counter

import numpy as np

import exact
from qlin import Channel, build_system, check_bae, find_dfs, find_qnd
from qlin.structural import _subspaces

SYSTEMS = 64


def integer_system(rng, n, closed, probed=False):
    """A system of ``n`` modes with small integer ``G`` and ``C``; with
    ``closed``, its last mode couples to nothing (no ``G`` entry with another
    mode and no ``C`` column), so it is neither reached nor seen.  With
    ``probed``, the first mode's ``q`` has no ``G`` entry and no ``C``
    column, so its ``p`` is constant and undriven, a QND variable wherever
    it shows in an output."""
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
