"""The staircase's subspace dimensions against exact rational arithmetic."""

import numpy as np

import exact
from qlin import Channel, build_system
from qlin.structural import _subspaces

SYSTEMS = 64


def integer_system(rng, n, closed):
    """A system of ``n`` modes with small integer ``G`` and ``C``; with
    ``closed``, its last mode couples to nothing (no ``G`` entry with another
    mode and no ``C`` column), so it is neither reached nor seen."""
    m = int(rng.integers(1, 3))
    G = rng.integers(-2, 3, size=(2 * n, 2 * n))
    G = G + G.T
    C = rng.integers(-2, 3, size=(2 * m, 2 * n))
    if closed:
        G[-2:, :-2] = G[:-2, -2:] = 0
        C[:, -2:] = 0
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
