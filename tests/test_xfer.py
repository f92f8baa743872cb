import numpy as np
import pytest

from conftest import random_system
from qlin import (
    Channel,
    Ports,
    SingularityError,
    SpectrumCurve,
    StateSpaceModel,
    TransferFunction,
    ValidationError,
    build_system,
    check_bae,
    evaluate,
    frequency_response,
    markov_parameters,
    noise_power,
    normalized_gw_signal,
    spectrum_csv,
    sql_curve,
    squeezed_variances,
)
from qlin import scenarios as sc
from qlin import xfer
from qlin.interconnect import direct_mf_controller
from qlin.structural import reduce_pair


def test_tsang_caves_transfer_values_at_one():
    model = sc.tsang_caves_loop().to_state_space()  # (m,w,k,g)=(1,1,1,2), g=1
    shot = evaluate(TransferFunction(model, "W.P", "W.out.P"), 1.0)[0, 0]
    force = evaluate(TransferFunction(model, "F", "W.out.P"), 1.0)[0, 0]
    ba = evaluate(TransferFunction(model, "W.Q", "W.out.P"), 1.0)[0, 0]
    # closed forms: sqrt(2g) k/m / ((s+g)(s^2+w^2)) = 1/3 on the force path,
    # the all-pass (s-gamma)/(s+gamma) = -1/3 on the shot path
    assert abs(force - 1.0 / 3.0) < 1e-12
    assert abs(shot - (-1.0 / 3.0)) < 1e-12
    assert abs(ba) < 1e-13


def test_evaluate_laurent_leading_term():
    rng = np.random.default_rng(30)
    sys = random_system(rng, 2, 1)
    model = sys.to_state_space()
    tf = TransferFunction(model, "W1", "W1.out")
    s = 1e6
    val = evaluate(tf, s)
    D = model.d("W1.out", "W1")
    CB = model.c("W1.out") @ model.b("W1")
    assert np.allclose(val, D + CB / s, atol=1e-9)


def test_evaluate_matches_markov_series():
    rng = np.random.default_rng(31)
    sys = random_system(rng, 2, 2)
    model = sys.to_state_space()
    s = 10.0 * np.linalg.norm(model.A, 2) * np.exp(0.3j)
    tf = TransferFunction(model, "W1", "W2.out")
    val = evaluate(tf, s)
    terms = markov_parameters(model, "W1", "W2.out", count=16)
    series = model.d("W2.out", "W1").astype(complex)
    for k, M in enumerate(terms):
        series = series + M / s ** (k + 1)
    assert np.max(np.abs(val - series)) <= 1e-8 * max(1.0, np.max(np.abs(val)))


def test_evaluate_raises_on_path_pole():
    model = sc.optomech_reduced(m=1.0, omega=1.0, lam=1.0).to_state_space()
    tf = TransferFunction(model, "W.Q", "W.out.P")
    with pytest.raises(SingularityError):
        evaluate(tf, 1j)  # mechanical resonance lies on the signal path


def test_appendix_controller_gain():
    ctl = direct_mf_controller(1.0, 1.0)
    val = evaluate(TransferFunction(ctl, "y", "u"), 1j)[0, 0]
    assert abs(abs(val) ** 2 - 0.5) < 1e-12


def test_frequency_response_shape():
    model = sc.two_port_cavity().to_state_space()
    resp = frequency_response(TransferFunction(model, "W1", "W2.out"), [0.1, 1.0, 10.0])
    assert resp.shape == (3, 2, 2)


def per_point_response(tf, omegas):
    """The reference: one np.linalg.solve per point, on the reduced pair
    where the full resolvent fails the conditioning test."""
    model = tf.realization
    A, B = model.A, model.b(tf.input_port)
    C, D = model.c(tf.output_port), model.d(tf.output_port, tf.input_port)
    out = []
    for w in omegas:
        s = 1j * w
        Ap, Bp, Cp = A, B, C
        if not np.linalg.cond(s * np.eye(A.shape[0]) - A) <= xfer.COND_LIMIT:
            Ap, Bp, Cp = reduce_pair(A, B, C)
        out.append(Cp @ np.linalg.solve(s * np.eye(Ap.shape[0]) - Ap, Bp.astype(complex)) + D)
    return np.array(out)


def test_grid_crossing_an_invisible_mode_matches_per_point_solves():
    # a closed, undamped mode at 0.7 beside a random open block: (sI - A) is
    # singular at s = 0.7i, but the port pair cannot see that mode
    inner = random_system(np.random.default_rng(33), 2, 1)
    G = np.zeros((6, 6))
    G[:4, :4] = inner.G
    G[4:, 4:] = 0.7 * np.eye(2)
    C = np.hstack([inner.C, np.zeros((2, 2))])
    tf = TransferFunction(build_system(G, C, channels=[Channel("W1")]).to_state_space(),
                          "W1", "W1.out")
    # twice at the exact mode (the stacked inverse fails) and once next to it
    # (only the exact conditioning test sees it), in three chunks
    omegas = np.linspace(0.1, 3.0, 300)
    omegas[[5, 40]] = 0.7
    omegas[290] = 0.7 * (1 + 1e-15)
    resp = frequency_response(tf, omegas)
    assert resp.shape == (300, 2, 2)
    assert np.array_equal(resp, per_point_response(tf, omegas))
    assert np.array_equal(resp[5], resp[40])
    # the reduced pair is the open block: same values up to rounding
    open_block = TransferFunction(inner.to_state_space(), "W1", "W1.out")
    assert np.allclose(resp[[5, 290]], frequency_response(open_block, [0.7, 0.7]), atol=1e-12)
    # a chunk that the full pair cannot take at any point
    assert np.array_equal(frequency_response(tf, [0.7, 0.7]), resp[[5, 40]])


def test_stacked_solves_pass_a_stack_of_right_hand_sides(monkeypatch):
    # numpy < 2 reads a right-hand side with one dimension fewer than the
    # stack as a stack of vectors, so every stacked solve broadcasts it
    dims = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, b: dims.append((a.ndim, b.ndim)) or solve(a, b))
    model = sc.michelson_cf_loop().to_state_space()
    noise_power(model, "W2.out.P", None, np.geomspace(0.05, 50.0, 20))
    check_bae(sc.tsang_caves_loop().to_state_space(), "W.Q", "W.out.P")
    assert dims and all(a == b == 3 for a, b in dims)


def test_all_clear_chunk_factors_once(monkeypatch):
    # every point of a grid that passes the screen is factored once: the
    # anchors in a joint solve against [B | I], the points they certify in
    # a solve against B, with no inverse or exact condition number; a
    # one-point request is its own anchor, and a model keeps the solve of
    # its last one, so every one-point request at that point reads it
    calls = []

    def counted(name, fn):
        def run(a, *args):
            calls.append((name, a.shape[0] if a.ndim == 3 else 1))
            return fn(a, *args)
        return run

    for name in ("solve", "inv", "cond"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    model = sc.michelson_cf_loop().to_state_space()
    tf = normalized_gw_signal(model, "W2.out.P", 1.0, 1.0)
    gw = tf.realization
    grid = np.geomspace(0.05, 50.0, 20)
    for runs in (
            # noise power, then the gain, at one point: one solve in all
            [lambda: noise_power(gw, "gw", None, 0.3), lambda: evaluate(tf, 0.3j),
             lambda: frequency_response(tf, [0.3]),
             lambda: evaluate(TransferFunction(gw, "W2.P", "gw"), 0.3j),
             lambda: noise_power(gw, "gw", None, np.array([0.3]))],
            # a new point solves again, and then is the one kept
            [lambda: evaluate(tf, 0.4j), lambda: noise_power(gw, "gw", None, 0.4)],
            # so does a fresh model, even with the arrays of this one
            [lambda: evaluate(normalized_gw_signal(model, "W2.out.P", 1.0, 1.0), 0.4j)],
            [lambda: noise_power(model, "W2.out.P", None, 0.4)]):
        calls.clear()
        for run in runs:
            run()
        assert calls == [("solve", 1)]
    # a grid is never kept, and factors each of its points once every time
    for runs, points in (
            ([lambda: noise_power(gw, "gw", None, grid)], grid.size),
            ([lambda: frequency_response(tf, np.geomspace(0.05, 50.0, xfer.CHUNK))], xfer.CHUNK),
            ([lambda: frequency_response(tf, grid), lambda: evaluate(tf, 0.4j)], grid.size),
            ([lambda: frequency_response(tf, np.geomspace(0.05, 50.0, 2 * xfer.CHUNK + 1))],
             2 * xfer.CHUNK + 1)):
        calls.clear()
        for run in runs:
            run()
        assert {name for name, _ in calls} == {"solve"}
        assert sum(size for _, size in calls) == points


def test_grid_certificate_clears_only_what_the_screen_clears(monkeypatch):
    # a point its anchor's inverse certifies is solved against B alone, with
    # no screen or exact test of its own: its exact |M|_F |M^{-1}|_F must be
    # within the screen's bound.  Random drifts with an undamped pair at
    # +-i w0 (seen by the path or hidden from it) and grids through w0
    alone, tested = [], set()
    solve, cond = np.linalg.solve, np.linalg.cond

    def counted_solve(a, b):
        if b.shape[-1] == p:  # against B, not the joint [B | I]
            alone.extend(a.reshape((-1,) + a.shape[-2:]))
        return solve(a, b)

    def counted_cond(a, *args):
        tested.update(m.tobytes() for m in a.reshape((-1,) + a.shape[-2:]))
        return cond(a, *args)

    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    monkeypatch.setattr(np.linalg, "cond", counted_cond)
    rng = np.random.default_rng(20261019)
    certified, worst = 0, 0
    for trial in range(30):
        n = int(rng.integers(1, 17))
        w0 = rng.uniform(0.2, 3.0)
        A = np.zeros((2 * n, 2 * n))
        A[:2, :2] = [[0.0, w0], [-w0, 0.0]]
        A[2:, 2:] = rng.normal(size=(2 * n - 2, 2 * n - 2)) - 2.0 * np.eye(2 * n - 2)
        if trial % 2:  # the pair is mixed into every state
            T = np.eye(2 * n) + 0.3 * rng.normal(size=(2 * n, 2 * n))
            A = T @ A @ np.linalg.inv(T)
        p = int(rng.integers(1, 4))
        B, C = rng.normal(size=(2 * n, p)), rng.normal(size=(2, 2 * n))
        if trial % 2 == 0:
            B[:2], C[:, :2] = 0.0, 0.0  # the pair is hidden from the path
        model = StateSpaceModel(A, B, C, np.zeros((2, p)), Ports([("u", p)]), Ports([("y", 2)]))
        omegas = np.sort(np.concatenate((
            rng.uniform(0.05, 4.0, 40), w0 + np.linspace(-1e-3, 1e-3, 41),
            w0 * (1 + np.linspace(-1e-9, 1e-9, 193)), w0 * (1 + np.array([-1e-15, 1e-15])))))
        alone.clear()
        tested.clear()
        try:
            frequency_response(TransferFunction(model, "u", "y"), omegas)
        except SingularityError:
            assert trial % 2  # only a pole the path sees raises
        for M in alone:
            if M.tobytes() not in tested:
                certified += 1
                bound = np.linalg.norm(M) * np.linalg.norm(np.linalg.inv(M))
                assert bound <= xfer.COND_LIMIT / 2
                worst = max(worst, bound)
    # thousands of points, some of them near the limit
    assert certified > 1000 and worst > xfer.COND_LIMIT / 100


def test_one_solve_and_no_registry_per_sql_coupling(monkeypatch):
    # one coupling of the criterion-4 chain makes one solve; after the first,
    # it builds no port registry: those of the layout and its "gw" extension
    # are shared
    from qlin import core

    solves, registries = [], []
    solve, init = np.linalg.solve, core.Ports.__init__
    monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(1) or solve(*a))
    monkeypatch.setattr(core.Ports, "__init__",
                        lambda self, *a: registries.append(1) or init(self, *a))
    W, m, L = 0.3, 1.0, 1.0
    for k, lam in enumerate(np.logspace(-2, 2, 5) * m * W ** 2):
        solves.clear()
        registries.clear()
        model = sc.michelson(sc.MichelsonParams(m, 0.01, lam, L)).to_state_space()
        tf = normalized_gw_signal(model, "W2.out.P", lam, L)
        S = noise_power(tf.realization, "gw", None, W)
        gain = evaluate(tf, 1j * W)[0, 0]
        assert S > 0 and gain != 0
        assert len(solves) == 1
        if k:
            assert registries == []


def test_derived_model_does_not_read_its_parents_memo(monkeypatch):
    # the "gw" realization shares its parent's A and B, but not its memo
    model = sc.michelson().to_state_space()
    noise_power(model, "W2.out.P", None, 0.3)
    assert "point" in model._memo
    gw = normalized_gw_signal(model, "W2.out.P", 1.0, 1.0).realization
    assert gw.A is model.A and gw.B is model.B and "point" not in gw._memo
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(1) or solve(*a))
    noise_power(gw, "gw", None, 0.3)
    assert len(solves) == 1


def test_ill_conditioned_point_never_enters_the_memo():
    model = sc.optomech_reduced(m=1.0, omega=1.0, lam=1.0).to_state_space()
    evaluate(TransferFunction(model, "W.Q", "W.out.P"), 0.5j)
    kept = model._memo["point"]
    with pytest.raises(SingularityError):
        evaluate(TransferFunction(model, "W.Q", "W.out.P"), 1j)  # a pole of the path
    assert model._memo["point"] is kept
    # an undamped mode the port pair cannot see: the point is answered on the
    # reduced pair, and it is not kept either
    inner = random_system(np.random.default_rng(33), 2, 1)
    G = np.zeros((6, 6))
    G[:4, :4] = inner.G
    G[4:, 4:] = 0.7 * np.eye(2)
    hidden = build_system(G, np.hstack([inner.C, np.zeros((2, 2))]),
                          channels=[Channel("W1")]).to_state_space()
    tf = TransferFunction(hidden, "W1", "W1.out")
    # at the mode the solve fails; next to it only the exact test sees it
    for w in (0.7, 0.7 * (1 + 1e-15)):
        assert np.array_equal(evaluate(tf, 1j * w), per_point_response(tf, [w])[0])
        assert "point" not in hidden._memo
    with pytest.raises(ValueError):
        kept[1][0, 0, 0] = 1.0  # the kept solve is read-only


def test_sql_chain_equals_a_memo_free_evaluation():
    # criterion 4's noise power and gain at one point share one solve; both
    # equal, bit for bit, the grid engine (which keeps nothing) on a fresh model
    m, L = 1.3, 0.8
    for W in (0.1, 0.7, 3.0):
        for lam in np.logspace(-2, 2, 7) * m * W ** 2:
            def chain():
                plant = sc.michelson(sc.MichelsonParams(m, 0.01, lam, L))
                return normalized_gw_signal(plant.to_state_space(), "W2.out.P", lam, L)
            tf = chain()
            S = noise_power(tf.realization, "gw", None, W)
            gain = evaluate(tf, 1j * W)
            fresh = chain()
            assert S == noise_power(fresh.realization, "gw", None, np.array([W, W]))[0]
            assert np.array_equal(gain, frequency_response(fresh, [W, W])[0])
            assert "point" not in fresh.realization._memo


def test_grid_longer_than_a_chunk_matches_per_point_solves():
    model = sc.michelson_cf_loop().to_state_space()
    tf = normalized_gw_signal(model, "W2.out.P", 1.0, 1.0)
    omegas = np.geomspace(0.05, 50.0, 2 * xfer.CHUNK + 7)
    resp = frequency_response(tf, omegas)
    assert np.array_equal(resp, per_point_response(tf, omegas))
    assert np.array_equal(resp[3], evaluate(tf, 1j * omegas[3]))


def test_noise_power_on_a_grid_equals_single_frequencies():
    model = sc.michelson_cf_loop().to_state_space()
    gw = normalized_gw_signal(model, "W2.out.P", 1.0, 1.0).realization
    variances = squeezed_variances("W2.P", 1.0)
    omegas = np.geomspace(0.05, 50.0, 300)
    grid = noise_power(gw, "gw", variances, omegas)
    single = [noise_power(gw, "gw", variances, float(w)) for w in omegas]
    assert isinstance(grid, np.ndarray) and grid.shape == omegas.shape
    assert all(type(v) is float for v in single)
    assert np.array_equal(grid, single)


def test_grid_through_a_path_pole_raises_the_point_message():
    model = sc.optomech_reduced(m=1.0, omega=1.0, lam=1.0).to_state_space()
    tf = TransferFunction(model, "W.Q", "W.out.P")
    with pytest.raises(SingularityError) as point:
        evaluate(tf, 1j)
    with pytest.raises(SingularityError) as grid:
        frequency_response(tf, [0.5, 1.0, 2.0])
    assert str(grid.value) == str(point.value)
    assert str(point.value).startswith("(sI - A) is ill conditioned at s=1j (cond=")
    with pytest.raises(SingularityError):
        noise_power(model, "W.out.P", None, np.array([0.5, 1.0]))


def test_noise_power_zero_gain_output():
    model = sc.michelson().to_state_space()
    # Q2out = Q2 exactly: flat unit response to one noise quadrature
    val = noise_power(model, "W2.out.Q", None, 1.0)
    assert np.isclose(val, 0.5)
    # a fully dead row (zero C row, zero D row) carries no noise at all
    from qlin import Ports, StateSpaceModel

    dead = StateSpaceModel(model.A, model.B,
                           np.zeros((1, model.nstates)), np.zeros((1, model.B.shape[1])),
                           model.inputs, Ports([("dead", 1)]))
    assert noise_power(dead, "dead", None, 1.0) == 0.0


def michelson_noise_oracle(m, w, lam, L, W):
    # derived by eliminating the differential mode by hand:
    # y = (2 lam Q2 + 2 sqrt(lam) F)/(m (s^2+w^2)) + P2, normalized by 2 sqrt(lam) L
    q_coef = lam / (m ** 2 * L ** 2 * (W ** 2 - w ** 2) ** 2)
    p_coef = 1.0 / (4.0 * lam * L ** 2)
    return 0.5 * (q_coef + p_coef)


def test_noise_power_michelson_matches_hand_formula():
    p = sc.MichelsonParams(m=1.0, omega=0.01, lam=0.7, L=1.0)
    model = sc.michelson(p).to_state_space()
    tf = normalized_gw_signal(model, "W2.out.P", p.lam, p.L)
    for W in (0.3, 1.0, 4.0):
        S = noise_power(tf.realization, "gw", None, W)
        assert np.isclose(S, michelson_noise_oracle(p.m, p.omega, p.lam, p.L, W),
                          rtol=1e-10)


def test_noise_power_invariant_under_similarity():
    rng = np.random.default_rng(32)
    sys = random_system(rng, 2, 1)
    model = sys.to_state_space()
    T = rng.normal(size=(4, 4)) + 2 * np.eye(4)
    sim = model.similar(T)
    for W in (0.5, 2.0):
        assert np.isclose(noise_power(model, "W1.out.P", None, W),
                          noise_power(sim, "W1.out.P", None, W), rtol=1e-9)


def test_bae_port_contributes_nothing_to_noise_power():
    model = sc.tsang_caves_loop().to_state_space()
    for W in (0.3, 1.7, 5.0):
        tf = TransferFunction(model, "W.Q", "W.out.P")
        contrib = abs(evaluate(tf, 1j * W)[0, 0]) ** 2 * 0.5
        assert contrib < 1e-16


def test_sql_curve_values():
    assert np.isclose(sql_curve(1.0, 1.0, [1.0]).values[0], 0.5)
    curve = sql_curve(1.0, 1.0, [1.0, 2.0])
    assert np.isclose(curve.values[1], curve.values[0] / 4.0)  # 1/Omega^2
    assert np.isclose(sql_curve(2.0, 1.0, [1.0]).values[0], 0.25)  # 1/m
    with pytest.raises(ValidationError):
        sql_curve(1.0, 1.0, [0.0, 1.0])
    # m and L each fine, but 2 m L^2 overflows or underflows
    for m, L in ((-1.0, 1.0), (np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan), (1.0, 0.0),
                 (1.0, 1e200), (1.0, 1e-200), (1e300, 1e10)):
        with pytest.raises(ValidationError, match="must be a finite positive number"):
            sql_curve(m, L, [1.0])
    # so is every value on the grid
    for omega in (1e-200, 1e200, np.inf, np.nan):
        with pytest.raises(ValidationError, match="finite and positive"):
            sql_curve(1.0, 1.0, [omega])


def test_non_finite_inputs_are_rejected():
    model = sc.michelson().to_state_space()
    tf = TransferFunction(model, "W2.P", "W2.out.P")
    for run in (lambda: evaluate(tf, complex(np.nan, 1.0)),
                lambda: frequency_response(tf, [1.0, np.nan]),
                lambda: noise_power(model, "W2.out.P", None, np.nan)):
        with pytest.raises(ValidationError, match="must be finite"):
            run()
    # an infinite point is rejected before any arithmetic, which would warn
    # (inf * 0) under the suite's RuntimeWarning filter
    for run in (lambda: evaluate(tf, complex(np.inf, 0.0)),
                lambda: frequency_response(tf, [1.0, np.inf]),
                lambda: frequency_response(tf, [-np.inf]),
                lambda: noise_power(model, "W2.out.P", None, [1.0, np.inf]),
                lambda: noise_power(model, "W2.out.P", None, np.inf)):
        with pytest.raises(ValidationError, match="points must be finite"):
            run()
    for r in (np.inf, np.nan, 800.0, -800.0):
        with pytest.raises(ValidationError, match="squeeze parameter"):
            squeezed_variances("W2.P", r)
    for v in (np.inf, np.nan, -1.0):
        with pytest.raises(ValidationError, match="variance"):
            noise_power(model, "W2.out.P", {"W2.P": v}, 1.0)
    for lam, L in ((1.0, np.inf), (np.nan, 1.0), (1.0, 1e308), (1e-300, 1e-300)):
        with pytest.raises(ValidationError, match="must be a finite positive number"):
            normalized_gw_signal(model, "W2.out.P", lam, L)


def test_normalized_gw_gain_near_unity():
    p = sc.MichelsonParams()
    model = sc.michelson(p).to_state_space()
    tf = normalized_gw_signal(model, "W2.out.P", p.lam, p.L)
    W = 100 * p.omega
    gain = evaluate(tf, 1j * W)[0, 0] * (-p.m * p.L * W ** 2)
    assert abs(abs(gain) - 1.0) < 1e-3


def test_normalized_gw_requires_force_port():
    model = sc.two_port_cavity().to_state_space()
    with pytest.raises(Exception):
        normalized_gw_signal(model, "W1.out.P", 1.0, 1.0)


def test_sql_lower_bounds_michelson_noise():
    p = sc.MichelsonParams()
    omegas = np.geomspace(10 * p.omega, 1000 * p.omega, 100)
    sql = sql_curve(p.m, p.L, omegas)
    for factor in (0.1, 1.0, 10.0):
        for W, ref in zip(omegas, sql.values):
            lam = factor * p.m * W ** 2
            md = sc.michelson(sc.MichelsonParams(p.m, p.omega, lam, p.L)).to_state_space()
            tf = normalized_gw_signal(md, "W2.out.P", lam, p.L)
            assert noise_power(tf.realization, "gw", None, W) >= ref


def test_squeezed_cf_michelson_beats_sql():
    p = sc.MichelsonParams()
    for W in np.geomspace(10 * p.omega, 1000 * p.omega, 9):
        lam = p.m * W ** 2 / 2.0
        loop = sc.michelson_cf_loop(sc.MichelsonParams(p.m, p.omega, lam, p.L))
        model = loop.to_state_space()
        tf = normalized_gw_signal(model, "W2.out.P", lam, p.L)
        # the shot noise Q1 rides the .P slot of the scattered input
        variances = squeezed_variances("W2.P", 1.0)
        S = noise_power(tf.realization, "gw", variances, W)
        assert S < 1.0 / (2 * p.m * p.L ** 2 * W ** 2)


def test_unsqueezed_cf_michelson_reproduces_sql_at_optimum():
    p = sc.MichelsonParams()
    W = 100 * p.omega
    lam = p.m * W ** 2 / 2.0
    loop = sc.michelson_cf_loop(sc.MichelsonParams(p.m, p.omega, lam, p.L))
    tf = normalized_gw_signal(loop.to_state_space(), "W2.out.P", lam, p.L)
    S = noise_power(tf.realization, "gw", None, W)
    assert np.isclose(S, 1.0 / (2 * p.m * p.L ** 2 * W ** 2), rtol=5e-3)


def test_spectrum_curve_validation():
    with pytest.raises(ValidationError):
        SpectrumCurve(np.array([1.0, 0.5]), np.array([1.0, 1.0]))
    with pytest.raises(ValidationError):
        SpectrumCurve(np.array([0.5, 1.0]), np.array([-1.0, 1.0]))


def test_spectrum_csv_format():
    curve = SpectrumCurve(np.array([1.0, 2.0]), np.array([0.125, 1.0 / 3.0]))
    sql = sql_curve(1.0, 1.0, [1.0, 2.0])
    text = spectrum_csv(curve, sql)
    lines = text.strip().split("\n")
    assert lines[0] == "omega,S,S_sql"
    assert len(lines) == 3
    w, s, ref = lines[2].split(",")
    assert float(w) == 2.0
    assert float(s) == 1.0 / 3.0  # 17 significant digits round-trip
    assert float(ref) == 0.125


def test_spectrum_csv_matches_the_row_renderer():
    def rows(curve, sql=None):  # the renderer of one f-string per row
        refs = sql.values.tolist() if sql is not None else [float("nan")] * curve.omegas.size
        return "\n".join(["omega,S,S_sql"] + [
            f"{w:.17g},{v:.17g},{ref:.17g}"
            for w, v, ref in zip(curve.omegas.tolist(), curve.values.tolist(), refs)]) + "\n"

    rng = np.random.default_rng(44)
    omegas = np.concatenate(([-0.0, 5e-324], np.sort(rng.uniform(1e-3, 1e3, 50)), [1e308, np.inf]))
    special = [np.nan, np.inf, -0.0, 5e-324, 1e308]
    values = np.concatenate((special, rng.exponential(size=omegas.size - 5)))
    refs = np.concatenate((rng.exponential(size=omegas.size - 5), special[::-1]))
    for curve, sql in ((SpectrumCurve(omegas, values), SpectrumCurve(omegas, refs)),
                       (SpectrumCurve(omegas, values), None),
                       (SpectrumCurve(omegas[:1], values[:1]), None),
                       (SpectrumCurve([], []), None)):
        assert spectrum_csv(curve, sql) == rows(curve, sql)
