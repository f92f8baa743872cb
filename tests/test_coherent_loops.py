"""The paper's positive half as a randomised harness: coherent-feedback loops
that reach a goal no measurement-feedback loop can.

Each loop is written out here in closed form (the Hamiltonian matrix ``G``,
coupling ``C`` and force direction of the whole loop), not built by
``qlin.scenarios`` or ``qlin.interconnect``, so a fault in those builders
cannot hide a fault in the verdicts:

* the Tsang-Caves loop (PRL 105, 123601, 2010): an oscillator (q, p) with
  mass m and frequency w, read by a cavity (a_q, a_p) through the
  interaction -kappa q a_q and probed at rate gamma; the controller is a
  negative-frequency oscillator (c_q, c_p) at -w, coupled to the cavity by
  -g a_q c_q with g = kappa / sqrt(m w).  The field quadrature W.Q drives no
  part of W.out.P (BAE), and the pair spanned by -g p + kappa c_p and
  g w q + (kappa / m) c_q is a QND pair of that output;
* the interferometer with the type-2 coherent controller: two arms (q1, p1),
  (q2, p2) read at rate lam through the bright and the dark port, the bright
  port's field turned by a quarter-wave plate into a detuned cavity
  (c_q, c_p) at detuning alpha = -lam / (m eps) and rate eps, and fed back
  into the dark port.  With eps from the interference condition, W2.Q drives
  no part of W2.out.P and the differential force F none of W2.out.Q.

The parameters of each loop are drawn log-uniform in e^{+-2} from a fixed
seed.  qlin judges each loop, and each BAE pair is checked a second time
with numpy alone: its Markov terms, scaled so that they cannot overflow,
vanish.
"""

import numpy as np

from qlin import build_system, check_bae, find_qnd

TSANG_CAVES_DRAWS = 100
INTERFEROMETER_DRAWS = 50
# relative size below which a scaled Markov term counts as zero
MARKOV_RTOL = 1e-9


def _draws(seed, count):
    """``count`` parameter quadruples, each entry log-uniform in e^{+-2}."""
    return np.exp(np.random.default_rng(seed).uniform(-2.0, 2.0, size=(count, 4)))


def _sigma(n):
    return np.kron(np.eye(n), [[0.0, 1.0], [-1.0, 0.0]])


def tsang_caves(m, w, kappa, gamma):
    """``G``, ``C`` and the force direction of the Tsang-Caves loop, in the
    quadratures (q, p, a_q, a_p, c_q, c_p)."""
    g = kappa / np.sqrt(m * w)
    G = np.zeros((6, 6))
    G[0, 0], G[1, 1], G[4, 4], G[5, 5] = m * w ** 2, 1.0 / m, -w, -w
    G[0, 2] = G[2, 0] = -kappa
    G[2, 4] = G[4, 2] = -g
    C = np.zeros((2, 6))
    C[0, 2] = C[1, 3] = np.sqrt(2.0 * gamma)
    return G, C, np.eye(6)[1]


def interferometer(m, w, lam, L):
    """``G``, ``C`` and the force direction of the interferometer's type-2
    coherent loop, in the quadratures (q1, p1, q2, p2, c_q, c_p).  The arm
    length ``L`` scales only the signal, not the loop."""
    eps = np.sqrt(2.0) * lam / (m * np.sqrt(w ** 2 + np.sqrt(w ** 4 + 4.0 * lam ** 2 / m ** 2)))
    alpha = -lam / (m * eps)
    k = np.sqrt(eps * lam / 2.0)
    G = np.diag([m * w ** 2 - lam, 1.0 / m, m * w ** 2 + lam, 1.0 / m, alpha, alpha])
    G[0, 4] = G[4, 0] = G[0, 5] = G[5, 0] = G[2, 5] = G[5, 2] = -k
    G[2, 4] = G[4, 2] = k
    r, e = np.sqrt(lam), np.sqrt(2.0 * eps)
    C = np.array([[r, 0.0, r, 0.0, e, 0.0], [r, 0.0, -r, 0.0, 0.0, e]])
    return G, C, np.array([0.0, 1.0, 0.0, -1.0, 0.0, 0.0])


def _largest_markov(G, C, b, c):
    """The largest ``|c (A / rho)^k b|`` over ``k`` below the state count,
    relative to ``|c| |b|``, with ``A = Sigma (G + C^T Sigma C / 2)`` and
    ``rho = max(|A|_F, 1)``; ``b`` and ``c`` are a column of ``[B, force]``
    (``B = Sigma C^T Sigma``) and a row of ``C``."""
    A = _sigma(len(G) // 2) @ (G + C.T @ _sigma(len(C) // 2) @ C / 2.0)
    A = A / max(np.linalg.norm(A), 1.0)
    worst, row = 0.0, c
    for _ in range(len(A)):
        worst = max(worst, abs(row @ b))
        row = row @ A
    return worst / (np.linalg.norm(c) * np.linalg.norm(b))


def _noise_input(C, column):
    """Column ``column`` of ``B = Sigma_n C^T Sigma_m``: the drive of one
    field quadrature."""
    return (_sigma(C.shape[1] // 2) @ C.T @ _sigma(len(C) // 2))[:, column]


def test_tsang_caves_loops_evade_back_action_and_hold_a_qnd_pair():
    failures = []
    for params in _draws(14, TSANG_CAVES_DRAWS):
        G, C, force = tsang_caves(*params)
        model = build_system(G, C, channels=[("W", "feedback")], force=force).to_state_space()
        bae = check_bae(model, "W.Q", "W.out.P")
        qnd = find_qnd(model, ["W"], "W.out.P")
        # W.Q is the field's first quadrature, W.out.P the output's second row
        markov = _largest_markov(G, C, _noise_input(C, 0), C[1])
        if not (bae.achieved and bae.method_agreement and qnd.achieved
                and qnd.method_agreement and len(qnd.witnesses) == 2
                and markov <= MARKOV_RTOL):
            failures.append((params.tolist(), bae.achieved, qnd.achieved,
                             len(qnd.witnesses), markov))
    assert failures == []


def test_tsang_caves_qnd_pair_is_the_construction_span():
    # the witnesses span -g p + kappa c_p and g w q + (kappa / m) c_q: every
    # witness lies in that plane, to rounding
    for m, w, kappa, gamma in _draws(15, 20):
        G, C, force = tsang_caves(m, w, kappa, gamma)
        g = kappa / np.sqrt(m * w)
        plane = np.linalg.qr(np.array([[0.0, -g, 0.0, 0.0, 0.0, kappa],
                                       [g * w, 0.0, 0.0, 0.0, kappa / m, 0.0]]).T)[0]
        model = build_system(G, C, channels=[("W", "feedback")], force=force).to_state_space()
        for v in find_qnd(model, ["W"], "W.out.P").witnesses:
            v = np.asarray(v) / np.linalg.norm(v)
            assert np.linalg.norm(v - plane @ (plane.T @ v)) < 1e-8, (m, w, kappa, gamma)


def test_interferometer_loops_evade_back_action_on_both_pairs():
    failures = []
    for params in _draws(16, INTERFEROMETER_DRAWS):
        G, C, force = interferometer(*params)
        model = build_system(G, C, channels=[("W2", "evaluation")],
                             force=force).to_state_space()
        for noise, output, b, c in (("W2.Q", "W2.out.P", _noise_input(C, 0), C[1]),
                                    ("F", "W2.out.Q", force, C[0])):
            verdict = check_bae(model, noise, output)
            markov = _largest_markov(G, C, b, c)
            if not (verdict.achieved and verdict.method_agreement and markov <= MARKOV_RTOL):
                failures.append((params.tolist(), noise, verdict.achieved, markov))
    assert failures == []


def test_the_markov_check_sees_a_detuned_controller():
    # the numpy check is not blind: off the evasion point (the controller at
    # 1.1 w), W.Q reaches W.out.P
    G, C, _ = tsang_caves(1.0, 1.0, 1.0, 2.0)
    G[4, 4] = G[5, 5] = -1.1
    assert _largest_markov(G, C, _noise_input(C, 0), C[1]) > 1e-3
