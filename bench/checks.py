"""Independent checks of qlin's outputs.

Every check here recomputes what it needs from the inputs with NumPy alone:
closed forms (the SQL), the benchmark's own resolvent solves, and properties
the theory demands (Theorems 1-6 of the measurement-feedback no-go results).
Nothing is compared against a stored copy of an earlier output.  A check
returns a list of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import numpy as np

EPS = np.finfo(float).eps

#: Relative accuracy demanded of a returned QND/DFS witness: its transfer
#: identities must vanish to this fraction of the natural scale
#: |(sI - A)^{-1}| |B| (or |C| |(sI - A)^{-1}|).  qlin decides subspace
#: intersections at an angle scale of 1e-8, so a correct witness sits far
#: below this and a witness tilted out of its subspace by 1e-4 rad fails.
WITNESS_RTOL = 1e-6

#: A transfer path counts as zero when its largest sampled value is below
#: this fraction of |c| |(sI - A)^{-1}| |b|.  Rounding leaves ~N eps there; a
#: live path on the probe circle is of order 1e-2 or more of that scale.
ZERO_PATH_RTOL = 1e-8

#: Safety factor on the first-order float64 error bound of a noise-power
#: value (two independent evaluations, each with its own rounding).
SPECTRUM_SAFETY = 32.0


def sigma(n: int) -> np.ndarray:
    """Commutation matrix of n modes, built independently of qlin.core."""
    out = np.zeros((2 * n, 2 * n))
    for k in range(n):
        out[2 * k, 2 * k + 1] = 1.0
        out[2 * k + 1, 2 * k] = -1.0
    return out


def drift_and_noise(G: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A = Sigma_n (G + C^T Sigma_m C / 2) and B = Sigma_n C^T Sigma_m."""
    n, m = G.shape[0] // 2, C.shape[0] // 2
    Sn, Sm = sigma(n), sigma(m)
    return Sn @ (G + C.T @ Sm @ C / 2.0), Sn @ C.T @ Sm


def probe_points(rng: np.random.Generator, A: np.ndarray, count: int) -> np.ndarray:
    """Seeded points on the circle of radius 2|A| + 1, outside the spectrum."""
    radius = 2.0 * np.linalg.norm(A, 2) + 1.0
    return radius * np.exp(2j * np.pi * rng.random(count))


def resolvent(A: np.ndarray, s: complex) -> np.ndarray:
    return np.linalg.inv(s * np.eye(A.shape[0]) - A)


# ---------------------------------------------------------------- sql_sweep

def sql(m: float, L: float, omega: float) -> float:
    """Standard quantum limit of force sensing, 1 / (2 m L^2 Omega^2)."""
    return 1.0 / (2.0 * m * L ** 2 * omega ** 2)


def check_sql_minimum(best: float, m: float, L: float, omega: float,
                      rtol: float = 0.01) -> list[str]:
    """The coupling-minimised strain noise must reproduce the SQL within 1%."""
    ref = sql(m, L, omega)
    dev = abs(best / ref - 1.0)
    if not np.isfinite(best) or dev > rtol:
        return [f"minimum {best!r} at Omega={omega!r} deviates {dev:.3e} from SQL {ref!r}"]
    return []


# ----------------------------------------------------------------- spectrum

def parse_spectrum_csv(text: str) -> np.ndarray:
    lines = text.strip().split("\n")
    if not lines or lines[0] != "omega,S,S_sql":
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    return np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])


def reference_noise_power(G, C, channel: int, lam: float, L: float,
                          squeeze_r: float, omega: float) -> tuple[float, float]:
    """Strain-referred noise power of the P output of one channel, and its
    float64 error bound.

    The gw row is ``W_out[P] / (2 sqrt(lam) L)``; the squeezed port is the P
    input quadrature of the same channel (variance e^{-2r}/2, its conjugate
    e^{+2r}/2), every other field quadrature is vacuum (1/2) and the force
    is signal, not noise.
    """
    A, B = drift_and_noise(G, C)
    N = A.shape[0]
    scale = 1.0 / (2.0 * np.sqrt(lam) * L)
    row = 2 * channel + 1
    c = scale * C[row]
    d = np.zeros(B.shape[1])
    d[row] = scale
    var = np.full(B.shape[1], 0.5)
    var[2 * channel + 1] = 0.5 * np.exp(-2.0 * squeeze_r)
    var[2 * channel] = 0.5 * np.exp(2.0 * squeeze_r)
    M = 1j * omega * np.eye(N) - A
    Y = np.linalg.solve(M, B.astype(complex))
    x = c @ Y + d
    S = float(np.sum(np.abs(x) ** 2 * var))
    # first-order bound: |dx_k| <= N eps cond(M) |c| |M^-1 b_k| per evaluation
    svals = np.linalg.svd(M, compute_uv=False)
    cond = svals[0] / svals[-1]
    mag = np.linalg.norm(c) * np.linalg.norm(Y, axis=0) + np.abs(d)
    bound = SPECTRUM_SAFETY * N * EPS * cond * float(np.sum(mag ** 2 * var))
    return S, bound


def check_spectrum(table: np.ndarray, omegas: np.ndarray, G, C, channel: int,
                   lam: float, L: float, m: float, squeeze_r: float,
                   sample_rows) -> list[str]:
    """Check a ``qlin spectrum`` table against the request and own solves."""
    fails = []
    if table.ndim != 2 or table.shape != (omegas.size, 3):
        return [f"table has shape {table.shape}, expected ({omegas.size}, 3)"]
    if not np.array_equal(table[:, 0], omegas):
        bad = int(np.argmax(table[:, 0] != omegas))
        fails.append(f"omega column differs from the request at row {bad}")
    ref_sql = 1.0 / (2.0 * m * L ** 2 * omegas ** 2)
    dev = np.max(np.abs(table[:, 2] / ref_sql - 1.0))
    if dev > 4 * EPS:
        fails.append(f"S_sql deviates {dev:.3e} from 1/(2 m L^2 Omega^2)")
    for i in sample_rows:
        S, bound = reference_noise_power(G, C, channel, lam, L, squeeze_r, omegas[i])
        if abs(table[i, 1] - S) > bound:
            fails.append(f"row {i}: S={table[i, 1]!r}, reference {S!r} "
                         f"(|diff| {abs(table[i, 1] - S):.3e} > bound {bound:.3e})")
    return fails


# --------------------------------------------------------------------- nogo

def check_nogo_report(report: dict, trials: int) -> list[str]:
    """Theorems 1-6: no sampled measurement-feedback loop achieves the goal,
    and the verdict routes never disagree."""
    fails = []
    if report.get("trials") != trials:
        fails.append(f"report covers {report.get('trials')} trials, requested {trials}")
    if report.get("violations") != 0:
        fails.append(f"{report.get('violations')} violation(s) of theorem "
                     f"{report.get('theorem')}")
    if report.get("disagreements") != 0:
        fails.append(f"{report.get('disagreements')} route disagreement(s)")
    return fails


def zero_path(A, b, c, d, points) -> tuple[bool, float]:
    """Own decision whether c (sI - A)^{-1} b + d vanishes identically."""
    worst, scale = float(np.max(np.abs(d))) if np.size(d) else 0.0, 0.0
    for s in points:
        R = resolvent(A, s)
        worst = max(worst, float(np.max(np.abs(c @ R @ b + d))))
        scale = max(scale, np.linalg.norm(c) * np.linalg.norm(R, 2) * np.linalg.norm(b))
    return worst <= ZERO_PATH_RTOL * max(scale, EPS), worst


def check_coherent_bae(achieved: bool, A, b, c, d, points, label: str) -> list[str]:
    """A coherent loop built to evade back-action must be judged BAE, and the
    benchmark's own solves must agree that the path is zero."""
    zero, worst = zero_path(A, b, c, d, points)
    fails = []
    if not zero:
        fails.append(f"{label}: own solves find |Xi| = {worst:.3e}, not a zero path")
    if not achieved:
        fails.append(f"{label}: qlin does not find BAE on the coherent loop")
    return fails


# ---------------------------------------------------------- analyze_scaling

def witness_residuals(A, B, C, w, points) -> tuple[float, float]:
    """Relative sizes of w^T (sI-A)^{-1} B and C (sI-A)^{-1} w."""
    left = right = 0.0
    nB, nC = np.linalg.norm(B, 2), np.linalg.norm(C, 2)
    for s in points:
        R = resolvent(A, s)
        nR = np.linalg.norm(R, 2)
        left = max(left, np.linalg.norm(w @ R @ B) / (nR * nB))
        right = max(right, np.linalg.norm(C @ R @ w) / (nR * nC))
    return float(left), float(right)


def check_analyze_report(code: int, report: dict, G, C, expected: dict,
                         ba: tuple[int, int], points) -> list[str]:
    """Check one ``qlin analyze --goal all`` report on a 2-channel system.

    ``expected`` holds the planted witness dimensions ``{"qnd": k, "dfs": k}``.
    ``ba`` is (input column, output row) of the back-action pair, whose
    verdict is compared with the benchmark's own transfer evaluation.
    """
    fails = []
    if code != 0:
        fails.append(f"exit code {code}")
    if report is None:
        return fails + ["no report"]
    verdicts = {v["goal"]: v for v in report["verdicts"]}
    A, B = drift_and_noise(np.asarray(G, float), np.asarray(C, float))
    Cm = np.asarray(C, float)
    col, row = ba
    d = np.eye(Cm.shape[0])[row, col]
    zero, worst = zero_path(A, B[:, col], Cm[row], d, points)
    if verdicts["BAE"]["achieved"] != zero:
        fails.append(f"BAE verdict {verdicts['BAE']['achieved']}, own |Xi| max {worst:.3e}")
    for goal in ("QND", "DFS"):
        v = verdicts[goal]
        want = expected[goal.lower()]
        if len(v["witnesses"]) != want:
            fails.append(f"{goal} dimension {len(v['witnesses'])}, planted {want}")
        for w in v["witnesses"]:
            left, right = witness_residuals(A, B, Cm, np.asarray(w, float), points)
            if left > WITNESS_RTOL:
                fails.append(f"{goal} witness driven by noise: |w^T R B| rel {left:.3e}")
            if goal == "DFS" and right > WITNESS_RTOL:
                fails.append(f"DFS witness visible in output: |C R w| rel {right:.3e}")
    return fails
