"""The four workloads: inputs drawn from a seed, rounds of operations, checks.

A workload is built once per process (input generation is part of set-up)
and then hands out rounds.  Every round of a workload holds the same number
of operations of the same kinds, so the share of failed operations is the
same in every run.  Library calls go through the ``qlin`` package namespace
(or ``qlin.cli.main``), the names a user's program would reach.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import qlin
import qlin.cli
from qlin import scenarios, serialize

import checks


@dataclass
class Op:
    """One timed call into qlin and the check of its output."""

    run: Callable[[], object]
    check: Callable[[object], list]
    trials: int = 1
    #: Failures of this operation are the documented Krylov-threshold fault
    #: and count as ``failed``; any other failure makes the run incorrect.
    known_fault: bool = False


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``qlin`` in-process: exit code and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = qlin.cli.main(argv)
    return code, out.getvalue()


def write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


class SqlSweep:
    """Criterion-4 minimisation of strain-referred noise over the coupling,
    one frequency per operation."""

    name = "sql_sweep"
    tail_pct = 95
    warmup = 3
    OMEGA0 = 0.01
    FRACS = np.logspace(-2, 2, 200)

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 1])
        self.m = float(rng.uniform(0.5, 2.0))
        self.L = float(rng.uniform(0.5, 2.0))
        grid = np.geomspace(10 * self.OMEGA0, 1000 * self.OMEGA0, 50)
        self.omegas = grid[rng.permutation(grid.size)]

    def minimise(self, W: float) -> float:
        m, L = self.m, self.L
        best = np.inf
        for frac in self.FRACS:
            lam = frac * m * W ** 2
            plant = scenarios.michelson(scenarios.MichelsonParams(m, self.OMEGA0, lam, L))
            tf = qlin.normalized_gw_signal(plant.to_state_space(), "W2.out.P", lam, L)
            S = qlin.noise_power(tf.realization, "gw", None, W)
            gain = qlin.evaluate(tf, 1j * W)[0, 0] * (-m * L * W ** 2)
            best = min(best, S / abs(gain) ** 2)
        return best

    def round(self, k: int) -> list[Op]:
        """A fifth of the grid, so a run overshoots its time by ~1 s at most."""
        part = self.omegas[(k % 5) * 10:(k % 5 + 1) * 10]
        return [Op(lambda W=W: self.minimise(W),
                   lambda best, W=W: checks.check_sql_minimum(best, self.m, self.L, W))
                for W in part]

    def final_checks(self) -> list[str]:
        return []


class Spectrum:
    """One 2000-point ``qlin spectrum`` request on the CF Michelson loop."""

    name = "spectrum"
    tail_pct = 90
    warmup = 3
    POINTS = 2000
    SAMPLE_ROWS = 8

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 2])
        self.m, self.lam, self.L = (float(x) for x in rng.uniform(0.5, 2.0, 3))
        self.r = float(rng.uniform(0.5, 1.5))
        w0 = scenarios.MichelsonParams().omega
        loop = scenarios.michelson_cf_loop(
            scenarios.MichelsonParams(self.m, w0, self.lam, self.L))
        doc = serialize.system_to_dict(loop)
        path = write_json(os.path.join(workdir, "michelson_cf_loop.json"), doc)
        self.G, self.C = np.asarray(doc["G"]), np.asarray(doc["C"])
        self.channel = [ch["label"] for ch in doc["channels"]].index("W2")
        omin = w0 * 10 ** rng.uniform(0.9, 1.1)
        omax = w0 * 10 ** rng.uniform(2.9, 3.1)
        self.omegas = np.geomspace(omin, omax, self.POINTS)
        self.argv = ["spectrum", path, "--output", "W2.out.P",
                     "--omega-min", repr(omin), "--omega-max", repr(omax),
                     "--points", str(self.POINTS),
                     "--gw-normalize", f"{self.lam!r},{self.L!r}",
                     "--sql", f"{self.m!r},{self.L!r}",
                     "--squeeze", f"W2.P:{self.r!r}"]
        self.rows = np.random.default_rng([seed, 3])

    def check(self, result) -> list[str]:
        code, text = result
        if code != 0:
            return [f"exit code {code}"]
        rows = self.rows.choice(self.POINTS, self.SAMPLE_ROWS, replace=False)
        return checks.check_spectrum(checks.parse_spectrum_csv(text), self.omegas,
                                     self.G, self.C, self.channel, self.lam, self.L,
                                     self.m, self.r, rows)

    def round(self, k: int) -> list[Op]:
        return [Op(lambda: run_cli(self.argv), self.check)]

    def final_checks(self) -> list[str]:
        return []


class Nogo:
    """Criterion-8 (plant, goal, scheme) no-go combinations, one
    ``verify_nogo`` call of a fixed trial count per operation.

    The two BAE combinations (Theorems 1 and 4) are left out: on about one
    trial in 4000-8000 their Markov and geometric routes disagree, so an
    operation would fail on some seeds and not others.  check_bae is still
    exercised by the coherent-loop check and by analyze_scaling.
    """

    name = "nogo"
    tail_pct = 95
    warmup = 4
    TRIALS = 20
    COMBOS = (("optomech_reduced", "qnd", "mf1"), ("optomech_reduced", "dfs", "mf1"),
              ("michelson", "qnd", "mf2"), ("michelson", "dfs", "mf2"))

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.plants = {"optomech_reduced": scenarios.optomech_reduced(),
                       "michelson": scenarios.michelson()}

    def round(self, k: int) -> list[Op]:
        ops = []
        for i, (plant, goal, scheme) in enumerate(self.COMBOS):
            op_seed = int(np.random.SeedSequence([self.seed, k, i]).generate_state(1)[0])
            ops.append(Op(
                lambda p=self.plants[plant], g=goal, s=scheme, n=op_seed:
                    qlin.verify_nogo(p, g, s, trials=self.TRIALS, seed=n).to_dict(),
                lambda report: checks.check_nogo_report(report, self.TRIALS),
                trials=self.TRIALS))
        return ops

    def final_checks(self) -> list[str]:
        """The coherent constructions do achieve BAE on the same plants."""
        rng = np.random.default_rng([self.seed, 4])
        fails = []
        for loop, ba, out in ((scenarios.tsang_caves_loop(1.0, 1.0, 1.0, 2.0), "W.Q", "W.out.P"),
                              (scenarios.michelson_cf_loop(), "W2.Q", "W2.out.P")):
            verdict = qlin.check_bae(loop.to_state_space(), ba, out)
            j = [ch.label for ch in loop.channels].index(ba.split(".")[0])
            A, B = checks.drift_and_noise(np.asarray(loop.G), np.asarray(loop.C))
            fails += checks.check_coherent_bae(
                verdict.achieved, A, B[:, 2 * j], np.asarray(loop.C)[2 * j + 1], 0.0,
                checks.probe_points(rng, A, 4), f"{out} <- {ba}")
        return fails


def dense_system(rng, modes: int):
    """Random symmetric G and dense 2-channel coupling."""
    G = rng.normal(size=(2 * modes, 2 * modes))
    return (G + G.T) / 2.0, rng.normal(size=(4, 2 * modes))


def planted_dfs_system(rng, modes: int):
    """Dense open block plus a closed mode: a DFS of dimension 2."""
    Gi, Ci = dense_system(rng, modes - 1)
    G = np.zeros((2 * modes, 2 * modes))
    G[:-2, :-2] = Gi
    G[-2:, -2:] = rng.normal() * np.eye(2)
    C = np.zeros((4, 2 * modes))
    C[:, :-2] = Ci
    return G, C


def planted_qnd_system(rng, modes: int):
    """A probed-ensemble mode read through W1's Q quadrature (its momentum is
    a QND variable, and W1.P -> W1.out.Q evades back-action) plus a dense
    block coupled to W2 only."""
    Gi, Ci = dense_system(rng, modes - 1)
    G = np.zeros((2 * modes, 2 * modes))
    G[2:, 2:] = Gi
    C = np.zeros((4, 2 * modes))
    C[0, 1] = np.sqrt(1.0 + rng.random())
    C[2:, 2:] = Ci[2:]
    return G, C


class AnalyzeScaling:
    """``qlin analyze --goal all`` on 2-channel systems of N = 4 .. 32 states.

    Systems with N <= 8 are drawn from the workload seed.  The N >= 16
    systems come from a fixed seed: qlin's Krylov threshold gives wrong
    verdicts on many of them, so they are the same in every run and their
    failures count as ``failed``.
    """

    name = "analyze_scaling"
    tail_pct = 99
    warmup = 15
    SEEDED_SIZES = (4, 8)
    FIXED_SIZES = (16, 24, 32)
    FIXED_SEED = 20140624
    VARIANTS = 4
    KINDS = (("dense", dense_system, {"qnd": 0, "dfs": 0}),
             ("dfs", planted_dfs_system, {"qnd": 0, "dfs": 2}),
             ("qnd", planted_qnd_system, {"qnd": 1, "dfs": 0}))
    ARGS = ("--goal", "all", "--ba-port", "W1.P", "--output-port", "W1.out.Q")
    BA = (1, 0)  # input column W1.P, output row W1.out.Q

    def __init__(self, seed: int, workdir: str):
        self.cases = {}  # (variant, N, kind) -> (path, G, C, expected, points, fixed)
        for N in self.SEEDED_SIZES + self.FIXED_SIZES:
            fixed = N in self.FIXED_SIZES
            for v in range(1 if fixed else self.VARIANTS):
                for k, (kind, make, expected) in enumerate(self.KINDS):
                    rng = np.random.default_rng([self.FIXED_SEED if fixed else seed, N, k, v])
                    G, C = make(rng, N // 2)
                    A, _ = checks.drift_and_noise(G, C)
                    doc = {"modes": N // 2, "G": G.tolist(), "C": C.tolist(),
                           "channels": [{"label": "W1"}, {"label": "W2"}]}
                    path = write_json(os.path.join(workdir, f"{kind}{N}_{v}.json"), doc)
                    self.cases[(v, N, kind)] = (path, G, C, expected,
                                                checks.probe_points(rng, A, 4), fixed)

    def _op(self, case) -> Op:
        path, G, C, expected, points, fixed = case

        def check(result):
            code, text = result
            report = json.loads(text) if text else None
            return checks.check_analyze_report(code, report, G, C, expected,
                                               self.BA, points)
        return Op(lambda: run_cli(["analyze", path, *self.ARGS]), check, known_fault=fixed)

    def round(self, k: int) -> list[Op]:
        ops = []
        for N in self.SEEDED_SIZES + self.FIXED_SIZES:
            v = 0 if N in self.FIXED_SIZES else k % self.VARIANTS
            ops += [self._op(self.cases[(v, N, kind)]) for kind, _, _ in self.KINDS]
        return ops

    def final_checks(self) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (SqlSweep, Spectrum, Nogo, AnalyzeScaling)}
