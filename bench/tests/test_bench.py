"""Tests of the benchmark itself: its independent checks, its tracer and
the shape of its output.

    python3 -m pytest bench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import qlin  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qlin import scenarios  # noqa: E402


def analyze(tmp_path, make, seed=5, modes=2):
    rng = np.random.default_rng(seed)
    G, C = make(rng, modes)
    path = workloads.write_json(str(tmp_path / "sys.json"), {
        "modes": modes, "G": G.tolist(), "C": C.tolist(),
        "channels": [{"label": "W1"}, {"label": "W2"}]})
    code, text = workloads.run_cli(["analyze", path, *workloads.AnalyzeScaling.ARGS])
    A, _ = checks.drift_and_noise(G, C)
    return code, json.loads(text), G, C, checks.probe_points(rng, A, 4)


def verdict(report, goal):
    return next(v for v in report["verdicts"] if v["goal"] == goal)


def test_analyze_check_rejects_flipped_bae(tmp_path):
    code, report, G, C, pts = analyze(tmp_path, workloads.planted_qnd_system)
    expected = {"qnd": 1, "dfs": 0}
    assert verdict(report, "BAE")["achieved"]
    assert checks.check_analyze_report(code, report, G, C, expected, (1, 0), pts) == []
    verdict(report, "BAE")["achieved"] = False
    fails = checks.check_analyze_report(code, report, G, C, expected, (1, 0), pts)
    assert any("BAE verdict" in f for f in fails)


def test_analyze_check_rejects_rotated_dfs_witness(tmp_path):
    code, report, G, C, pts = analyze(tmp_path, workloads.planted_dfs_system)
    expected = {"qnd": 0, "dfs": 2}
    assert checks.check_analyze_report(code, report, G, C, expected, (1, 0), pts) == []
    w = np.asarray(verdict(report, "DFS")["witnesses"][0])
    u = np.random.default_rng(1).normal(size=w.size)
    u -= (u @ w) * w
    theta = 1e-4
    tilted = np.cos(theta) * w + np.sin(theta) * u / np.linalg.norm(u)
    verdict(report, "DFS")["witnesses"][0] = tilted.tolist()
    fails = checks.check_analyze_report(code, report, G, C, expected, (1, 0), pts)
    assert any("DFS witness" in f for f in fails)


def test_analyze_check_rejects_missing_planted_dimension(tmp_path):
    code, report, G, C, pts = analyze(tmp_path, workloads.planted_qnd_system)
    verdict(report, "QND")["witnesses"] = []
    fails = checks.check_analyze_report(code, report, G, C, {"qnd": 1, "dfs": 0}, (1, 0), pts)
    assert any("QND dimension" in f for f in fails)


def test_spectrum_check_rejects_row_off_by_1e6_relative(tmp_path):
    wl = workloads.Spectrum(7, str(tmp_path))
    code, text = workloads.run_cli(wl.argv)
    assert code == 0
    table = checks.parse_spectrum_csv(text)
    rows = [0, 777, 1999]
    args = (wl.omegas, wl.G, wl.C, wl.channel, wl.lam, wl.L, wl.m, wl.r, rows)
    assert checks.check_spectrum(table, *args) == []
    bad = table.copy()
    bad[777, 1] *= 1.0 + 1e-6
    assert any("row 777" in f for f in checks.check_spectrum(bad, *args))
    short = table[:-1]
    assert checks.check_spectrum(short, *args)
    grid = table.copy()
    grid[5, 0] = np.nextafter(grid[5, 0], 1.0)
    assert any("omega column" in f for f in checks.check_spectrum(grid, *args))
    sql = table.copy()
    sql[3, 2] *= 1.0 + 1e-9
    assert any("S_sql" in f for f in checks.check_spectrum(sql, *args))


def test_nogo_check_rejects_one_violation():
    report = qlin.verify_nogo(scenarios.optomech_reduced(), "qnd", "mf1",
                              trials=5, seed=3).to_dict()
    assert checks.check_nogo_report(report, 5) == []
    assert checks.check_nogo_report(dict(report, violations=1), 5)
    assert checks.check_nogo_report(dict(report, disagreements=1), 5)
    assert checks.check_nogo_report(report, 6)


def test_sql_check_rejects_two_percent_off():
    wl = workloads.SqlSweep(2, "")
    W = wl.omegas[0]
    best = wl.minimise(W)
    assert checks.check_sql_minimum(best, wl.m, wl.L, W) == []
    assert checks.check_sql_minimum(best * 1.02, wl.m, wl.L, W)


def test_coherent_bae_check_needs_both_routes():
    loop = scenarios.tsang_caves_loop(1.0, 1.0, 1.0, 2.0)
    A, B = checks.drift_and_noise(np.asarray(loop.G), np.asarray(loop.C))
    pts = checks.probe_points(np.random.default_rng(0), A, 4)
    C = np.asarray(loop.C)
    assert checks.check_coherent_bae(True, A, B[:, 0], C[1], 0.0, pts, "W.out.P") == []
    assert checks.check_coherent_bae(False, A, B[:, 0], C[1], 0.0, pts, "W.out.P")
    # the P -> out.P path is live (the shot-noise all-pass), so not BAE
    assert checks.check_coherent_bae(True, A, B[:, 1], C[1], 1.0, pts, "W.out.P")


def test_tracer_restores_every_binding():
    before = (qlin.goals.controllability_matrix, qlin.core.sigma, qlin.evaluate,
              qlin.core.QuantumLinearSystem.__dict__["to_state_space"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        qlin.check_bae(scenarios.tsang_caves_loop().to_state_space(), "W.Q", "W.out.P")
        assert qlin.goals.controllability_matrix is not before[0]
    finally:
        tracer.uninstall()
    after = (qlin.goals.controllability_matrix, qlin.core.sigma, qlin.evaluate,
             qlin.core.QuantumLinearSystem.__dict__["to_state_space"])
    assert all(a is b for a, b in zip(before, after))
    totals = tracer.self_times()
    assert totals["goals.check_bae"][0] == 1
    assert totals["goals.transfer_zero_equivalence"][0] == 1
    assert all(s >= -1e-9 for _, s in totals.values())


def test_tail_percentile_leaves_ten_beyond():
    for pct in (90, 95, 99):
        n = run.min_ops(pct)
        assert n - 1 - run.tail_rank(n, pct) >= 10


def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_output_names_every_metric_with_unit(trace, key):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "analyze_scaling",
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in bench_json()[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "nogo", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
