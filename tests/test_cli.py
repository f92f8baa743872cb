import argparse
import json
from collections import Counter

import numpy as np
import pytest

from conftest import random_system
from qlin import (
    ClassicalController,
    QuantumController,
    ValidationError,
    cf_type1,
    check_bae,
    cli,
    goals,
    homodyne_split,
    mf_type2,
    structural,
    xfer,
)
from qlin import scenarios as sc
from qlin.cli import main
from qlin.serialize import model_from_dict, model_to_dict, system_from_dict, system_to_dict


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_scenario_emits_reference_matrices(capsys):
    code, out, _ = run_cli(capsys, "scenario", "michelson")
    assert code == 0
    sys_back = system_from_dict(json.loads(out))
    ref = sc.michelson()
    assert np.allclose(sys_back.G, ref.G)
    assert np.allclose(sys_back.C, ref.C)


def test_scenario_param_override(capsys):
    code, out, _ = run_cli(capsys, "scenario", "two_port_cavity",
                           "--param", "kappa1=2.0")
    assert code == 0
    sys_back = system_from_dict(json.loads(out))
    assert np.allclose(sys_back.A, -3.0 * np.eye(2))


def test_scenario_unknown_name(capsys):
    code, _, err = run_cli(capsys, "scenario", "not_a_scenario")
    assert code == 2
    assert "available" in err

    code, _, err = run_cli(capsys, "scenario", "michelson", "--param", "m=abc")
    assert code == 2
    assert "--param m" in err


def test_analyze_memory_reports_dfs(tmp_path, capsys):
    path = write_json(tmp_path, "mem.json", system_to_dict(sc.lambda_memory(1.0, 0.5, 1.0)))
    code, out, _ = run_cli(capsys, "analyze", path, "--goal", "dfs")
    assert code == 0
    report = json.loads(out)
    verdict = report["verdicts"][0]
    assert verdict["goal"] == "DFS"
    assert verdict["achieved"] is True
    assert len(verdict["witnesses"]) == 2
    assert report["provenance"]["tool_version"]
    assert "residual_base" in report["provenance"]["tolerances"]


def test_analyze_uncoupled_system_trivial_verdicts(tmp_path, capsys):
    sys_json = {
        "modes": 1,
        "G": [[1.0, 0.0], [0.0, 1.0]],
        "C": [[0.0, 0.0], [0.0, 0.0]],
        "channels": [{"label": "W", "role": "environment"}],
    }
    path = write_json(tmp_path, "sys.json", sys_json)
    code, out, _ = run_cli(capsys, "analyze", path, "--goal", "all",
                           "--ba-port", "W.Q", "--output-port", "W.out.P")
    assert code == 0
    report = json.loads(out)
    by_goal = {v["goal"]: v for v in report["verdicts"]}
    assert by_goal["BAE"]["achieved"] is True      # no back-action path at all
    assert by_goal["DFS"]["achieved"] is True      # everything is decoupled
    assert by_goal["QND"]["achieved"] is False     # nothing shows in the output
    assert all(v["method_agreement"] for v in report["verdicts"])


def test_analyze_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert "error" in err

    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"modes": 1, "note": "\u00e9"}'.encode("latin-1"))
    unlabeled = system_to_dict(sc.michelson())
    del unlabeled["channels"][0]["label"]
    bad_modes = dict(system_to_dict(sc.michelson()), modes="abc")
    scalar_channels = dict(system_to_dict(sc.michelson()), channels=5)
    scalar_labels = dict(system_to_dict(sc.michelson()), mode_labels=5)
    for argv in (["analyze", str(latin1)],
                 ["spectrum", str(latin1), "--output", "W.out.P",
                  "--omega-min", "1", "--omega-max", "2"],
                 ["analyze", write_json(tmp_path, "unlabeled.json", unlabeled)],
                 ["analyze", write_json(tmp_path, "modes.json", bad_modes)],
                 ["analyze", write_json(tmp_path, "channels.json", scalar_channels)],
                 ["analyze", write_json(tmp_path, "labels.json", scalar_labels)]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert "error" in err


def test_analyze_bae_requires_ports(tmp_path, capsys):
    path = write_json(tmp_path, "m.json", system_to_dict(sc.michelson()))
    code, _, err = run_cli(capsys, "analyze", path, "--goal", "bae")
    assert code == 2
    assert "ba-port" in err


def test_closedloop_cf2_matches_reference(tmp_path, capsys):
    plant = write_json(tmp_path, "plant.json", system_to_dict(sc.michelson()))
    ctrl_obj = sc.michelson_cf_controller(sc.MichelsonParams())
    ctrl = write_json(tmp_path, "ctrl.json", {
        "scheme": "cf2",
        "G_K": ctrl_obj.G_K.tolist(),
        "C_K": ctrl_obj.C_K.tolist(),
        "S": ctrl_obj.S.tolist(),
    })
    code, out, _ = run_cli(capsys, "closedloop", plant, ctrl)
    assert code == 0
    loop = system_from_dict(json.loads(out))
    ref = sc.michelson_cf_loop()
    assert np.allclose(loop.A, ref.A)
    assert np.allclose(loop.C, ref.C)
    assert np.allclose(loop.force, ref.force)


def test_closedloop_zero_mf1_echoes_plant(tmp_path, capsys):
    plant_sys = sc.optomech_reduced()
    plant = write_json(tmp_path, "plant.json", system_to_dict(plant_sys))
    ctrl = write_json(tmp_path, "ctrl.json", {
        "scheme": "mf1", "A_K": [], "B_K": [], "C_K": [[], []], "measure": "P"})
    code, out, _ = run_cli(capsys, "closedloop", plant, ctrl)
    assert code == 0
    got = model_from_dict(json.loads(out))
    from qlin import homodyne_split

    ref = plant_sys.to_state_space(homodyne_split(1, "P"))
    assert np.allclose(got.A, ref.A)
    assert np.allclose(got.B, ref.B)
    assert np.allclose(got.C, ref.C)
    assert np.allclose(got.D, ref.D)


def test_closedloop_scheme_mismatch(tmp_path, capsys):
    plant = write_json(tmp_path, "plant.json", system_to_dict(sc.michelson()))
    ctrl = write_json(tmp_path, "ctrl.json", {"scheme": "cf2", "G_K": [[0, 0], [0, 0]],
                                              "C_K": [[0, 0], [0, 0]]})
    code, _, err = run_cli(capsys, "closedloop", plant, ctrl, "--scheme", "mf1")
    assert code == 2
    assert "contradicts" in err

    ctrl = write_json(tmp_path, "cf1.json", {"scheme": "cf1"})
    code, _, err = run_cli(capsys, "closedloop", plant, ctrl)
    assert code == 2
    assert "G_K" in err

    ctrl = write_json(tmp_path, "direct.json", {"scheme": "direct", "tau": "abc"})
    code, _, err = run_cli(capsys, "closedloop", plant, ctrl)
    assert code == 2
    assert "tau" in err

    # a homodyne selector is "Q", "P" or a finite angle, named in the error
    zero_mf1 = {"scheme": "mf1", "A_K": [], "B_K": [], "C_K": [[], [], [], []]}
    zero_mf2 = {"scheme": "mf2", "A_K": [], "B_K": []}
    for i, (ctrl_json, field) in enumerate((
            (dict(zero_mf1, measure="X"), "measure"),
            (dict(zero_mf1, measure=None), "measure"),
            (dict(zero_mf1, measure=["P", float("inf")]), "measure"),
            (dict(zero_mf1, measure=10 ** 400), "measure"),
            (dict(zero_mf1, measure=True), "measure"),
            (dict(zero_mf2, measure_feedback="Z"), "measure_feedback"),
            ({"scheme": "direct", "tau": 10 ** 400}, "tau"))):
        ctrl = write_json(tmp_path, f"selector{i}.json", ctrl_json)
        code, _, err = run_cli(capsys, "closedloop", plant, ctrl)
        assert code == 2, ctrl_json
        assert "qlin: error:" in err and field in err, err


def test_closedloop_flat_controller_that_does_not_fit_exits_2(tmp_path, capsys):
    plant = write_json(tmp_path, "plant.json", system_to_dict(sc.optomech_reduced()))
    for i, (ctrl_json, field) in enumerate((
            ({"scheme": "mf1", "A_K": [], "B_K": [1.0, 2.0], "C_K": [[], []]}, "B_K"),
            ({"scheme": "mf1", "A_K": [[-1.0, 0.0], [0.0, -1.0]], "B_K": [1.0, 2.0, 3.0],
              "C_K": [[1.0, 0.0], [0.0, 1.0]]}, "B_K"),
            ({"scheme": "mf1", "A_K": [[-1.0, 0.0], [0.0, -1.0]], "B_K": [1.0, 2.0],
              "C_K": [1.0, 2.0, 3.0]}, "C_K"))):
        ctrl = write_json(tmp_path, f"flat{i}.json", ctrl_json)
        code, _, err = run_cli(capsys, "closedloop", plant, ctrl)
        assert code == 2, ctrl_json
        assert f"qlin: error: flat {field} has" in err, err


def test_closedloop_mf2_and_cf1_match_the_library(tmp_path, capsys):
    rng = np.random.default_rng(7)
    plant_sys = sc.michelson()
    plant = write_json(tmp_path, "plant.json", system_to_dict(plant_sys))
    A_K = rng.normal(size=(2, 2)) - 3.0 * np.eye(2)
    B_K, C_K1, C_K2 = rng.normal(size=(2, 1)), rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
    ctrl = write_json(tmp_path, "mf2.json", {
        "scheme": "mf2", "A_K": A_K.tolist(), "B_K": B_K.tolist(), "C_K1": C_K1.tolist(),
        "C_K2": C_K2.tolist(), "measure_feedback": "Q", "measure_evaluation": 0.3})
    code, out, _ = run_cli(capsys, "closedloop", plant, ctrl)
    assert code == 0
    got = model_from_dict(json.loads(out))
    ref = mf_type2(plant_sys, ClassicalController(A_K, B_K, C_K1=C_K1, C_K2=C_K2),
                   homodyne_split(1, "Q"), homodyne_split(1, 0.3))
    for name in "ABCD":
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
    assert got.inputs.entries() == ref.inputs.entries()
    assert got.outputs.entries() == ref.outputs.entries()

    G_K = rng.normal(size=(2, 2))
    G_K = G_K + G_K.T
    C1, C2 = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
    ctrl = write_json(tmp_path, "cf1.json", {
        "scheme": "cf1", "G_K": G_K.tolist(), "C1": C1.tolist(), "C2": C2.tolist()})
    code, out, _ = run_cli(capsys, "closedloop", plant, ctrl, "--scheme", "cf1")
    assert code == 0
    got = system_from_dict(json.loads(out))
    ref = cf_type1(plant_sys, QuantumController(G_K=G_K, C1=C1, C2=C2))
    assert np.array_equal(got.G, ref.G)
    assert np.array_equal(got.C, ref.C)
    assert np.array_equal(got.force, ref.force)
    assert got.channels == ref.channels


def test_closedloop_mf2_needs_role_partition(tmp_path, capsys):
    plant = write_json(tmp_path, "plant.json", system_to_dict(sc.optomech_reduced()))
    ctrl = write_json(tmp_path, "ctrl.json", {"scheme": "mf2", "A_K": [], "B_K": []})
    code, _, err = run_cli(capsys, "closedloop", plant, ctrl)
    assert code == 2
    assert "at least one feedback and one evaluation channel" in err


def test_closedloop_direct(tmp_path, capsys):
    kappa = 1.0
    plant_json = {
        "modes": 1,
        "G": [[0.0, -kappa / 2], [-kappa / 2, 0.0]],
        "C": [[np.sqrt(kappa), 0.0], [0.0, np.sqrt(kappa)]],
        "channels": [{"label": "W", "role": "feedback"}],
    }
    plant = write_json(tmp_path, "plant.json", plant_json)
    ctrl = write_json(tmp_path, "ctrl.json", {"scheme": "direct", "tau": 0.0})
    code, out, _ = run_cli(capsys, "closedloop", plant, ctrl)
    assert code == 0
    model = model_from_dict(json.loads(out))
    assert model.nstates == 2


def test_spectrum_basic_and_single_point(tmp_path, capsys):
    path = write_json(tmp_path, "m.json", system_to_dict(sc.michelson()))
    code, out, _ = run_cli(capsys, "spectrum", path, "--output", "W2.out.P",
                           "--omega-min", "0.1", "--omega-max", "10", "--points", "5",
                           "--gw-normalize", "1,1", "--sql", "1,1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "omega,S,S_sql"
    assert len(lines) == 6

    code, out, _ = run_cli(capsys, "spectrum", path, "--output", "W2.out.P",
                           "--omega-min", "1", "--omega-max", "1", "--points", "1")
    assert code == 0
    assert len(out.strip().split("\n")) == 2


def test_spectrum_rejects_zero_omega(tmp_path, capsys):
    path = write_json(tmp_path, "m.json", system_to_dict(sc.michelson()))
    code, _, err = run_cli(capsys, "spectrum", path, "--output", "W2.out.P",
                           "--omega-min", "0", "--omega-max", "1")
    assert code == 2

    for extra in (["--gw-normalize", "abc"], ["--gw-normalize", "1"],
                  ["--squeeze", "W2.P:abc"], ["--sql", "1,x"]):
        code, _, err = run_cli(capsys, "spectrum", path, "--output", "W2.out.P",
                               "--omega-min", "1", "--omega-max", "2", *extra)
        assert code == 2, extra
        assert extra[0] in err

    # non-finite numbers exit 2 rather than with a traceback or a NaN, inf
    # or zero column
    for extra in (["--omega-min", "nan"], ["--omega-max", "inf"], ["--omega-max", "nan"],
                  ["--sql", "nan,1"], ["--sql", "inf,1"], ["--squeeze", "W2.P:inf"],
                  ["--squeeze", "W2.P:nan"], ["--squeeze", "W2.P:800"],
                  ["--gw-normalize", "1,inf"], ["--gw-normalize", "1,1e308"],
                  ["--sql", "1,1e200"], ["--sql", "1,1e-200"], ["--sql", "1e300,1e10"]):
        code, out, err = run_cli(capsys, "spectrum", path, "--output", "W2.out.P",
                                 "--omega-min", "1", "--omega-max", "2", *extra)
        assert (code, out) == (2, ""), extra
        assert "finite" in err, extra


def test_spectrum_squeezed_cf_michelson_below_sql(tmp_path, capsys):
    path = write_json(tmp_path, "cf.json", system_to_dict(sc.michelson_cf_loop()))
    code, out, _ = run_cli(capsys, "spectrum", path, "--output", "W2.out.P",
                           "--omega-min", "0.5", "--omega-max", "10", "--points", "20",
                           "--squeeze", "W2.P:2", "--gw-normalize", "1,1",
                           "--sql", "1,1")
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    for _, s, ref in rows:
        assert float(s) < float(ref)


def test_spectrum_request_solves_one_grid(tmp_path, capsys, monkeypatch):
    calls = []
    solve = xfer._solve_response
    monkeypatch.setattr(xfer, "_solve_response",
                        lambda *args: calls.append(args[-1].size) or solve(*args))
    path = write_json(tmp_path, "cf.json", system_to_dict(sc.michelson_cf_loop()))
    code, out, _ = run_cli(capsys, "spectrum", path, "--output", "W2.out.P",
                           "--omega-min", "0.5", "--omega-max", "10", "--points", "300",
                           "--squeeze", "W2.P:1", "--gw-normalize", "1,1")
    assert code == 0
    assert len(out.strip().split("\n")) == 301
    assert calls == [300]


def test_nogo_cli(tmp_path, capsys):
    path = write_json(tmp_path, "plant.json", system_to_dict(sc.optomech_reduced()))
    code, out, _ = run_cli(capsys, "nogo", path, "--goal", "bae", "--scheme", "mf1",
                           "--trials", "25", "--seed", "1")
    assert code == 0
    report = json.loads(out)
    assert report["violations"] == 0
    assert report["theorem"] == 1
    assert report["trials"] == 25

    code, out, _ = run_cli(capsys, "nogo", path, "--goal", "bae", "--scheme", "mf1",
                           "--trials", "0", "--seed", "1")
    assert code == 0
    assert json.loads(out)["violations"] == 0

    for flag in ("--trials", "--seed"):
        code, _, err = run_cli(capsys, "nogo", path, "--goal", "qnd", "--scheme", "mf1",
                               flag, "-1")
        assert code == 2
        assert "qlin: error:" in err


def test_nogo_cli_hypothesis_violation(tmp_path, capsys):
    path = write_json(tmp_path, "loop.json", system_to_dict(sc.tsang_caves_loop()))
    code, _, err = run_cli(capsys, "nogo", path, "--goal", "bae", "--scheme", "mf1",
                           "--trials", "5", "--seed", "1")
    assert code == 2
    assert "hypothesis" in err


def test_route_disagreement_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(goals, "transfer_zero_equivalence", lambda *args, **kwargs: False)
    path = write_json(tmp_path, "m.json", system_to_dict(sc.michelson()))
    code, out, err = run_cli(capsys, "analyze", path, "--goal", "bae",
                             "--ba-port", "W2.Q", "--output-port", "W2.out.P")
    assert code == 3
    assert json.loads(out)["verdicts"][0]["method_agreement"] is False
    assert "qlin: inconsistency:" in err

    path = write_json(tmp_path, "plant.json", system_to_dict(sc.optomech_reduced()))
    code, out, err = run_cli(capsys, "nogo", path, "--goal", "bae", "--scheme", "mf1",
                             "--trials", "3", "--seed", "1")
    assert code == 3
    assert json.loads(out)["disagreements"] == 3
    assert "qlin: inconsistency: 3 trial(s)" in err


def test_emitted_systems_reingest(capsys):
    for name in sc.SCENARIOS:
        code, out, _ = run_cli(capsys, "scenario", name)
        assert code == 0
        sys_back = system_from_dict(json.loads(out))
        assert sys_back.n >= 1


def test_qlin_tol_env(tmp_path, capsys, monkeypatch):
    path = write_json(tmp_path, "m.json", system_to_dict(sc.lambda_memory()))
    monkeypatch.setenv("QLIN_TOL", "1e-7")
    code, out, _ = run_cli(capsys, "analyze", path, "--goal", "dfs")
    assert code == 0
    assert json.loads(out)["provenance"]["tolerances"]["residual_base"] == 1e-7

    for bad in ("nan", "inf", "-1", "0"):
        code, _, err = run_cli(capsys, "analyze", path, "--goal", "qnd", "--tol", bad)
        assert code == 2
        assert "qlin: error: --tol" in err
        monkeypatch.setenv("QLIN_TOL", bad)
        code, _, err = run_cli(capsys, "analyze", path, "--goal", "qnd")
        assert code == 2
        assert "qlin: error: QLIN_TOL" in err


def test_model_json_roundtrip():
    model = sc.michelson_cf_loop().to_state_space()
    back = model_from_dict(model_to_dict(model))
    assert np.array_equal(back.A, model.A)
    assert np.array_equal(back.D, model.D)
    assert back.inputs.names == model.inputs.names
    assert back.outputs.names == model.outputs.names
    for field in ("start", "width"):
        doc = model_to_dict(model)
        doc["input_ports"][0][field] = "abc"
        with pytest.raises(ValidationError, match=field):
            model_from_dict(doc)


def test_each_staircase_runs_once_per_request(tmp_path, capsys, monkeypatch):
    calls = Counter()

    def count(owner, name):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *args, **kwargs: calls.update([name]) or fn(*args, **kwargs))

    count(structural, "_staircase")
    count(goals, "_probe")
    count(goals, "transfer_zero_equivalence")
    # 1 channel: the subspace table's W and W.out, check_bae's W.Q, W.out.P
    # and reduced pair; find_qnd and find_dfs reuse all of them
    path = write_json(tmp_path, "tc.json", system_to_dict(sc.tsang_caves_loop()))
    code, _, _ = run_cli(capsys, "analyze", path, "--goal", "all",
                         "--ba-port", "W.Q", "--output-port", "W.out.P")
    assert code == 0
    assert calls == {"_staircase": 5, "_probe": 3, "transfer_zero_equivalence": 1}
    # 2 channels: W1, W2, W1.out, W2.out, W1.P, W1.out.Q, the pair, all
    # noise and all outputs
    calls.clear()
    path = write_json(tmp_path, "dense.json",
                      system_to_dict(random_system(np.random.default_rng(8), 4, 2)))
    code, _, _ = run_cli(capsys, "analyze", path, "--goal", "all",
                         "--ba-port", "W1.P", "--output-port", "W1.out.Q")
    assert code == 0
    assert calls == {"_staircase": 9, "_probe": 3, "transfer_zero_equivalence": 1}
    calls.clear()
    check_bae(sc.tsang_caves_loop().to_state_space(), "W.Q", "W.out.P")
    assert calls == {"_staircase": 3, "_probe": 1, "transfer_zero_equivalence": 1}


def test_reused_parser_leaks_no_state(tmp_path, capsys, monkeypatch):
    cf = write_json(tmp_path, "cf.json", system_to_dict(sc.michelson_cf_loop()))
    spectrum = ["spectrum", cf, "--output", "W2.out.P", "--omega-min", "0.5",
                "--omega-max", "10", "--points", "5"]
    requests = [
        [*spectrum, "--squeeze", "W2.P:1"],
        spectrum,  # an append option must not carry the squeeze over
        ["analyze", cf, "--goal", "bae", "--ba-port", "W2.Q", "--tol", "1e-7"],
        ["analyze", cf, "--goal", "dfs"],  # nor an option the last call set
    ]
    main(["scenario", "michelson"])
    capsys.readouterr()
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *args, **kwargs: built.append(1) or init(self, *args, **kwargs))
    reused = [run_cli(capsys, *argv) for argv in requests]
    assert built == []
    assert [code for code, _, _ in reused] == [0, 0, 2, 0]
    assert reused[0][1] != reused[1][1]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert [run_cli(capsys, *argv) for argv in requests] == reused
    assert built
