import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

FIXTURE = '''"""Module docstring
over two lines."""

import os  # a comment


def f(x):
    """Docstring."""
    # a comment line

    y = (x +
         1)
    return "a string, not a docstring"


class K:
    """Class docstring."""

    s = """a string
    that is code"""
'''


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _code_lines():
    return _tool("code_lines")


def test_code_line_counter_leaves_out_docstrings_comments_and_blanks(tmp_path, capsys):
    code_lines = _code_lines()
    # import, def, the two lines of y, return, class, the two lines of s
    assert code_lines.count_source(FIXTURE) == 8
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text('"""Only a docstring."""\n\nX = 1\n')
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    assert capsys.readouterr().out == "9\n"


def test_compare_arithmetic_on_synthetic_pairs():
    compare = _tool("compare")
    parent = [100.0, 120.0, 90.0, 110.0, 80.0]
    change = [130.0, 150.0, 99.0, 100.0, 120.0]
    got = compare.summarize(parent, change)
    # ratios 1.3, 1.25, 1.1, 10/11, 1.5: the median is 1.25 and four win
    assert got["ratios"] == pytest.approx([1.3, 1.25, 1.1, 10 / 11, 1.5])
    assert got["median_ratio"] == pytest.approx(1.25)
    assert got["wins"] == 4 and got["pairs"] == 5
    assert got["parent_median"] == 100.0 and got["change_median"] == 120.0
    # inclusive quartiles of 80, 90, 100, 110, 120: 90 and 110
    assert got["parent_iqr"] == pytest.approx(20.0)
    # one pair: its own quartiles, so no spread; a tie wins neither way
    one = compare.summarize([50.0], [50.0])
    assert (one["parent_iqr"], one["median_ratio"], one["wins"]) == (0.0, 1.0, 0)
    assert compare.summarize([4.0, 6.0], [5.0, 3.0])["parent_iqr"] == pytest.approx(1.0)



def test_compare_alternates_the_trees_and_prints_one_json(monkeypatch, capsys):
    compare = _tool("compare")
    order = []
    speed = {"p": iter([100.0, 90.0, 110.0]), "c": iter([120.0, 99.0, 121.0])}

    def fake_run(tree, workload, seed, seconds):
        order.append(tree)
        return {"correct": True, "metrics": {"ops_per_s": {"value": next(speed[tree])},
                                             "peak_rss_mb": {"value": 40.0}}}

    monkeypatch.setattr(compare, "run_once", fake_run)
    assert compare.main(["--parent", "p", "--change", "c", "--workload", "nogo",
                         "--pairs", "3", "--seconds", "1"]) == 0
    assert order == ["p", "c", "c", "p", "p", "c"]
    out = json.loads(capsys.readouterr().out)
    assert (out["wins"], out["median_ratio"]) == (3, pytest.approx(1.1))
    assert out["parent"] == [100.0, 90.0, 110.0] and out["correct"] is True
    assert out["runs"]["change"][0] == {"ops_per_s": 120.0, "peak_rss_mb": 40.0}



def test_compare_judges_each_metric_by_its_bound_and_direction():
    judge = _tool("compare").judge
    # parent 80..120: median 100, inclusive quartiles 90 and 110
    parent = [100.0, 120.0, 90.0, 110.0, 80.0]
    got = judge(parent, [126.0, 124.0, 130.0], "lower", 0.25)
    assert (got["parent_median"], got["change_median"]) == (100.0, 126.0)
    assert got["parent_iqr"] == pytest.approx(20.0)
    assert (got["verdict"], got["better"], got["bound"]) == ("worse", "lower", 0.25)
    assert judge(parent, [125.0], "lower", 0.25)["verdict"] == "within"  # at the bound
    assert judge(parent, [74.0], "higher", 0.25)["verdict"] == "worse"
    assert judge(parent, [500.0], "higher", 0.25)["verdict"] == "within"  # better
    assert judge(parent, [10.0], "lower", 0.25)["verdict"] == "within"
    # an IQR of 20% of the median is wider than a 10% bound: no verdict either
    # way, unless every change run reads better than every parent run
    assert judge(parent, [500.0], "lower", 0.1)["verdict"] == "unresolved"
    assert judge(parent, [100.0], "lower", 0.1)["verdict"] == "unresolved"
    assert judge(parent, [79.0, 70.0], "lower", 0.1)["verdict"] == "within"
    assert judge(parent, [79.0, 80.0], "lower", 0.1)["verdict"] == "unresolved"  # a tie
    assert judge(parent, [121.0, 130.0], "higher", 0.1)["verdict"] == "within"


def test_compare_reads_bounds_from_the_parent_tree(tmp_path, monkeypatch, capsys):
    compare = _tool("compare")
    (tmp_path / "p").mkdir()
    (tmp_path / "p" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "ops_per_s", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "better": "lower", "bound": 0.25}]}))
    rss = {"p": iter([40.0, 40.0]), "c": iter([45.0, 45.0])}

    def fake_run(tree, workload, seed, seconds):
        side = os.path.basename(tree)
        return {"correct": True, "metrics": {"ops_per_s": {"value": 100.0},
                                             "peak_rss_mb": {"value": next(rss[side])}}}

    monkeypatch.setattr(compare, "run_once", fake_run)
    assert compare.main(["--parent", str(tmp_path / "p"), "--change", str(tmp_path / "c"),
                         "--workload", "nogo", "--pairs", "2", "--seconds", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    # setup_s is declared but not reported, so it is not judged
    assert {m: v["verdict"] for m, v in out["metrics"].items()} == {
        "ops_per_s": "within", "peak_rss_mb": "worse"}
    assert (out["wins"], out["median_ratio"]) == (0, 1.0)  # the ops_per_s keys stay

TINY_MODULE = '''def f(x):
    if x < 0:
        raise ValueError("negative")
    if x > 10:
        raise ValueError(
            "too big")
    return x
'''

TINY_TEST = '''import pytest

from qlin.mod import f


def test_f():
    assert f(1) == 1
    with pytest.raises(ValueError):
        f(-1)
'''


def test_raise_coverage_lists_the_raise_no_test_executes(tmp_path):
    package = tmp_path / "src" / "qlin"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(TINY_MODULE)
    (tmp_path / "test_tiny.py").write_text(TINY_TEST)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "raise_coverage.py")],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(tmp_path / "src")},
        capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    # the second raise, over two lines, is listed by its first; the first ran
    assert lines[-2:] == [f"{os.path.join('src', 'qlin', 'mod.py')}:5: raise ValueError(",
                          "1 of 2 raise statements never executed (pytest exit code 0)"]
    assert "1 passed" in proc.stdout


def test_output_hashes_are_sha256_digests_that_repeat():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "output_hashes.py"), str(ROOT)],
                          capture_output=True, text=True, check=True)
    first = json.loads(proc.stdout)
    assert list(first) == ["nogo", "analyze", "spectrum", "closedloop", "library"]
    assert all(len(h) == 64 and set(h) <= set("0123456789abcdef") for h in first.values())
    # a second run, in this process and another scratch directory
    assert _tool("output_hashes").hashes(str(ROOT)) == first


@pytest.mark.parametrize("module", ["structural.py", "goals.py"])
def test_verdict_layers_have_one_norm(module):
    # every verdict scale is a core._frobenius norm checked by the scale rules
    # of structural; a second norm implementation would round and overflow
    # apart from them
    source = (ROOT / "src" / "qlin" / module).read_text()
    assert "np.linalg.norm" not in source
