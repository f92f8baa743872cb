"""Malformed and extreme input files: every field of four scenario files and
of one controller file per scheme, mutated, through ``analyze``,
``spectrum``, ``nogo`` and ``closedloop`` in this process with every warning
an error.  Each run exits 0, 2 or 3, and what it prints carries no
non-finite number."""

import contextlib
import copy
import io
import json
import warnings

import numpy as np

from qlin import scenarios as sc
from qlin.cli import main
from qlin.serialize import system_to_dict

#: Each value replaces a whole field and, separately, its first entry.
MUTATIONS = {
    "wrong type": {"x": 1.0},
    "string": "abc",
    "+1e308": 1e308,
    "-1e308": -1e308,
    "1e160": 1e160,
    "ragged": [[1.0], [1.0, 2.0]],
    "empty": [],
}

#: Scenario -> the scheme its nogo and closedloop runs take.
SCENARIO_SCHEMES = {"optomech_reduced": "mf1", "michelson": "mf2",
                    "two_port_cavity": "mf2", "michelson_cf_loop": "mf1"}

MF1 = {"scheme": "mf1", "A_K": [[-1.0, 0.5], [0.0, -2.0]], "B_K": [[1.0], [0.5]],
       "C_K": [[0.3, -0.2], [0.1, 0.4]], "measure": 0.3}
MF2 = {"scheme": "mf2", "A_K": [[-1.5, 0.25], [-0.5, -1.0]], "B_K": [[0.7], [-0.3]],
       "C_K1": [[0.2, 0.1], [-0.4, 0.3]], "C_K2": [[0.5, -0.1], [0.2, 0.6]],
       "measure_feedback": "Q", "measure_evaluation": 0.3}
CF1 = {"scheme": "cf1", "G_K": [[1.0, 0.2], [0.2, 0.5]], "C1": [[0.3, 0.0], [0.1, 0.2]],
       "C2": [[-0.3, 0.1], [0.0, 0.4]]}
CF2 = {"scheme": "cf2", "G_K": [[0.5, 0.0], [0.0, 0.5]], "C_K": [[1.0, 0.0], [0.0, 1.0]],
       "S": [[0.0, 1.0], [-1.0, 0.0]]}
DIRECT = {"scheme": "direct", "tau": 0.5}
#: The squeezing cavity of direct feedback, kappa = 1.
CAVITY = {"modes": 1, "G": [[0.0, -0.5], [-0.5, 0.0]], "C": [[1.0, 0.0], [0.0, 1.0]],
          "channels": [{"label": "W", "role": "feedback"}]}


def _mutants(doc: dict):
    """``(what, mutated doc)`` for each field and value of ``MUTATIONS``, on
    the whole field and on its first entry (the first leaf of a nested
    list, or the first value of an object)."""
    for field in doc:
        for name, value in MUTATIONS.items():
            whole = copy.deepcopy(doc)
            whole[field] = value
            yield f"{field} = {name}", whole
            entry = copy.deepcopy(doc)
            parent, key = entry, field
            while isinstance(parent[key], (list, dict)) and parent[key]:
                parent, key = parent[key], 0 if isinstance(parent[key], list) else next(
                    iter(parent[key]))
            if parent is not entry:
                parent[key] = value
                yield f"first entry of {field} = {name}", entry


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _faults(what: str, argv) -> list[str]:
    """The faults of one in-process ``qlin`` run on an input mutated as
    ``what``: an exception or warning out of ``main``, an exit code outside
    {0, 2, 3} (or other than 0 on the unmutated input), or stdout that
    carries a non-finite number."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
    except Exception as exc:  # a traceback is the fault this test looks for
        return [f"{type(exc).__name__}: {exc}"]
    faults = [] if code in ((0,) if what == "unmutated" else (0, 2, 3)) else [
        f"exit {code}: {err.getvalue()}"]
    text = out.getvalue()
    if argv[0] == "spectrum":
        # omega and S; the S_sql column reads nan when no --sql is asked for
        values = [float(x) for line in text.splitlines()[1:] for x in line.split(",")[:2]]
        faults += [] if np.all(np.isfinite(values)) else ["non-finite omega or S in the CSV"]
    elif text:
        try:
            json.loads(text, parse_constant=_reject_constant)
        except ValueError as exc:
            faults.append(str(exc))
    return faults


def _write(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def test_mutated_inputs_exit_0_2_or_3_with_finite_output(tmp_path):
    faults = []
    controllers = {"mf1": MF1, "mf2": MF2}
    for name, scheme in SCENARIO_SCHEMES.items():
        builder, defaults = sc.SCENARIOS[name]
        doc = system_to_dict(builder(**defaults))
        ch = doc["channels"][0]["label"]
        ctrl = _write(tmp_path / f"{name}-ctrl.json", controllers[scheme])
        for what, mutant in [("unmutated", doc), *_mutants(doc)]:
            path = _write(tmp_path / "plant.json", mutant)
            for argv in (
                    ["analyze", path, "--goal", "all", "--ba-port", f"{ch}.Q",
                     "--output-port", f"{ch}.out.P"],
                    ["spectrum", path, "--output", f"{ch}.out.P", "--omega-min", "0.1",
                     "--omega-max", "10", "--points", "4"],
                    ["nogo", path, "--goal", "qnd", "--scheme", scheme, "--trials", "1"],
                    ["closedloop", path, ctrl]):
                faults += [f"{name}: {what}: {argv[0]}: {f}" for f in _faults(what, argv)]
    plants = {"mf1": system_to_dict(sc.optomech_reduced()), "mf2": system_to_dict(sc.michelson()),
              "cf1": system_to_dict(sc.optomech_full()), "cf2": system_to_dict(sc.michelson()),
              "direct": CAVITY}
    for doc in (MF1, MF2, CF1, CF2, DIRECT):
        plant = _write(tmp_path / f"{doc['scheme']}-plant.json", plants[doc["scheme"]])
        for what, mutant in [("unmutated", doc), *_mutants(doc)]:
            ctrl = _write(tmp_path / "ctrl.json", mutant)
            faults += [f"{doc['scheme']}: {what}: {f}"
                       for f in _faults(what, ["closedloop", plant, ctrl])]
    assert not faults, "\n".join(faults)
