"""Print one sha256 per output suite of a qlin tree, to show that a change
leaves qlin's outputs byte-identical.

The suites:

* ``nogo``: the ``verify_nogo(...).to_dict()`` reports of the six (scheme,
  goal) combinations (mf1 on ``optomech_reduced``, mf2 on ``michelson``) at
  seeds 0, 1, 2 and 20240811, 150 trials each;
* ``analyze``: the stdout, stderr and exit code of ``qlin analyze`` on every
  built-in scenario with ``--goal qnd``, ``--goal dfs``, and ``--goal all``
  on the first channel's ``.Q``/``.out.P`` ports;
* ``spectrum``: one 2000-point ``qlin spectrum`` CSV of
  ``michelson_cf_loop`` with ``--gw-normalize``, ``--sql`` and
  ``--squeeze``, the shape of the benchmark's request;
* ``closedloop``: the stdout, stderr and exit code of ``qlin closedloop``
  with one controller per scheme (mf1 and cf1 on ``optomech_reduced``, mf2
  and cf2 on ``michelson``, direct on the squeezing cavity) and a
  zero-state mf1 controller;
* ``library``: the bits of library results the CLI does not print, on
  valid inputs: ``realizability_defect`` of seeded pairs; for every
  built-in scenario its ``realizability_defect``,
  its ``quadrature_to_complex`` (or the error text) and, on the first
  channel's ``.Q``/``.out.P`` pair, ``reduce_pair``, ``markov_parameters``,
  ``controllability_matrix``, ``observability_matrix`` and both
  ``kalman_decompose`` kinds; ``complex_to_quadrature`` of
  ``lambda_memory``'s complex form; ``sample_classical_controller`` at 5
  seeds per scheme; ``span_of``, ``kernel``, ``intersect``,
  ``complement`` and ``principal_angles`` on seeded subspaces;
  ``quadrature_to_complex`` (or the error text) of seeded complex-linear
  systems (1-3 modes, 0-3 channels), each also with one drift entry and
  then one coupling row perturbed by 0.5 and 2 times its tolerance; the
  ``entries()`` of the input and output registries (and the feedthrough)
  of every ``core._layout`` kind, for 1-4 channels, with and without a
  force and, for ``"mf2"``, at every feedback count; and ``noise_power``
  with a variance map on a grid.

Usage::

    python tools/output_hashes.py [TREE]

``TREE`` (default: this checkout) is a directory whose ``src/`` holds the
``qlin`` package, such as one made by ``git archive <ref> | tar -x -C TREE``.
Two trees give the same JSON iff every suite's outputs are the same bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

NOGO_SEEDS = (0, 1, 2, 20240811)
NOGO_TRIALS = 150


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode("utf-8")).hexdigest()


def _cli(qlin, argv: list[str]) -> list:
    """``qlin argv`` in this process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qlin.cli.main(argv)
    return [code, out.getvalue(), err.getvalue()]


def nogo_reports(qlin) -> list[dict]:
    sc = qlin.scenarios
    return [qlin.verify_nogo(plant, goal, scheme, trials=NOGO_TRIALS, seed=seed).to_dict()
            for scheme, plant in (("mf1", sc.optomech_reduced()), ("mf2", sc.michelson()))
            for goal in ("bae", "qnd", "dfs") for seed in NOGO_SEEDS]


def _write(workdir: str, name: str, doc) -> str:
    """Write ``doc`` as JSON to ``workdir/name``; returns the path."""
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def analyze_runs(qlin, workdir: str) -> list:
    runs = []
    for name, (builder, defaults) in sorted(qlin.scenarios.SCENARIOS.items()):
        doc = qlin.serialize.system_to_dict(builder(**defaults))
        path = _write(workdir, f"{name}.json", doc)
        ch = doc["channels"][0]["label"]
        bae = ["--ba-port", f"{ch}.Q", "--output-port", f"{ch}.out.P"]
        for extra in (["--goal", "qnd"], ["--goal", "dfs"], ["--goal", "all", *bae]):
            runs.append([name, extra, *_cli(qlin, ["analyze", path, *extra])])
    return runs


def spectrum_run(qlin, workdir: str) -> list:
    sc = qlin.scenarios
    w0 = sc.MichelsonParams().omega
    loop = sc.michelson_cf_loop(sc.MichelsonParams(1.3, w0, 0.9, 1.1))
    path = _write(workdir, "michelson_cf_loop.json", qlin.serialize.system_to_dict(loop))
    return _cli(qlin, ["spectrum", path, "--output", "W2.out.P",
                       "--omega-min", repr(w0 * 10.0), "--omega-max", repr(w0 * 1e3),
                       "--points", "2000", "--gw-normalize", "0.9,1.1", "--sql", "1.3,1.1",
                       "--squeeze", "W2.P:1.0"])


def closedloop_runs(qlin, workdir: str) -> list:
    sc = qlin.scenarios
    optomech = _write(workdir, "optomech_reduced.json",
                      qlin.serialize.system_to_dict(sc.optomech_reduced()))
    michelson = _write(workdir, "michelson.json", qlin.serialize.system_to_dict(sc.michelson()))
    # the squeezing cavity of direct feedback, kappa = 1
    cavity = _write(workdir, "cavity.json", {
        "modes": 1, "G": [[0.0, -0.5], [-0.5, 0.0]], "C": [[1.0, 0.0], [0.0, 1.0]],
        "channels": [{"label": "W", "role": "feedback"}]})
    cf2 = sc.michelson_cf_controller(sc.MichelsonParams())
    controllers = [
        (optomech, {"scheme": "mf1", "A_K": [[-1.0, 0.5], [0.0, -2.0]], "B_K": [[1.0], [0.5]],
                    "C_K": [[0.3, -0.2], [0.1, 0.4]], "measure": 0.3}),
        (optomech, {"scheme": "mf1", "A_K": [], "B_K": [], "C_K": [[], []]}),
        (michelson, {"scheme": "mf2", "A_K": [[-1.5, 0.25], [-0.5, -1.0]],
                     "B_K": [[0.7], [-0.3]], "C_K1": [[0.2, 0.1], [-0.4, 0.3]],
                     "C_K2": [[0.5, -0.1], [0.2, 0.6]], "measure_feedback": "Q",
                     "measure_evaluation": 0.3}),
        (optomech, {"scheme": "cf1", "G_K": [[1.0, 0.2], [0.2, 0.5]],
                    "C1": [[0.3, 0.0], [0.1, 0.2]], "C2": [[-0.3, 0.1], [0.0, 0.4]]}),
        (michelson, {"scheme": "cf2", "G_K": cf2.G_K.tolist(), "C_K": cf2.C_K.tolist(),
                     "S": cf2.S.tolist()}),
        (cavity, {"scheme": "direct", "tau": 0.5}),
    ]
    runs = []
    for i, (plant, doc) in enumerate(controllers):
        ctrl = _write(workdir, f"controller{i}.json", doc)
        runs.append([doc["scheme"], *_cli(qlin, ["closedloop", plant, ctrl])])
    return runs


LIBRARY_SEEDS = range(5)


def _bits(x):
    """``x`` as JSON that holds every bit of its arrays and floats: an array
    is its dtype, shape and the hex of its bytes, and a tuple or list the
    list of its items."""
    if isinstance(x, np.ndarray):
        return [str(x.dtype), list(x.shape), np.ascontiguousarray(x).tobytes().hex()]
    if isinstance(x, (tuple, list)):
        return [_bits(item) for item in x]
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    return x


def _attempt(call):
    """``call()``, or the type and text of the error it raises."""
    try:
        return call()
    except ValueError as exc:
        return [type(exc).__name__, str(exc)]


def library_results(qlin) -> list:
    sc, st = qlin.scenarios, qlin.structural
    out = []
    for name, (builder, defaults) in sorted(sc.SCENARIOS.items()):
        system = builder(**defaults)
        model = system.to_state_space()
        label = system.channels[0].label
        port, output = f"{label}.Q", f"{label}.out.P"
        kalman = [st.kalman_decompose(model, p, kind) for p, kind in
                  ((port, "controllable"), (output, "observable"))]
        out.append([name, qlin.realizability_defect(system.A, system.C),
                    _attempt(lambda: qlin.quadrature_to_complex(system)),
                    st.reduce_pair(model.A, model.b(port), model.c(output)),
                    qlin.markov_parameters(model, port, output),
                    qlin.controllability_matrix(model, port),
                    qlin.observability_matrix(model, output),
                    [[k.T, k.block_structure, k.transformed.A, k.transformed.B, k.transformed.C,
                      k.transformed.D] for k in kalman]])
    memory = qlin.complex_to_quadrature(*qlin.quadrature_to_complex(sc.lambda_memory()))
    out.append(["complex_to_quadrature", memory.G, memory.C])
    for scheme, plant in (("mf1", sc.optomech_reduced()), ("mf2", sc.michelson())):
        for seed in LIBRARY_SEEDS:
            ctrl = qlin.nogo.sample_classical_controller(
                np.random.default_rng(seed), plant, scheme, range(0, 2 * plant.n + 3))
            out.append([scheme, seed, ctrl.A_K, ctrl.B_K, ctrl.C_K, ctrl.C_K1, ctrl.C_K2])
    rng = np.random.default_rng(20240811)
    # the scenarios are realizable, with a defect of 0: seeded pairs that are not
    out.append([qlin.realizability_defect(rng.normal(size=(2 * n, 2 * n)),
                                          rng.normal(size=(2 * m, 2 * n)))
                for n, m in ((1, 1), (2, 1), (3, 2), (4, 3))])
    for n, da, db in ((3, 1, 2), (4, 2, 3), (6, 3, 4), (8, 5, 5)):
        a, b = st.span_of(rng.normal(size=(n, da))), st.span_of(rng.normal(size=(n, db)))
        null = st.kernel(rng.normal(size=(n - db, n)))
        out.append([n, a.basis, b.basis, null.basis, st.intersect(a, b).basis,
                    st.intersect(b, null).basis, st.complement(a).basis,
                    st.principal_angles(a, b), st.principal_angles(a, null)])
    out.extend(_complex_forms(qlin, rng))
    for m in range(1, 5):
        labels = tuple(f"W{j + 1}" for j in range(m))
        for kind, feedback in [("raw", 0), ("split", 0)] + [("mf2", k) for k in range(m + 1)]:
            for force in (False, True):
                inputs, outputs, D = qlin.core._layout(kind, labels, force, feedback)
                out.append([kind, m, force, feedback, inputs.entries(), outputs.entries(), D])
    model = sc.michelson().to_state_space()
    out.append(qlin.noise_power(model, "W2.out.P", {"W1": 0.7, "W2.Q": 2.5, "F": 3.0},
                                omega=np.geomspace(1e-3, 10.0, 7), exclude=()))
    return _bits(out)


def _complex_forms(qlin, rng) -> list:
    """``quadrature_to_complex`` (or its error) of seeded passive
    complex-linear systems ``F = -iH - L^H L / 2``, and of each with one
    drift entry (through ``G``) or one coupling row's P entry moved by 0.5
    and 2 times the tolerance the check scales to that matrix."""
    tol, out = 1e-10, []
    for n in (1, 2, 3):
        for m in range(4):
            H = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            L = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
            F = -0.5j * (H + H.conj().T) - 0.5 * L.conj().T @ L
            system = qlin.complex_to_quadrature(F, L)
            out.append([n, m, _attempt(lambda: qlin.quadrature_to_complex(system, tol))])
            for k in (0.5, 2.0):
                G = system.G.copy()
                G[0, 0] += k * tol * max(np.linalg.norm(system.A), 1.0)
                cases = [(G, system.C)]
                if m:
                    C = system.C.copy()
                    C[2 * (m - 1), 1] += k * tol * max(np.linalg.norm(system.C), 1.0)
                    cases.append((system.G, C))
                for G, C in cases:
                    moved = qlin.build_system(G, C)
                    out.append([n, m, k, _attempt(lambda: qlin.quadrature_to_complex(moved, tol))])
    return out


def hashes(tree: str) -> dict:
    """The digest of each suite, with ``qlin`` imported from ``tree/src``."""
    sys.path.insert(0, os.path.join(os.path.abspath(tree), "src"))
    import qlin
    import qlin.cli
    import qlin.nogo

    src = os.path.join(os.path.abspath(tree), "src", "qlin")
    if os.path.dirname(os.path.abspath(qlin.__file__)) != src:
        raise SystemExit(f"qlin was imported from {qlin.__file__}, not from {src}")
    with tempfile.TemporaryDirectory() as workdir:
        return {"nogo": _digest(nogo_reports(qlin)),
                "analyze": _digest(analyze_runs(qlin, workdir)),
                "spectrum": _digest(spectrum_run(qlin, workdir)),
                "closedloop": _digest(closedloop_runs(qlin, workdir)),
                "library": _digest(library_results(qlin))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", nargs="?", default=ROOT, help="checkout whose src/ holds qlin")
    args = parser.parse_args(argv)
    print(json.dumps(hashes(args.tree), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
