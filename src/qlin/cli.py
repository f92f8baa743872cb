"""Command-line front end.

Exit codes: 0 success, 2 validation or usage error, 3 numerical
inconsistency (a verdict whose staircase and probe routes disagree).
The ``QLIN_TOL`` environment variable overrides the base factor of the
probe threshold ``base * |left|_F |right|_F / (|A|_F + 1)``; ``--tol``
overrides both.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .core import (
    PortLookupError,
    QuantumLinearSystem,
    ShapeError,
    ValidationError,
    homodyne_split,
)
from .goals import DEFAULT_RESIDUAL_BASE, check_bae, checked_base, find_dfs, find_qnd
from .interconnect import _measurement_loop, _split_widths, cf_type1, cf_type2, direct_mf
from .nogo import verify_nogo
from .scenarios import SCENARIOS
from .serialize import (
    controller_from_dict,
    model_to_dict,
    parse_number,
    system_from_dict,
    system_to_dict,
    verdict_to_dict,
)
from .structural import _subspaces
from .xfer import (
    SingularityError,
    SpectrumCurve,
    noise_power,
    normalized_gw_signal,
    spectrum_csv,
    sql_curve,
    squeezed_variances,
)

USER_ERRORS = (ValidationError, ShapeError, PortLookupError, SingularityError,
               FileNotFoundError, json.JSONDecodeError)


class Inconsistency(RuntimeError):
    pass


def _parse_json(raw: bytes, path: str):
    try:
        return json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError:
        raise ValidationError(f"{path} is not UTF-8 text") from None


def _load_json(path: str):
    with open(path, "rb") as fh:
        return _parse_json(fh.read(), path)


def _number_pair(what: str, text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError(f"{what} expects two comma-separated numbers, got {text!r}")
    return parse_number(what, parts[0]), parse_number(what, parts[1])


def _emit(obj) -> None:
    """Write ``obj`` as JSON to stdout; a non-finite number, which JSON (RFC
    8259) cannot carry, raises ``ValueError`` before anything is written."""
    sys.stdout.write(json.dumps(obj, indent=2, allow_nan=False) + "\n")


def _tol_base(args) -> float:
    if getattr(args, "tol", None) is not None:
        return checked_base(float(args.tol), "--tol")
    if os.environ.get("QLIN_TOL"):
        return checked_base(parse_number("QLIN_TOL", os.environ["QLIN_TOL"]), "QLIN_TOL")
    return DEFAULT_RESIDUAL_BASE


def cmd_scenario(args) -> int:
    if args.name not in SCENARIOS:
        raise ValidationError(
            f"unknown scenario {args.name!r}; available: {', '.join(sorted(SCENARIOS))}")
    builder, defaults = SCENARIOS[args.name]
    params = dict(defaults)
    for kv in args.param or []:
        if "=" not in kv:
            raise ValidationError(f"--param expects k=v, got {kv!r}")
        key, val = kv.split("=", 1)
        if key not in params:
            raise ValidationError(
                f"scenario {args.name!r} has no parameter {key!r}; "
                f"valid: {', '.join(params)}")
        params[key] = parse_number(f"--param {key}", val)
    sysq = builder(**params)
    _emit(system_to_dict(sysq))
    return 0


def cmd_analyze(args) -> int:
    with open(args.path, "rb") as fh:
        raw = fh.read()
    sysq = system_from_dict(_parse_json(raw, args.path))
    base = _tol_base(args)
    model = sysq.to_state_space()
    noise = [ch.label for ch in sysq.channels]
    fields = [label + ".out" for label in noise]
    subspaces = {
        "controllable": {label: _subspaces([model], "in", label)[0].dim for label in noise},
        "observable": {port: _subspaces([model], "out", port)[0].dim for port in fields},
    }
    goals = ["bae", "qnd", "dfs"] if args.goal == "all" else [args.goal]
    verdicts = []
    for goal in goals:
        if goal == "bae":
            if not args.ba_port or not args.output_port:
                raise ValidationError("--ba-port and --output-port are required for BAE")
            verdicts.append(check_bae(model, args.ba_port, args.output_port, base=base))
        elif goal == "qnd":
            verdicts.append(find_qnd(model, noise, args.output_port or fields, base=base))
        elif goal == "dfs":
            verdicts.append(find_dfs(model, noise, fields, base=base))
    report = {
        "system": {
            "modes": sysq.n,
            "channels": [{"label": ch.label, "role": ch.role} for ch in sysq.channels],
            "input_ports": list(model.inputs.names),
            "output_ports": list(model.outputs.names),
        },
        "subspaces": subspaces,
        "verdicts": [verdict_to_dict(v) for v in verdicts],
        "provenance": {
            "input_sha256": hashlib.sha256(raw).hexdigest(),
            "tool_version": __version__,
            "tolerances": {"residual_base": base,
                           "rank": "n^2 * eps * max(|A|_F, |B|_F) (orthogonal staircase)"},
        },
    }
    _emit(report)
    if any(not v.method_agreement for v in verdicts):
        raise Inconsistency("staircase and probe routes disagree")
    return 0


def _extract_chi2_kappa(plant: QuantumLinearSystem) -> float:
    """The direct-feedback plant is the squeezing cavity; recover kappa."""
    if plant.n != 1 or plant.m != 1:
        raise ValidationError("direct feedback expects a single-mode, single-port plant")
    c = float(plant.C[0, 0])
    kappa = c * c  # inf when c * c overflows, where ** raises
    if not 0 < kappa < np.inf or not np.allclose(plant.C, np.sqrt(kappa) * np.eye(2), atol=1e-12):
        raise ValidationError("direct feedback expects coupling sqrt(kappa) I")
    G_ref = np.array([[0.0, -kappa / 2], [-kappa / 2, 0.0]])
    if not np.allclose(plant.G, G_ref, atol=1e-12 * max(1.0, kappa)):
        raise ValidationError("direct feedback expects the squeezing-cavity Hamiltonian")
    return kappa


def cmd_closedloop(args) -> int:
    plant = system_from_dict(_load_json(args.plant))
    scheme, ctrl, opts = controller_from_dict(_load_json(args.controller))
    if args.scheme and args.scheme != scheme:
        raise ValidationError(
            f"--scheme {args.scheme} contradicts controller file scheme {scheme}")
    if scheme in ("mf1", "mf2"):
        splits = map(homodyne_split, _split_widths(plant, scheme), opts["selectors"])
        _emit(model_to_dict(_measurement_loop(plant, scheme, ctrl, *splits)))
    elif scheme == "cf1":
        _emit(system_to_dict(cf_type1(plant, ctrl)))
    elif scheme == "cf2":
        _emit(system_to_dict(cf_type2(plant, ctrl)))
    elif scheme == "direct":
        kappa = _extract_chi2_kappa(plant)
        _emit(model_to_dict(direct_mf(kappa, opts["tau"])))
    return 0


def cmd_spectrum(args) -> int:
    sysq = system_from_dict(_load_json(args.path))
    model = sysq.to_state_space()
    if args.gw_normalize:
        lam, L = _number_pair("--gw-normalize", args.gw_normalize)
        tf = normalized_gw_signal(model, args.output, lam, L)
        model, output = tf.realization, "gw"
    else:
        output = args.output
    if args.points < 1:
        raise ValidationError("--points must be >= 1")
    if not 0 < args.omega_min <= args.omega_max < np.inf:
        raise ValidationError("need finite 0 < omega-min <= omega-max (the SQL "
                              "reference diverges at zero)")
    omegas = np.geomspace(args.omega_min, args.omega_max, args.points)
    variances = {}
    for item in args.squeeze or []:
        port, _, r = item.rpartition(":")
        if not port:
            raise ValidationError(f"--squeeze expects port:r, got {item!r}")
        variances.update(squeezed_variances(port, parse_number("--squeeze", r)))
    curve = SpectrumCurve(omegas, noise_power(model, output, variances, omegas),
                          metadata={"variances": variances})
    sql = None
    if args.sql:
        m, L = _number_pair("--sql", args.sql)
        sql = sql_curve(m, L, omegas)
    sys.stdout.write(spectrum_csv(curve, sql))
    return 0


def cmd_nogo(args) -> int:
    sysq = system_from_dict(_load_json(args.path))
    report = verify_nogo(sysq, args.goal, args.scheme, trials=args.trials,
                         seed=args.seed, base=_tol_base(args),
                         plant_id=os.path.basename(args.path))
    _emit(report.to_dict())
    if report.disagreements:
        raise Inconsistency(f"{report.disagreements} trial(s) with route disagreement")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qlin",
        description="Structural analysis of open linear quantum systems")
    p.add_argument("--version", action="version", version=f"qlin {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sc = sub.add_parser("scenario", help="emit a built-in example system as JSON")
    sc.add_argument("name")
    sc.add_argument("--param", action="append", metavar="k=v")
    sc.set_defaults(func=cmd_scenario)

    an = sub.add_parser("analyze", help="run structural and goal analysis on a system file")
    an.add_argument("path")
    an.add_argument("--goal", choices=["all", "bae", "qnd", "dfs"], default="all")
    an.add_argument("--ba-port")
    an.add_argument("--output-port")
    an.add_argument("--tol", type=float)
    an.set_defaults(func=cmd_analyze)

    cl = sub.add_parser("closedloop", help="assemble a feedback loop from plant and controller files")
    cl.add_argument("plant")
    cl.add_argument("controller")
    cl.add_argument("--scheme", choices=["mf1", "mf2", "cf1", "cf2", "direct"])
    cl.set_defaults(func=cmd_closedloop)

    sp = sub.add_parser("spectrum", help="noise power sweep as CSV")
    sp.add_argument("path")
    sp.add_argument("--output", required=True)
    sp.add_argument("--omega-min", type=float, required=True)
    sp.add_argument("--omega-max", type=float, required=True)
    sp.add_argument("--points", type=int, default=50)
    sp.add_argument("--squeeze", action="append", metavar="port:r")
    sp.add_argument("--sql", metavar="m,L")
    sp.add_argument("--gw-normalize", metavar="lam,L")
    sp.set_defaults(func=cmd_spectrum)

    ng = sub.add_parser("nogo", help="randomized no-go validation run")
    ng.add_argument("path")
    ng.add_argument("--goal", choices=["bae", "qnd", "dfs"], required=True)
    ng.add_argument("--scheme", choices=["mf1", "mf2"], required=True)
    ng.add_argument("--trials", type=int, default=500)
    ng.add_argument("--seed", type=int, default=0)
    ng.add_argument("--tol", type=float)
    ng.set_defaults(func=cmd_nogo)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's parser, built on the first :func:`main` call; each
    ``parse_args`` returns a fresh namespace, so calls share no state."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except USER_ERRORS as exc:
        print(f"qlin: error: {exc}", file=sys.stderr)
        return 2
    except Inconsistency as exc:
        print(f"qlin: inconsistency: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
