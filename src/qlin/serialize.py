"""File formats: system descriptions, controllers, realizations, reports.

All files are UTF-8 JSON.  Matrices are row-major arrays of arrays of
finite doubles; non-finite entries are rejected on load.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .core import (
    Channel,
    Ports,
    QuantumLinearSystem,
    StateSpaceModel,
    ValidationError,
    build_system,
)
from .goals import GoalVerdict
from .interconnect import ClassicalController, QuantumController

__all__ = [
    "system_to_dict",
    "system_from_dict",
    "model_to_dict",
    "model_from_dict",
    "controller_from_dict",
    "verdict_to_dict",
]


def parse_number(what: str, value: Any, kind=float):
    """``kind(value)``, or a ValidationError naming ``what``."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{what} expects a number, got {value!r}") from None


def _matrix(obj: Any, name: str) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"field {name!r} is not a numeric matrix: {exc}") from None
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"field {name!r} contains NaN or Inf")
    return arr


def _list_field(d: dict, name: str) -> list:
    """An optional list field; absent or null reads as empty."""
    value = d.get(name)
    if value is not None and not isinstance(value, list):
        raise ValidationError(f"field {name!r} must be a list, got {value!r}")
    return value or []


def _selectors(d: dict, name: str):
    """A homodyne selector field (default ``"P"``): ``"Q"``, ``"P"`` or a
    finite angle in radians, or a list of these, one per channel."""
    value = d.get(name, "P")
    for sel in value if isinstance(value, list) else [value]:
        try:
            ok = sel in ("Q", "P") or np.isfinite(float(sel))
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            raise ValidationError(
                f"field {name!r} expects 'Q', 'P' or a finite angle per channel, got {sel!r}")
    return value


def _required_matrix(d: dict, name: str) -> np.ndarray:
    if name not in d:
        raise ValidationError(f"controller description missing field {name!r}")
    return _matrix(d[name], name)


def system_to_dict(sys: QuantumLinearSystem) -> dict:
    out = {
        "modes": sys.n,
        "G": sys.G.tolist(),
        "C": sys.C.tolist(),
        "channels": [{"label": ch.label, "role": ch.role} for ch in sys.channels],
        "mode_labels": list(sys.mode_labels),
    }
    if sys.force is not None:
        out["force"] = sys.force.tolist()
    return out


def system_from_dict(d: dict) -> QuantumLinearSystem:
    if not isinstance(d, dict):
        raise ValidationError("system description must be a JSON object")
    try:
        modes = parse_number("field 'modes'", d["modes"], int)
        G = _matrix(d["G"], "G")
        C = _matrix(d["C"], "C")
    except KeyError as exc:
        raise ValidationError(f"system description missing field {exc}") from None
    if G.shape != (2 * modes, 2 * modes):
        raise ValidationError(
            f"G has shape {G.shape}, expected {(2 * modes, 2 * modes)} for modes={modes}")
    entries = _list_field(d, "channels")
    if not all(isinstance(ch, dict) and "label" in ch for ch in entries):
        raise ValidationError("every channel entry needs a 'label' field")
    channels = [Channel(str(ch["label"]), str(ch.get("role", "environment")))
                for ch in entries]
    force = None
    if d.get("force") is not None:
        force = _matrix(d["force"], "force").reshape(-1)
    labels = tuple(str(s) for s in _list_field(d, "mode_labels"))
    return build_system(G, C, channels=channels, force=force, mode_labels=labels)


def _ports_to_list(ports: Ports) -> list[dict]:
    return [{"name": n, "start": s, "width": w} for n, s, w in ports.entries()]


def model_to_dict(model: StateSpaceModel) -> dict:
    return {
        "A": model.A.tolist(),
        "B": model.B.tolist(),
        "C": model.C.tolist(),
        "D": model.D.tolist(),
        "input_ports": _ports_to_list(model.inputs),
        "output_ports": _ports_to_list(model.outputs),
    }


def model_from_dict(d: dict) -> StateSpaceModel:
    try:
        inputs, outputs = (
            Ports.from_entries((str(e["name"]), parse_number("port 'start'", e["start"], int),
                                parse_number("port 'width'", e["width"], int))
                               for e in d[key])
            for key in ("input_ports", "output_ports"))
        return StateSpaceModel(
            _matrix(d["A"], "A"), _matrix(d["B"], "B"),
            _matrix(d["C"], "C"), _matrix(d["D"], "D"), inputs, outputs)
    except KeyError as exc:
        raise ValidationError(f"realization missing field {exc}") from None


def controller_from_dict(d: dict):
    """Parse a controller file; returns (scheme, controller, options).

    The ``scheme`` field selects the interconnection: ``mf1``/``mf2``
    (classical, with optional homodyne selector lists ``measure`` /
    ``measure_feedback``/``measure_evaluation``), ``cf1``/``cf2``
    (quantum), or ``direct`` (proportional feedback, field ``tau``).
    """
    if not isinstance(d, dict) or "scheme" not in d:
        raise ValidationError("controller description needs a 'scheme' field")
    scheme = str(d["scheme"])
    opts: dict[str, Any] = {}
    if scheme == "mf1":
        ctrl = ClassicalController(_matrix(d.get("A_K", []), "A_K"),
                                   _matrix(d.get("B_K", []), "B_K"),
                                   C_K=_matrix(d["C_K"], "C_K") if "C_K" in d else None)
        opts["measure"] = _selectors(d, "measure")
    elif scheme == "mf2":
        ctrl = ClassicalController(
            _matrix(d.get("A_K", []), "A_K"), _matrix(d.get("B_K", []), "B_K"),
            C_K1=_matrix(d["C_K1"], "C_K1") if "C_K1" in d else None,
            C_K2=_matrix(d["C_K2"], "C_K2") if "C_K2" in d else None)
        opts["measure_feedback"] = _selectors(d, "measure_feedback")
        opts["measure_evaluation"] = _selectors(d, "measure_evaluation")
    elif scheme == "cf1":
        ctrl = QuantumController(_required_matrix(d, "G_K"),
                                 C1=_required_matrix(d, "C1"),
                                 C2=_required_matrix(d, "C2"))
    elif scheme == "cf2":
        ctrl = QuantumController(_required_matrix(d, "G_K"),
                                 C_K=_required_matrix(d, "C_K"),
                                 S=_matrix(d["S"], "S") if "S" in d else None)
    elif scheme == "direct":
        ctrl = None
        opts["tau"] = parse_number("field 'tau'", d.get("tau", 0.0))
    else:
        raise ValidationError(
            f"unknown scheme {scheme!r}; expected mf1, mf2, cf1, cf2, or direct")
    return scheme, ctrl, opts


def verdict_to_dict(v: GoalVerdict) -> dict:
    return {
        "goal": v.goal,
        "achieved": v.achieved,
        "witnesses": [w.tolist() for w in v.witnesses],
        # an infinite obstruction gap (no candidate directions) becomes null
        "residual": v.residual if np.isfinite(v.residual) else None,
        "method_agreement": v.method_agreement,
        "dims": v.dims,
        "tolerance": v.tolerance,
    }
