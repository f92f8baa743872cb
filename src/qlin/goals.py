"""Verdict engines for the three structural control goals.

Each goal is decided by two independent routes and cross-checked:

* the controllable and observable subspaces of one orthogonal staircase
  (:func:`qlin.structural.controllable_subspace`, rank cutoff
  ``n^2 * eps * max(|A|_F, |B|_F)``): BAE holds when no part of the pair is
  both controllable and observable; QND/DFS witnesses are the directions
  those subspaces leave out; and
* resolvent probes on the circle ``|s| = 2 |A|_F + 1``: BAE probes
  ``C (sI - A)^{-1} B``; QND and DFS witnesses ``W`` must vanish in
  ``W^T (sI - A)^{-1} B`` (DFS also in ``C (sI - A)^{-1} W``), each QND
  witness must show in ``C (sI - A)^{-1} w``, and without witnesses the
  least-reached candidate direction must not vanish.  A probe is zero
  below ``base * |left|_F |right|_F / (|A|_F + 1)``; there
  ``|(sI - A)^{-1}| <= 1 / (|A|_F + 1)``, so the bound does not grow with N.

A verdict whose routes disagree is flagged through ``method_agreement``
rather than silently resolved.

The staircase route reads the model's memo (``structural._subspace`` and
``structural._reduced_pair``), so verdicts on one model share each
controllable subspace, observable subspace and reduced pair: ``check_bae``
runs 3 staircases, and ``transfer_zero_equivalence`` inside it none of its
own.  The probes are never shared: ``_probe`` runs once per verdict and
never reads the memo's resolvent entry, which belongs to :mod:`qlin.xfer`
alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Optional, Sequence, Union

import numpy as np

from .core import StateSpaceModel, ValidationError
from .structural import (
    Subspace,
    _reduced_pair,
    _subspace,
    controllability_matrix,  # noqa: F401  (the benchmark tracer restores this binding)
    intersect,
    largest_markov,
)

__all__ = [
    "GoalVerdict",
    "residual_tolerance",
    "check_bae",
    "find_qnd",
    "find_dfs",
    "transfer_zero_equivalence",
    "checked_base",
]

#: Base factor of the probe threshold; override per call or via the
#: QLIN_TOL environment variable in the CLI.
DEFAULT_RESIDUAL_BASE = 1e-9

#: Relative cutoff of QND/DFS witness directions and of the intersection
#: with ``restrict_to``: staircase subspaces carry rounding of order
#: eps * cond, so a direction driven below this fraction of the drive norm
#: counts as undriven (the principal-angle tolerance of witness tests).
INTERSECT_RTOL = 1e-8

#: Count and seed of the probe points on the circle |s| = 2 |A|_F + 1.
PROBE_COUNT = 16
PROBE_SEED = 0x5EED

PortArg = Union[str, Sequence[str]]


@dataclass(frozen=True)
class GoalVerdict:
    """Outcome of a BAE/QND/DFS check.

    ``witnesses`` are unit vectors spanning the witness subspace (empty for
    BAE).  For BAE, ``residual`` is the largest Markov parameter of the
    pair (direct term included), computed on its controllable-and-observable
    part, and ``tolerance`` the probe threshold
    ``base * |B|_F |C|_F / (|A|_F + 1)``, which also bounds the direct term;
    ``dims["overlap"]`` is the dimension of that part, so BAE holds iff it
    is 0 and the direct term is within tolerance.  For achieved QND/DFS,
    ``residual`` is the largest witness probe and ``tolerance`` its
    threshold; otherwise ``residual`` is the obstruction gap (smallest
    singular value separating the candidate space from the goal condition)
    and ``tolerance`` the rank cutoff it is judged against.
    ``method_agreement`` records whether the staircase and probe routes
    concurred: for QND/DFS without witnesses, whether the probes see the
    least-reached candidate direction driven (or, for DFS, seen).
    """

    goal: str
    achieved: bool
    witnesses: tuple[np.ndarray, ...]
    residual: float
    method_agreement: bool
    dims: dict = field(default_factory=dict)
    tolerance: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "achieved", bool(self.achieved))
        object.__setattr__(self, "method_agreement", bool(self.method_agreement))
        object.__setattr__(self, "residual", float(self.residual))
        object.__setattr__(self, "tolerance", float(self.tolerance))
        object.__setattr__(self, "dims", {k: (int(v) if np.isscalar(v) else v)
                                          for k, v in self.dims.items()})


def checked_base(base: Optional[float], what: str = "base") -> float:
    """The probe-threshold base factor (default ``DEFAULT_RESIDUAL_BASE``);
    anything but a finite positive number is a ``ValidationError`` that
    names ``what``.  Every public entry point of this module checks its
    ``base`` here once."""
    if base is None:
        return DEFAULT_RESIDUAL_BASE
    if not (np.isfinite(base) and base > 0):
        raise ValidationError(f"{what} must be a finite positive number, got {base!r}")
    return base


def residual_tolerance(model: StateSpaceModel, input_port: PortArg,
                       output_port: PortArg, base: Optional[float] = None) -> float:
    """Probe threshold ``base * |B|_F |C|_F / (|A|_F + 1)`` of a port pair."""
    return _threshold(checked_base(base), model.b(input_port), model.c(output_port),
                      np.linalg.norm(model.A))


def _threshold(base: float, first: np.ndarray, second: np.ndarray, norm_A: float) -> float:
    """The probe zero threshold ``base * |first|_F |second|_F / (|A|_F + 1)``,
    multiplied in that order."""
    return base * np.linalg.norm(first) * np.linalg.norm(second) / (norm_A + 1.0)


@cache
def _probe_units() -> np.ndarray:
    """The probe points on the unit circle, drawn from ``PROBE_SEED`` once
    per process (at the first probe, so a process that never probes does
    not draw them), read-only; a verdict scales them by its radius."""
    units = np.exp(2j * np.pi * np.random.default_rng(PROBE_SEED).random(PROBE_COUNT))
    units.setflags(write=False)
    return units


def _probe(A: np.ndarray, legs, base: float) -> list[tuple[float, float]]:
    """Per (left, right) leg: the largest ``|left (sI - A)^{-1} right|`` and
    its zero threshold ``base * |left|_F |right|_F / (|A|_F + 1)``.

    The points lie on the circle ``|s| = R = 2 |A|_F + 1``, at distance at
    least ``R - |A|_F`` from the spectrum, so ``cond(sI - A) <= 3`` and one
    stacked solve serves every point and leg.
    """
    nA = np.linalg.norm(A)
    rights = np.hstack([right for _, right in legs])
    s = (2.0 * nA + 1.0) * _probe_units()
    X = np.linalg.solve(s[:, None, None] * np.eye(A.shape[0]) - A,
                        np.broadcast_to(rights, (PROBE_COUNT,) + rights.shape))
    out, col = [], 0
    for left, right in legs:
        vals = left @ X[:, :, col:col + right.shape[1]]
        col += right.shape[1]
        out.append((float(np.max(np.abs(vals))) if vals.size else 0.0,
                    _threshold(base, left, right, nA)))
    return out


def _normalize_witness(v: np.ndarray) -> np.ndarray:
    v = v / np.linalg.norm(v)
    nz = np.nonzero(np.abs(v) > 1e-12 * np.max(np.abs(v)))[0]
    if nz.size and v[nz[0]] < 0:
        v = -v
    return v + 0.0  # clear negative zeros


def transfer_zero_equivalence(model: StateSpaceModel, input_port: PortArg,
                              output_port: PortArg, base: Optional[float] = None) -> bool:
    """Check that the staircase and transfer-function probing agree on
    whether the strictly proper path ``C (sI - A)^{-1} B`` vanishes.

    The staircase calls it zero when the reduced pair (controllable, then
    observable) is empty; the probes when ``|C (sI - A)^{-1} B|`` at
    ``PROBE_COUNT`` seeded points on ``|s| = 2 |A|_F + 1`` stays below
    ``base * |B|_F |C|_F / (|A|_F + 1)``.
    """
    base = checked_base(base)
    (worst, tol), = _probe(model.A, [(model.c(output_port), model.b(input_port))], base)
    return (_reduced_pair(model, input_port, output_port)[0].shape[0] == 0) == (worst <= tol)


def check_bae(model: StateSpaceModel, ba_port: PortArg, shot_output: PortArg,
              base: Optional[float] = None) -> GoalVerdict:
    """Decide back-action evasion: zero signal flow from the BA noise to the
    measured output.

    Parameters
    ----------
    model : StateSpaceModel
    ba_port : str or sequence of str
        Input port(s) carrying the back-action (conjugate) noise.
    shot_output : str or sequence of str
        Measured-signal output port(s) (post-selector).
    base : float, optional
        Probe-threshold base factor (default 1e-9).

    Returns
    -------
    GoalVerdict
        ``achieved`` iff no subsystem is both controllable from the BA port
        and observable from the measured output and the direct term is
        within tolerance, equivalently iff all Markov parameters (and the
        direct term) of the pair vanish.
    """
    ctrl = _subspace(model, "in", ba_port)
    Ar, Br, Cr = _reduced_pair(model, ba_port, shot_output)
    D = model.d(shot_output, ba_port)
    direct = float(np.max(np.abs(D))) if D.size else 0.0
    tol = residual_tolerance(model, ba_port, shot_output, base)
    return GoalVerdict(
        goal="BAE",
        achieved=Ar.shape[0] == 0 and direct <= tol,
        witnesses=(),
        residual=max(largest_markov(Ar, Br, Cr, model.nstates), direct),
        method_agreement=transfer_zero_equivalence(model, ba_port, shot_output, base=base),
        dims={"controllable": ctrl.dim,
              "observable": _subspace(model, "out", shot_output).dim,
              "overlap": Ar.shape[0]},
        tolerance=tol,
    )


def find_qnd(model: StateSpaceModel, noise_ports: PortArg, output: PortArg,
             restrict_to: Optional[Subspace] = None,
             base: Optional[float] = None) -> GoalVerdict:
    """Find QND variables: uncontrollable from all noise, observable in the output.

    The witness subspace is the part of the observable subspace (intersected
    with ``restrict_to`` when given, e.g. the plant block of a hybrid loop)
    that the noise does not reach.
    """
    return _verdict("QND", model, noise_ports, output, restrict_to, checked_base(base))


def find_dfs(model: StateSpaceModel, noise_ports: PortArg, output_fields: PortArg,
             restrict_to: Optional[Subspace] = None,
             base: Optional[float] = None) -> GoalVerdict:
    """Find a decoherence-free subsystem: uncontrollable from all input fields
    and invisible in all output fields.

    ``output_fields`` must name full field outputs (pre-measurement), not a
    homodyne signal.
    """
    return _verdict("DFS", model, noise_ports, output_fields, restrict_to,
                    checked_base(base))


def _verdict(goal, model, noise_ports, output, restrict_to, base) -> GoalVerdict:
    """QND/DFS verdict on the candidate directions that ``drive`` does not
    reach.

    The columns of ``drive`` span what the goal forbids: ``[B, A Q]`` spans
    the controllable subspace ``Q`` of (A, B), and ``[C^T, A^T Q]`` the
    observable one.  The witnesses ``W`` are the null space of
    ``drive^T @ candidate.basis`` at ``INTERSECT_RTOL * |drive|_F``.  Probe route:
    ``W^T (sI - A)^{-1} B`` (and for DFS ``C (sI - A)^{-1} W``) must vanish,
    and for QND each ``C (sI - A)^{-1} w`` must not.  Without witnesses the
    gap (smallest singular value) is reported, and the least-reached
    candidate direction must not vanish along all of those legs.
    """
    A, B, C = model.A, model.b(noise_ports), model.c(output)
    ctrl = _subspace(model, "in", noise_ports)
    obs = _subspace(model, "out", output)
    dims = {"uncontrollable": model.nstates - ctrl.dim}
    if goal == "QND":
        drive = np.hstack([B, A @ ctrl.basis])
        candidate = obs if restrict_to is None else intersect(obs, restrict_to, INTERSECT_RTOL)
        dims["observable"] = obs.dim
    else:
        drive = np.hstack([B, A @ ctrl.basis, C.T, A.T @ obs.basis])
        candidate = restrict_to if restrict_to is not None else Subspace(
            model.nstates, np.eye(model.nstates))
        dims["unobservable"] = model.nstates - obs.dim

    if candidate.dim == 0:  # nothing to probe
        return GoalVerdict(goal, False, (), float("inf"), True, dims={"witness": 0, **dims})
    _, s, Vt = np.linalg.svd(drive.T @ candidate.basis, full_matrices=True)
    cutoff = INTERSECT_RTOL * float(np.linalg.norm(drive))
    W = candidate.basis @ Vt[int(np.count_nonzero(s > cutoff)):].T
    dims = {"witness": W.shape[1], **dims}
    V = W if W.shape[1] else candidate.basis @ Vt[-1:].T  # else the least-reached direction
    legs = [(V.T, B)] + ([(C, V)] if goal == "DFS" else [])
    seen = [(C, w[:, None]) for w in W.T] if goal == "QND" else []
    probed = _probe(A, legs + seen, base)
    zero, shown = probed[:len(legs)], probed[len(legs):]
    if not W.shape[1]:
        return GoalVerdict(goal, False, (), s[-1], any(w > t for w, t in zero),
                           dims=dims, tolerance=cutoff)
    worst, tol = max(zero)
    return GoalVerdict(goal, True, tuple(_normalize_witness(w) for w in W.T), worst,
                       all(w <= t for w, t in zero) and all(w > t for w, t in shown),
                       dims=dims, tolerance=tol)
