"""Verdict engines for the three structural control goals.

Each goal is decided by two independent routes, and one function,
:func:`_probe`, cross-checks every verdict:

* the controllable and observable subspaces of one orthogonal staircase
  (:func:`qlin.structural.controllable_subspace`, rank cutoff
  ``n^2 * eps * max(|A|_F, |B|_F)``): BAE holds when no part of the pair is
  both controllable and observable; QND/DFS witnesses are the directions
  those subspaces leave out; and
* resolvent probes on the circle ``|s| = R = 2 |A|_F + 1``.  The staircase
  claims that a list of "zero" legs ``left (sI - A)^{-1} right`` all
  vanish (BAE when the reduced pair is empty: the leg ``(C, B)``; QND/DFS
  with witnesses ``W``: ``W^T (sI - A)^{-1} B``, for DFS also
  ``C (sI - A)^{-1} W``), or that not all of them do (BAE with a live
  pair; QND/DFS without witnesses, for the least-reached candidate
  direction).  Each QND witness must also show in ``C (sI - A)^{-1} w``.
  A probe is zero below ``base * |left|_F |right|_F / (|A|_F + 1)``; there
  ``|(sI - A)^{-1}| <= 1 / (|A|_F + 1)``, so the bound does not grow with N.

The cutoff, radius and threshold rules and the norms they read have one
home, :mod:`qlin.structural` (``_cutoff``, ``_radius``, ``_threshold`` and
``_scales``, which rejects a norm too large to judge); this module imports
them and writes none of them itself.  Its own scales, the witness cutoff
``INTERSECT_RTOL * |drive|_F`` and the witness norm, use the same norm,
``core._frobenius``.

``method_agreement`` holds when every probe meets the staircase's claim; a
verdict whose routes disagree is flagged there rather than silently
resolved.  Residuals are in probe units: the BAE residual is the largest
scaled Markov term ``|C A^k B| / R^(k+1)``, which by Cauchy's estimate is at
most ``max |C (sI - A)^{-1} B|`` on the probe circle.

Every verdict is made by one engine, ``_verdict``, which judges a list of
same-dimension models (``check_bae``, ``find_qnd`` and ``find_dfs`` pass a
list of one; ``verify_nogo`` passes each group of no-go loops).  It reads
both subspaces of every model once, from one stacked staircase per side.
A BAE verdict then reads its model's reduced pair and makes one
``transfer_zero_equivalence`` probe (:func:`_bae`).  QND/DFS verdicts make
one stacked intersection with ``restrict_to`` per observable dimension
(``structural._intersects``), one stacked witness SVD per group of equal
subspace dimensions and one ``_probe`` per group of equal witness counts,
so one verdict makes one ``_probe`` call and a group of no-go loops makes
one.

The staircase route reads the model's memo (``structural._subspaces`` and
``structural._reduced_pair``), so verdicts on one model share each
controllable subspace, observable subspace and reduced pair: ``check_bae``
on a fresh model runs 3 staircases (its ports' two subspaces and the
reduced pair), and ``transfer_zero_equivalence`` inside it none of its own.
The probes are never shared between verdicts and never read the memo's
resolvent entry, which belongs to :mod:`qlin.xfer` alone.

``_verdict`` and ``_probe`` take only stacks: one model is a stack of one,
the views ``[None]`` of its own matrices, so there is no second one-model
path.  ``_probe`` builds every ``sI - A`` of its stack in one broadcast and
takes each leg as one stacked product with one pass of threshold norms.
Each stack keeps the memory layout of the one-model operands, so every
verdict has the bits it has alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Optional, Sequence, Union

import numpy as np

from .core import StateSpaceModel, ValidationError, _frobenius
from .structural import (
    Subspace,
    _coordinates,
    _reduced_pair,
    _eye,
    _groups,
    _intersects,
    _radius,
    _stacked,
    _take,
    _subspaces,
    _threshold,
    controllability_matrix,  # noqa: F401  (the benchmark tracer restores this binding)
    largest_markov,
)

__all__ = [
    "GoalVerdict",
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

#: Entries of a witness below this fraction of its largest entry do not
#: decide its sign.
SIGN_RTOL = 1e-12

#: Count and seed of the probe points on the circle |s| = 2 |A|_F + 1.
PROBE_COUNT = 16
PROBE_SEED = 0x5EED

PortArg = Union[str, Sequence[str]]


@dataclass(frozen=True)
class GoalVerdict:
    """Outcome of a BAE/QND/DFS check.

    ``witnesses`` are unit vectors spanning the witness subspace (empty for
    BAE).  For BAE, ``residual`` is the largest scaled Markov term
    ``|C A^k B| / R^(k+1)`` (``k < N``, ``R = 2 |A|_F + 1`` the probe
    radius) of the pair's controllable-and-observable part, or the direct
    term if larger; each term is at most the largest probe value of
    ``C (sI - A)^{-1} B``, so it shares the units of ``tolerance``, the probe
    threshold ``base * |B|_F |C|_F / (|A|_F + 1)``, which also bounds the
    direct term (the radius and threshold rules are ``structural._radius``
    and ``structural._threshold``).  ``dims["overlap"]`` is the dimension of
    that part, so BAE holds iff it is 0 and the direct term is within
    tolerance.  For achieved QND/DFS, ``residual`` is the largest witness
    probe and ``tolerance`` its threshold; otherwise ``residual`` is the
    obstruction gap (smallest singular value separating the candidate space
    from the goal condition) and ``tolerance`` the rank cutoff it is judged
    against.  The norms of ``A`` and of the port blocks that a tolerance is
    made of are at most ``structural.SCALE_MAX``: a larger one is a
    ``ValidationError`` that names its matrix (``structural._scales``).
    ``method_agreement`` records whether the probes meet the staircase's
    claim (:func:`_probe`): for BAE, whether they see ``C (sI - A)^{-1} B``
    vanish iff the reduced pair is empty; for QND/DFS without witnesses,
    whether they see the least-reached candidate direction driven (or, for
    DFS, seen).  A QND/DFS verdict without candidate directions (``residual``
    inf, ``null`` in JSON) has nothing to probe: it goes unprobed, so its
    ``method_agreement`` is vacuously true.
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
    anything but a finite positive number at most 1 is a ``ValidationError``
    that names ``what``.  Every public entry point of this module checks its
    ``base`` here once.

    The bound 1 loses nothing: on the probe circle every probe is at most
    ``|left|_F |right|_F / (|A|_F + 1)`` (``structural._radius``), so a base
    of 1 already calls every probe zero.  And it keeps every threshold
    finite: with norms at most ``structural.SCALE_MAX``, a threshold is at
    most ``SCALE_MAX^2``, below the float range."""
    if base is not None and not 0 < base <= 1:
        raise ValidationError(f"{what} must be a finite positive number at most 1, got {base!r}")
    return DEFAULT_RESIDUAL_BASE if base is None else float(base)


@cache
def _probe_units() -> np.ndarray:
    """The probe points on the unit circle, drawn from ``PROBE_SEED`` once
    per process (at the first probe, so a process that never probes does
    not draw them), read-only; a verdict scales them by its radius."""
    units = np.exp(2j * np.pi * np.random.default_rng(PROBE_SEED).random(PROBE_COUNT))
    units.setflags(write=False)
    return units


def _probe(A: np.ndarray, vanishes: bool, zero, shown, base: float, norms):
    """Cross-check the staircase's claim on resolvent probes, for a stack of
    models whose legs have the same shapes.

    ``A`` is a stack ``(T, n, n)`` of drift matrices; one model is a stack
    of one, ``model.A[None]``.  ``zero`` and ``shown`` are lists of
    (left, right) legs, stacks of ``T`` matrices, probed as the largest
    ``|left (sI - A)^{-1} right|`` against the zero threshold
    ``base * |left|_F |right|_F / (|A|_F + 1)`` (``structural._threshold``
    of the legs' ``core._frobenius`` norms).  The staircase claims, for
    every member, that every ``zero`` leg vanishes (``vanishes``) or that
    not all of them do, and that every ``shown`` leg does not vanish.
    Returns, per member, whether the probes agree (``method_agreement``) and
    the largest (value, threshold) of the ``zero`` legs: a list of ``T``
    such pairs.  ``norms`` is the array of the members' ``|A|_F``
    (``StateSpaceModel._norm_A``).

    The points lie on the circle ``|s| = R = 2 |A|_F + 1``
    (``structural._radius``), at distance at least ``R - |A|_F`` from the
    spectrum, so ``cond(sI - A) <= 3``.  One broadcast build gives every
    ``sI - A``, one stacked solve serves every member, point and leg, and
    each leg is one stacked ``left @ X`` with one stacked threshold, each
    with the bits of one model alone.
    """
    (T, n), P = A.shape[:2], PROBE_COUNT
    M = (_radius(norms)[:, None] * _probe_units())[:, :, None, None] * _eye(n)
    M -= A[:, None]
    legs = zero + shown
    # every point of a member solves against its right-hand sides: one 3-D
    # stack of right-hand sides, which every numpy reads alike
    rights = np.repeat(np.concatenate([right for _, right in legs], axis=-1), P, axis=0)
    X = np.linalg.solve(M.reshape(T * P, n, n), rights).reshape(T, P, n, rights.shape[-1])
    probed, col = [], 0
    for left, right in legs:
        vals = left[:, None] @ X[..., col:col + right.shape[2]]
        col += right.shape[2]
        tol = _threshold(base, _frobenius(left), _frobenius(right), norms)
        probed.append(zip(np.abs(vals).max((1, 2, 3), initial=0.0).tolist(), tol.tolist()))
    z = len(zero)  # each member's (value, threshold) pairs: its zero legs, then its shown ones
    return [(all(w <= t for w, t in legs[:z]) == vanishes and all(w > t for w, t in legs[z:]),
             max(legs[:z])) for legs in zip(*probed)]


def _normalize_witness(v: np.ndarray) -> np.ndarray:
    """The witness direction ``v`` as a unit vector (``core._frobenius``, the
    norm of the witness cutoff) whose first entry above ``SIGN_RTOL`` of its
    largest is positive."""
    v = v / _frobenius(v[None, None])[0]
    nz = np.nonzero(np.abs(v) > SIGN_RTOL * np.max(np.abs(v)))[0]
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
    legs = [(model.c(output_port)[None], model.b(input_port)[None])]
    empty = _reduced_pair(model, input_port, output_port)[0].shape[0] == 0
    return _probe(model.A[None], empty, legs, [], base, model._norm_A)[0][0]


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
        direct term) of the pair vanish.  ``residual`` is in probe units
        (:class:`GoalVerdict`).
    """
    return _verdict("BAE", [model], ba_port, shot_output, None, checked_base(base))[0]


def _bae(model: StateSpaceModel, ctrl: Subspace, obs: Subspace, ba_port: PortArg,
         shot_output: PortArg, base: float) -> GoalVerdict:
    """The BAE verdict of one model whose port pair has the controllable
    subspace ``ctrl`` and observable subspace ``obs``: its reduced pair
    (from the memo), direct term, probe threshold, scaled Markov residual
    and one ``transfer_zero_equivalence`` probe."""
    Ar, Br, Cr = _reduced_pair(model, ba_port, shot_output)
    direct = float(np.abs(model.d(shot_output, ba_port)).max(initial=0.0))
    tol = _threshold(base, _frobenius(model.b(ba_port)[None]),
                     _frobenius(model.c(shot_output)[None]), model._norm_A)[0]
    return GoalVerdict(
        goal="BAE",
        achieved=Ar.shape[0] == 0 and direct <= tol,
        witnesses=(),
        residual=max(largest_markov(Ar, Br, Cr, model.nstates, _radius(model._norm_A)[0]), direct),
        method_agreement=transfer_zero_equivalence(model, ba_port, shot_output, base=base),
        dims={"controllable": ctrl.dim, "observable": obs.dim, "overlap": Ar.shape[0]},
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
    return _verdict("QND", [model], noise_ports, output, restrict_to, checked_base(base))[0]


def find_dfs(model: StateSpaceModel, noise_ports: PortArg, output_fields: PortArg,
             restrict_to: Optional[Subspace] = None,
             base: Optional[float] = None) -> GoalVerdict:
    """Find a decoherence-free subsystem: uncontrollable from all input fields
    and invisible in all output fields.

    ``output_fields`` must name full field outputs (pre-measurement), not a
    homodyne signal.
    """
    return _verdict("DFS", [model], noise_ports, output_fields, restrict_to,
                    checked_base(base))[0]


def _verdict(goal, models, noise_ports, output, restrict_to, base) -> list[GoalVerdict]:
    """BAE, QND or DFS verdicts of models with the same state dimension:
    every goal verdict is made here.

    Both subspaces of every model come from one stacked staircase per side
    (``structural._subspaces``).  A BAE verdict then reads the model's
    memoised reduced pair (:func:`_bae`); ``restrict_to`` does not apply to
    it, since a zero transfer has no witnesses.  QND/DFS verdicts are made
    on the candidate directions that ``drive`` does not reach.

    The columns of ``drive`` span what the goal forbids: ``[B, A Q]`` spans
    the controllable subspace ``Q`` of (A, B), and ``[C^T, A^T Q]`` the
    observable one.  The witnesses ``W`` are the null space of
    ``drive^T @ candidate.basis`` at ``INTERSECT_RTOL * |drive|_F``
    (``core._frobenius``, the norm of every verdict scale; the scale rules
    live in :mod:`qlin.structural`).  Probe
    route: ``W^T (sI - A)^{-1} B`` (and for DFS ``C (sI - A)^{-1} W``) must
    vanish, and for QND each ``C (sI - A)^{-1} w`` must not.  Without
    witnesses the gap (smallest singular value) is reported, and the
    least-reached candidate direction must not vanish along all of those
    legs.  Without candidate directions there is nothing to probe: the
    verdict is unprobed, its ``residual`` inf and its ``method_agreement``
    vacuously true.

    The QND candidates come from one stacked intersection with
    ``restrict_to`` (``structural._intersects``).  The models whose subspace
    and candidate dimensions agree share one stacked witness SVD, and those
    whose witness counts then agree share one ``_probe``.  The stacks are
    built and split by ``structural._stacked``, ``np.concatenate`` and
    ``_take``, so every verdict has the bits it has alone; one model is a
    stack of one, views ``[None]`` of its own matrices.
    """
    n = models[0].nstates
    ctrls = _subspaces(models, "in", noise_ports)
    obss = _subspaces(models, "out", output)
    if goal == "BAE":
        return [_bae(model, ctrl, obs, noise_ports, output, base)
                for model, ctrl, obs in zip(models, ctrls, obss)]
    if goal == "DFS":
        cands = [_coordinates(n, n) if restrict_to is None else restrict_to] * len(models)
    elif restrict_to is None:
        cands = obss
    else:
        cands = _intersects(obss, restrict_to, INTERSECT_RTOL)
    verdicts: list = [None] * len(models)
    groups = _groups((ctrl.dim, obs.dim, cand.dim) for ctrl, obs, cand in zip(ctrls, obss, cands))
    for (reached, seen, free), members in groups.items():
        dims = {"uncontrollable": n - reached,
                **({"observable": seen} if goal == "QND" else {"unobservable": n - seen})}
        if free == 0:  # nothing to probe
            for t in members:
                verdicts[t] = GoalVerdict(goal, False, (), float("inf"), True,
                                          dims={"witness": 0, **dims})
            continue
        A = _stacked([models[t].A for t in members])
        norms = np.concatenate([models[t]._norm_A for t in members])
        B = _stacked([models[t].b(noise_ports) for t in members])
        C = _stacked([models[t].c(output) for t in members])
        parts = [B, A @ _stacked([ctrls[t].basis for t in members])]
        if goal == "DFS":
            parts += [C.swapaxes(-1, -2),
                      A.swapaxes(-1, -2) @ _stacked([obss[t].basis for t in members])]
        # each member has the layout of its one-model np.hstack
        drive = np.concatenate(parts, axis=-1)
        cand = _stacked([cands[t].basis for t in members])
        # min(columns of drive, free) values per member; s[i][-1] is read
        # only without witnesses, where drive has at least free columns
        _, s, Vt = np.linalg.svd(drive.swapaxes(-1, -2) @ cand, full_matrices=True)
        cutoffs = INTERSECT_RTOL * _frobenius(drive)
        counts = (s > cutoffs[:, None]).sum(axis=1)
        for k, part in _groups(counts.tolist()).items():  # those with k witnesses share one probe
            A_k, B_k, C_k, cand_k, Vt_k = (_take(x, part) for x in (A, B, C, cand, Vt))
            W = cand_k @ Vt_k[..., k:, :].swapaxes(-1, -2)
            found = k < free
            # else the least-reached direction
            V = W if found else cand_k @ Vt_k[..., -1:, :].swapaxes(-1, -2)
            zero = [(V.swapaxes(-1, -2), B_k)] + ([(C_k, V)] if goal == "DFS" else [])
            shown = [(C_k, W[..., j:j + 1]) for j in range(free - k)] if goal == "QND" else []
            probes = _probe(A_k, found, zero, shown, base, norms[part])
            for i, W_i, (agree, (worst, tol)) in zip(part, W, probes):
                verdicts[members[i]] = GoalVerdict(
                    goal, found, tuple(_normalize_witness(w) for w in W_i.T),
                    worst if found else s[i][-1], agree, dims={"witness": free - k, **dims},
                    tolerance=tol if found else cutoffs[i])
    return verdicts
