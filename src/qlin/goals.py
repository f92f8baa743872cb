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

``method_agreement`` holds when every probe meets the staircase's claim; a
verdict whose routes disagree is flagged there rather than silently
resolved.  Residuals are in probe units: the BAE residual is the largest
scaled Markov term ``|C A^k B| / R^(k+1)``, which by Cauchy's estimate is at
most ``max |C (sI - A)^{-1} B|`` on the probe circle.

The staircase route reads the model's memo (``structural._subspaces`` and
``structural._reduced_pair``), so verdicts on one model share each
controllable subspace, observable subspace and reduced pair: ``check_bae``
on a fresh model runs 3 staircases (its ports' two subspaces and the
reduced pair), and ``transfer_zero_equivalence`` inside it none of its own.
The probes are never shared between verdicts and never read the memo's
resolvent entry, which belongs to :mod:`qlin.xfer` alone.

The engines take stacks: ``_verdict`` judges a list of same-dimension models
(``find_qnd`` and ``find_dfs`` pass a list of one) with one stacked
staircase per side, one stacked witness SVD per group of equal subspace
dimensions and one ``_probe`` per group of equal witness counts, so one
verdict makes one ``_probe`` call and a group of no-go loops makes one.
Each stack keeps the memory layout of the one-model operands, so every
verdict has the bits it has alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from .core import StateSpaceModel, _finite_positive
from .structural import (
    Subspace,
    _reduced_pair,
    _eye,
    _hstacked,
    _members,
    _stacked,
    _take,
    _subspace,
    _subspaces,
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
    BAE).  For BAE, ``residual`` is the largest scaled Markov term
    ``|C A^k B| / R^(k+1)`` (``k < N``, ``R = 2 |A|_F + 1`` the probe
    radius) of the pair's controllable-and-observable part, or the direct
    term if larger; each term is at most the largest probe value of
    ``C (sI - A)^{-1} B``, so it shares the units of ``tolerance``, the probe
    threshold ``base * |B|_F |C|_F / (|A|_F + 1)``, which also bounds the
    direct term.  ``dims["overlap"]`` is the dimension of that part, so BAE
    holds iff it is 0 and the direct term is within tolerance.  For achieved
    QND/DFS, ``residual`` is the largest witness probe and ``tolerance`` its
    threshold; otherwise ``residual`` is the obstruction gap (smallest
    singular value separating the candidate space from the goal condition)
    and ``tolerance`` the rank cutoff it is judged against.
    ``method_agreement`` records whether the probes meet the staircase's
    claim (:func:`_probe`): for BAE, whether they see ``C (sI - A)^{-1} B``
    vanish iff the reduced pair is empty; for QND/DFS without witnesses,
    whether they see the least-reached candidate direction driven (or, for
    DFS, seen).
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
    return DEFAULT_RESIDUAL_BASE if base is None else _finite_positive(base, what)


def residual_tolerance(model: StateSpaceModel, input_port: PortArg,
                       output_port: PortArg, base: Optional[float] = None) -> float:
    """Probe threshold ``base * |B|_F |C|_F / (|A|_F + 1)`` of a port pair."""
    return _threshold(checked_base(base), model.b(input_port), model.c(output_port),
                      model._norm_A)


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


def _probe(A: np.ndarray, vanishes: bool, zero, shown, base: float,
           norms: Sequence[float]):
    """Cross-check the staircase's claim on resolvent probes, for one model
    or for a stack of models whose legs have the same shapes.

    ``A`` is one drift matrix or a stack ``(T, n, n)``.  ``zero`` and
    ``shown`` are lists of (left, right) legs, matrices or stacks with the
    leading shape of ``A``, probed as the largest
    ``|left (sI - A)^{-1} right|`` against the zero threshold
    ``base * |left|_F |right|_F / (|A|_F + 1)``.  The staircase claims, for
    every member, that every ``zero`` leg vanishes (``vanishes``) or that
    not all of them do, and that every ``shown`` leg does not vanish.
    Returns whether the probes agree (``method_agreement``) and the largest
    (value, threshold) of the ``zero`` legs: one such pair for one model, a
    list of them for a stack.  ``norms`` holds the members' ``|A|_F``
    (``StateSpaceModel._norm_A``).

    The points lie on the circle ``|s| = R = 2 |A|_F + 1``, at distance at
    least ``R - |A|_F`` from the spectrum, so ``cond(sI - A) <= 3`` and one
    stacked solve serves every member, point and leg.
    """
    lead, n = A.shape[:-2], A.shape[-1]
    legs = zero + shown
    rights = np.concatenate([right for _, right in legs], axis=-1)
    # sI - A member by member, so no temporary is larger than one member's
    M = np.empty(lead + (PROBE_COUNT, n, n), dtype=complex)
    for M_i, A_i, norm in zip(M.reshape(-1, PROBE_COUNT, n, n), _members(A), norms):
        np.multiply(((2.0 * norm + 1.0) * _probe_units())[:, None, None], _eye(n), out=M_i)
        M_i -= A_i
    # the right-hand sides broadcast over the points, as a stack of matrices
    X = np.linalg.solve(M, rights[..., None, :, :])
    legs = [(_members(left), _members(right)) for left, right in legs]
    out = []
    for i, X_i in enumerate(X.reshape((-1,) + X.shape[-3:])):
        probed, col = [], 0
        for left, right in legs:
            vals = left[i] @ X_i[:, :, col:col + right.shape[2]]
            col += right.shape[2]
            probed.append((float(np.max(np.abs(vals))) if vals.size else 0.0,
                           _threshold(base, left[i], right[i], norms[i])))
        zeros = probed[:len(zero)]
        agree = (all(w <= t for w, t in zeros) == vanishes
                 and all(w > t for w, t in probed[len(zero):]))
        out.append((agree, max(zeros)))
    return out if lead else out[0]


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
    legs = [(model.c(output_port), model.b(input_port))]
    empty = _reduced_pair(model, input_port, output_port)[0].shape[0] == 0
    return _probe(model.A, empty, legs, [], base, [model._norm_A])[0]


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
    ctrl = _subspace(model, "in", ba_port)
    Ar, Br, Cr = _reduced_pair(model, ba_port, shot_output)
    D = model.d(shot_output, ba_port)
    direct = float(np.max(np.abs(D))) if D.size else 0.0
    tol = residual_tolerance(model, ba_port, shot_output, base)
    return GoalVerdict(
        goal="BAE",
        achieved=Ar.shape[0] == 0 and direct <= tol,
        witnesses=(),
        residual=max(largest_markov(Ar, Br, Cr, model.nstates,
                                    2.0 * model._norm_A + 1.0), direct),
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


@lru_cache(maxsize=None)
def _whole(n: int) -> Subspace:
    """The whole state space of dimension ``n``, the DFS candidate space
    without ``restrict_to``; built once per dimension and shared, as a
    ``Subspace`` is read-only."""
    return Subspace(n, _eye(n))


def _verdict(goal, models, noise_ports, output, restrict_to, base) -> list[GoalVerdict]:
    """QND/DFS verdicts of models with the same state dimension, on the
    candidate directions that ``drive`` does not reach.

    The columns of ``drive`` span what the goal forbids: ``[B, A Q]`` spans
    the controllable subspace ``Q`` of (A, B), and ``[C^T, A^T Q]`` the
    observable one.  The witnesses ``W`` are the null space of
    ``drive^T @ candidate.basis`` at ``INTERSECT_RTOL * |drive|_F``.  Probe route:
    ``W^T (sI - A)^{-1} B`` (and for DFS ``C (sI - A)^{-1} W``) must vanish,
    and for QND each ``C (sI - A)^{-1} w`` must not.  Without witnesses the
    gap (smallest singular value) is reported, and the least-reached
    candidate direction must not vanish along all of those legs.

    The subspaces come from one stacked staircase per side
    (``structural._subspaces``).  The models whose subspace and candidate
    dimensions agree share one stacked witness SVD, and those whose witness
    counts then agree share one ``_probe``.  The stacks are built and split
    by ``structural._stacked``, ``_hstacked`` and ``_take``, so every verdict
    has the bits it has alone; one model is a stack of one, run on its own
    matrices.
    """
    n = models[0].nstates
    ctrls = _subspaces(models, "in", noise_ports)
    obss = _subspaces(models, "out", output)
    if goal == "DFS":
        cands = [_whole(n) if restrict_to is None else restrict_to] * len(models)
    elif restrict_to is None:
        cands = obss
    else:
        cands = [intersect(obs, restrict_to, INTERSECT_RTOL) for obs in obss]
    verdicts: list = [None] * len(models)
    groups: dict = {}
    for t, (ctrl, obs, cand) in enumerate(zip(ctrls, obss, cands)):
        groups.setdefault((ctrl.dim, obs.dim, cand.dim), []).append(t)

    for (reached, seen, free), members in groups.items():
        dims = {"uncontrollable": n - reached,
                **({"observable": seen} if goal == "QND" else {"unobservable": n - seen})}
        if free == 0:  # nothing to probe
            for t in members:
                verdicts[t] = GoalVerdict(goal, False, (), float("inf"), True,
                                          dims={"witness": 0, **dims})
            continue
        A = _stacked([models[t].A for t in members])
        norms = [models[t]._norm_A for t in members]
        B = _stacked([models[t].b(noise_ports) for t in members])
        C = _stacked([models[t].c(output) for t in members])
        parts = [B, A @ _stacked([ctrls[t].basis for t in members])]
        if goal == "DFS":
            parts += [C.swapaxes(-1, -2),
                      A.swapaxes(-1, -2) @ _stacked([obss[t].basis for t in members])]
        drive = _hstacked(parts)
        cand = _stacked([cands[t].basis for t in members])
        # min(columns of drive, free) values per member; s[i][-1] is read
        # only without witnesses, where drive has at least free columns
        _, s, Vt = np.linalg.svd(drive.swapaxes(-1, -2) @ cand, full_matrices=True)
        s = s.reshape(len(members), -1)
        cutoffs = [INTERSECT_RTOL * float(np.linalg.norm(d)) for d in _members(drive)]
        counts = [int(np.count_nonzero(s_t > c)) for s_t, c in zip(s, cutoffs)]
        for k in dict.fromkeys(counts):  # the members with k witnesses share one probe
            part = [i for i, count in enumerate(counts) if count == k]
            A_k, B_k, C_k, cand_k, Vt_k = (_take(x, part) for x in (A, B, C, cand, Vt))
            W = cand_k @ Vt_k[..., k:, :].swapaxes(-1, -2)
            found = k < free
            # else the least-reached direction
            V = W if found else cand_k @ Vt_k[..., -1:, :].swapaxes(-1, -2)
            zero = [(V.swapaxes(-1, -2), B_k)] + ([(C_k, V)] if goal == "DFS" else [])
            shown = [(C_k, W[..., j:j + 1]) for j in range(free - k)] if goal == "QND" else []
            probes = _probe(A_k, found, zero, shown, base, [norms[i] for i in part])
            for i, W_i, (agree, (worst, tol)) in zip(part, _members(W),
                                                     probes if W.ndim == 3 else [probes]):
                verdicts[members[i]] = GoalVerdict(
                    goal, found, tuple(_normalize_witness(w) for w in W_i.T),
                    worst if found else s[i][-1], agree, dims={"witness": free - k, **dims},
                    tolerance=tol if found else cutoffs[i])
    return verdicts
