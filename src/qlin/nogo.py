"""Randomized empirical validation of the measurement-feedback no-go results.

For a plant that lacks a goal (BAE, QND, or DFS), no sampled classical
controller may produce a closed loop that achieves it.  The harness samples
stabilized controllers and random homodyne selectors, rebuilds the loop per
trial, and counts violations (expected: zero).  A trial's splits and gain
shapes follow ``interconnect._split_widths``, and ``mf_type1``/``mf_type2``
read the controller's input map from the open loop.

Draws come first: each trial's stream gives the Gaussian matrix of each of
its splits, then its controller, in that order.  The splits of one width
are then built from all trials' draws as one stack (one QR, one phase fix,
one realification) and checked as one stack against the split identities
(``MeasurementSplit._stack``).  :func:`random_orthosymplectic` and
:func:`random_split` are the same build on a stack of one.  Every trial's
loop is then assembled, and the loops of one state dimension are judged
together: one stacked staircase per side, and for QND/DFS one stacked
witness SVD and one probe (``goals._verdict``).

One table names the noise ports and judged outputs of the six (scheme, goal)
combinations.  Type-2 BAE (Theorem 4) is one joint zero transfer to the
evaluation signal ``z`` from the feedback field ``W1`` and the conjugate
evaluation noise ``P2`` together.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .core import (
    MeasurementSplit,
    QuantumLinearSystem,
    StateSpaceModel,
    ValidationError,
    _realify,
    homodyne_split,
)
from .goals import GoalVerdict, _verdict, check_bae, checked_base
from .interconnect import (_GAINS, ClassicalController, _split_widths, mf_type1, mf_type2,
                           mf_type2_open_loop)
from .structural import Subspace, _subspaces

__all__ = [
    "NogoReport",
    "THEOREM_INDEX",
    "random_orthosymplectic",
    "random_split",
    "sample_classical_controller",
    "verify_nogo",
]

THEOREM_INDEX = {
    ("mf1", "bae"): 1,
    ("mf1", "qnd"): 2,
    ("mf1", "dfs"): 3,
    ("mf2", "bae"): 4,
    ("mf2", "qnd"): 5,
    ("mf2", "dfs"): 6,
}

#: (scheme, goal) -> (noise input ports, judged outputs), for the loop and for
#: the bare plant alike; type 2 counts the feedback field ``W1`` as noise.
_PORTS = {
    ("mf1", "bae"): ("P", "y"),
    ("mf1", "qnd"): (["Q", "P"], "y"),
    ("mf1", "dfs"): (["Q", "P"], "Wout"),
    ("mf2", "bae"): (["W1", "P2"], "z"),
    ("mf2", "qnd"): (["W1", "Q2", "P2"], ["y", "z"]),
    ("mf2", "dfs"): (["W1", "Q2", "P2"], ["W1out", "W2out"]),
}


@dataclass(frozen=True)
class NogoReport:
    """Outcome of one randomized no-go run.

    ``violations`` counts trials whose closed loop achieved a goal the
    plant (under the same trial's measurement choice) lacks; any nonzero
    count is a bug reproducer.  ``worst_residual_gap`` is the smallest
    failure margin observed across trials: the ``residual`` of each failing
    :class:`~qlin.goals.GoalVerdict`, which for all six theorems is in the
    units of that verdict's ``tolerance`` (for BAE a scaled Markov term
    against the probe threshold, for QND/DFS the obstruction gap against
    the rank cutoff).  ``near_tolerance`` counts the failing trials whose
    residual is within 10x of their tolerance.
    """

    theorem: int
    plant_id: str
    goal: str
    scheme: str
    trials: int
    violations: int
    worst_residual_gap: float
    seed: int
    controller_dim_range: tuple[int, ...]
    near_tolerance: int = 0
    disagreements: int = 0
    hypothesis_skips: int = 0
    residual_base: float = 0.0

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "plant_id": self.plant_id,
            "goal": self.goal,
            "scheme": self.scheme,
            "trials": self.trials,
            "violations": self.violations,
            "worst_residual_gap": (self.worst_residual_gap
                                   if np.isfinite(self.worst_residual_gap) else None),
            "seed": self.seed,
            "controller_dim_range": list(self.controller_dim_range),
            "near_tolerance": self.near_tolerance,
            "disagreements": self.disagreements,
            "hypothesis_skips": self.hypothesis_skips,
            "residual_base": self.residual_base,
        }


def _gaussian(rng: np.random.Generator, m: int) -> np.ndarray:
    """The complex Gaussian ``m x m`` draw behind one random split."""
    return rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))


def _orthosymplectic(Z: np.ndarray) -> np.ndarray:
    """Realified unitaries of a stack of complex matrices: one stacked QR,
    with the phases of ``R``'s diagonal moved into ``Q``."""
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R, axis1=1, axis2=2)
    return _realify(Q * (d / np.abs(d))[:, None, :])


def random_orthosymplectic(rng: np.random.Generator, m: int) -> np.ndarray:
    """Random 2m x 2m orthogonal-symplectic matrix (realified unitary)."""
    return _orthosymplectic(_gaussian(rng, m)[None])[0]


def random_split(rng: np.random.Generator, m: int) -> MeasurementSplit:
    """Random homodyne selector pair from a random orthogonal-symplectic M."""
    return MeasurementSplit._stack(m, _orthosymplectic(_gaussian(rng, m)[None]))[0]


def _dim_range(dims) -> tuple[int, ...]:
    """``controller_dim_range`` as a tuple of ints; anything but a nonempty
    sequence of nonnegative integers is a ``ValidationError`` naming it."""
    try:
        dims = tuple(operator.index(d) for d in dims)
    except TypeError:
        raise ValidationError(
            f"controller_dim_range must be a sequence of integers, got {dims!r}") from None
    if not dims or min(dims) < 0:
        raise ValidationError(
            f"controller_dim_range must be nonempty and nonnegative, got {list(dims)}")
    return dims


def sample_classical_controller(rng: np.random.Generator, plant: QuantumLinearSystem,
                                scheme: str,
                                controller_dim_range: Sequence[int]) -> ClassicalController:
    """Draw a stabilized random controller of a random state dimension.

    ``A_K`` is shifted by a diagonal offset so all eigenvalues have negative
    real part (unstable samples add no evidentiary value and blow up the
    Markov magnitudes); gain matrices are i.i.d. normal scaled by
    ``1/sqrt(dim)``.
    """
    k = int(rng.choice(np.asarray(controller_dim_range, dtype=int)))
    scale = 1.0 / np.sqrt(max(k, 1))
    A_K = rng.normal(size=(k, k)) * scale
    if k:
        shift = np.max(np.linalg.eigvals(A_K).real) + 0.5
        A_K = A_K - shift * np.eye(k)
    widths = _split_widths(plant, scheme)
    B_K = rng.normal(size=(k, widths[0])) * scale
    return ClassicalController(A_K=A_K, B_K=B_K, **{
        name: rng.normal(size=(2 * width, k)) * scale
        for name, width in zip(_GAINS[scheme], widths)})


def _judge(models: Sequence[StateSpaceModel], goal: str, scheme: str,
           restrict: Optional[Subspace], base: float) -> list[GoalVerdict]:
    """The verdicts of models with the same state dimension, in order.

    QND/DFS are one stacked ``goals._verdict``.  BAE is ``check_bae`` per
    model, after one stacked staircase per side has filled every model's
    memo."""
    noise, judged = _PORTS[(scheme, goal)]
    if goal != "bae":
        return _verdict(goal.upper(), models, noise, judged, restrict, base)
    _subspaces(models, "in", noise)
    _subspaces(models, "out", judged)
    # a zero transfer: no witnesses to restrict
    return [check_bae(model, noise, judged, base=base) for model in models]


def _open_loop(plant: QuantumLinearSystem, scheme: str, splits) -> StateSpaceModel:
    """The plant under a trial's measurement choice, without a controller."""
    if scheme == "mf1":
        return plant.to_state_space(splits[0])
    return mf_type2_open_loop(plant, *splits)


@lru_cache(maxsize=None)
def _plant_block(n: int, plant_n: int) -> Subspace:
    """The plant's ``2 plant_n`` coordinates of an ``n``-state loop, where
    QND/DFS witnesses must lie (they must be purely quantum); built once per
    dimension pair and shared, as a ``Subspace`` is read-only."""
    return Subspace(n, np.eye(n, 2 * plant_n))


def verify_nogo(plant: QuantumLinearSystem, goal: str, scheme: str,
                trials: int = 500, seed: int = 0,
                controller_dim_range: Optional[Sequence[int]] = None,
                base: Optional[float] = None,
                plant_id: Optional[str] = None) -> NogoReport:
    """Sample closed loops and verify none achieves a goal the plant lacks.

    Parameters
    ----------
    plant : QuantumLinearSystem
        Must fail the goal standalone (precondition of the no-go results);
        checked first under the canonical all-P homodyne choice.
    goal : {"bae", "qnd", "dfs"}
        Type-2 BAE (Theorem 4) is checked as one joint zero transfer to
        ``z`` from ``(W1, P2)``.
    scheme : {"mf1", "mf2"}
    trials : int
        Nonnegative.
    seed : int
        Nonnegative master seed; per-trial streams are split from it with a
        counter-based generator, so reports are reproducible and trials
        independent.  Every trial draws first (its splits' Gaussian
        matrices, then its controller); the splits of each width are then
        built and checked as one stack.  Next every trial's loop is
        assembled; the loops are judged once per state dimension (QND/DFS
        as one stacked verdict, BAE per loop after one stacked staircase
        per side), and the report is tallied in trial order.
    controller_dim_range : sequence of int, optional
        Controller state dimensions to sample (default 0 .. 2n+2); a
        nonempty sequence of nonnegative integers, checked before any draw.
    base : float, optional
        Probe-threshold base factor (default 1e-9).

    Returns
    -------
    NogoReport
    """
    base = checked_base(base)
    goal = goal.lower()
    scheme = scheme.lower()
    if (scheme, goal) not in THEOREM_INDEX:
        raise ValidationError(f"no theorem covers scheme={scheme!r}, goal={goal!r}")
    if trials < 0 or seed < 0:
        raise ValidationError(f"trials and seed must be nonnegative, got {trials} and {seed}")
    if controller_dim_range is None:
        controller_dim_range = tuple(range(0, 2 * plant.n + 3))
    else:
        controller_dim_range = _dim_range(controller_dim_range)

    widths = _split_widths(plant, scheme)
    canonical = [homodyne_split(width, "P") for width in widths]
    pre = _judge([_open_loop(plant, scheme, canonical)], goal, scheme, None, base)[0]
    if pre.achieved:
        raise ValidationError(
            f"plant already achieves {goal.upper()} standalone; the no-go "
            "hypothesis is unmet")

    violations = 0
    disagreements = 0
    near = 0
    skips = 0
    worst_gap = float("inf")
    assemble = mf_type1 if scheme == "mf1" else mf_type2
    draws = [np.empty((trials, width, width), dtype=complex) for width in widths]
    ctrls = []
    for t, ss in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        rng = np.random.Generator(np.random.Philox(ss))
        for Z, width in zip(draws, widths):
            Z[t] = _gaussian(rng, width)
        ctrls.append(sample_classical_controller(rng, plant, scheme, controller_dim_range))
    stacks = [MeasurementSplit._stack(width, _orthosymplectic(Z))
              for width, Z in zip(widths, draws)]
    loops = [assemble(plant, ctrl, *splits) for ctrl, *splits in zip(ctrls, *stacks)]
    groups: dict[int, list[int]] = {}
    for t, loop in enumerate(loops):
        groups.setdefault(loop.nstates, []).append(t)
    verdicts: list = [None] * trials
    for n, members in groups.items():
        judged = _judge([loops[t] for t in members], goal, scheme, _plant_block(n, plant.n), base)
        for t, verdict in zip(members, judged):
            verdicts[t] = verdict
    for closed, *splits in zip(verdicts, *stacks):
        if not closed.method_agreement:
            disagreements += 1
        if closed.achieved:
            # the theorem only forbids this when the plant fails under the
            # same measurement choice
            bare = _open_loop(plant, scheme, splits)
            plant_v = _judge([bare], goal, scheme, _plant_block(bare.nstates, plant.n), base)[0]
            if plant_v.achieved:
                skips += 1
                continue
            violations += 1
            continue
        worst_gap = min(worst_gap, closed.residual)
        if closed.tolerance > 0 and closed.residual < 10.0 * closed.tolerance:
            near += 1

    return NogoReport(
        theorem=THEOREM_INDEX[(scheme, goal)],
        plant_id=plant_id or f"{plant.n}modes/{plant.m}ch",
        goal=goal,
        scheme=scheme,
        trials=trials,
        violations=violations,
        worst_residual_gap=worst_gap,
        seed=seed,
        controller_dim_range=controller_dim_range,
        near_tolerance=near,
        disagreements=disagreements,
        hypothesis_skips=skips,
        residual_base=base,
    )
