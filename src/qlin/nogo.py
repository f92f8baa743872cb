"""Randomized empirical validation of the measurement-feedback no-go results.

For a plant that lacks a goal (BAE, QND, or DFS), no sampled classical
controller may produce a closed loop that achieves it.  The harness samples
stabilized controllers and random homodyne selectors, builds each trial's
loop, and counts violations (expected: zero).  A trial's splits and gain
shapes follow ``interconnect._split_widths``, and the loop assembly
(``interconnect._classical_feedback``) reads the controller's input map
from the open loop.

Draws come first: each trial's stream gives the Gaussian matrix of each of
its splits, then its controller's dimension and matrices, in that order.
The splits of one width are then built from all trials' draws as one stack
(one QR, one phase fix, one realification): its selector rows ``M1`` and
``M2``, checked as one stack against the split identities
(``core._check_splits``) before any loop is built.  The trials of one
controller dimension, so of one loop dimension, are then one stack: one
stacked ``eigvals`` shifts their controllers stable (it consumes no random
numbers, so it may follow the draws), one stacked assembly builds their
open and closed loops, and one ``goals._verdict`` judges them (one stacked
staircase per side; for BAE one reduced pair and probe per loop, for
QND/DFS one stacked intersection, witness SVD and probe).  The same engine
judges the plant's own pre-check and, for each trial whose loop achieves
the goal, the plant under that trial's splits; both bare loops come from
the open-loop builder of the loops (``interconnect._open_stacks``), on the
rows ``[None]`` of the canonical splits and the rows ``[[t]]`` of trial
``t``'s stacks.
:func:`random_orthosymplectic`, :func:`random_split` and
:func:`sample_classical_controller` are the same builds on a stack of one.

One table names the noise ports and judged outputs of the six (scheme, goal)
combinations, in theorem order: row t is Theorem t, and ``THEOREM_INDEX``
is read from the row order.  Type-2 BAE (Theorem 4) is one joint zero
transfer to the evaluation signal ``z`` from the feedback field ``W1`` and
the conjugate evaluation noise ``P2`` together.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    MeasurementSplit,
    QuantumLinearSystem,
    StateSpaceModel,
    ValidationError,
    _check_splits,
    _count,
    _realify,
    homodyne_split,
)
from .goals import _verdict, checked_base
from .interconnect import (_GAINS, ClassicalController, _classical_feedback, _open_stacks,
                           _split_widths)
from .structural import _coordinates, _eye, _groups

__all__ = [
    "NogoReport",
    "THEOREM_INDEX",
    "random_orthosymplectic",
    "random_split",
    "sample_classical_controller",
    "verify_nogo",
]

#: (scheme, goal) -> (noise input ports, judged outputs), for the loop and for
#: the bare plant alike; type 2 counts the feedback field ``W1`` as noise.
#: The row order is the theorem order: row t is Theorem t.
_PORTS = {
    ("mf1", "bae"): ("P", "y"),
    ("mf1", "qnd"): (["Q", "P"], "y"),
    ("mf1", "dfs"): (["Q", "P"], "Wout"),
    ("mf2", "bae"): (["W1", "P2"], "z"),
    ("mf2", "qnd"): (["W1", "Q2", "P2"], ["y", "z"]),
    ("mf2", "dfs"): (["W1", "Q2", "P2"], ["W1out", "W2out"]),
}

THEOREM_INDEX = {key: theorem for theorem, key in enumerate(_PORTS, 1)}


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
        """The report's fields in field order, as JSON values: a non-finite
        ``worst_residual_gap`` is ``None``, ``controller_dim_range`` a list."""
        out = asdict(self)
        if not np.isfinite(self.worst_residual_gap):
            out["worst_residual_gap"] = None
        out["controller_dim_range"] = list(self.controller_dim_range)
        return out


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
    O = random_orthosymplectic(rng, m)
    return MeasurementSplit(m, O[0::2], O[1::2])


def _dim_range(dims) -> tuple[int, ...]:
    """``controller_dim_range`` as a tuple of ints; anything but a nonempty
    sequence of nonnegative integers (each read by ``core._count``) is a
    ``ValidationError`` naming it."""
    try:
        counts = tuple(dims)
    except TypeError:
        counts = ()
    if not counts:
        raise ValidationError(
            f"controller_dim_range must be a nonempty sequence of integers, got {dims!r}")
    return tuple(_count(d, "controller_dim_range entry") for d in counts)


def sample_classical_controller(rng: np.random.Generator, plant: QuantumLinearSystem,
                                scheme: str,
                                controller_dim_range: Sequence[int]) -> ClassicalController:
    """Draw a stabilized random controller of a random state dimension.

    ``A_K`` is shifted by a diagonal offset so all eigenvalues have negative
    real part (unstable samples add no evidentiary value and blow up the
    Markov magnitudes); gain matrices are i.i.d. normal scaled by
    ``1/sqrt(dim)``.  ``controller_dim_range`` is checked as
    :func:`verify_nogo` checks it.
    """
    k, (A_K, B_K, *gains) = _draw(rng, _split_widths(plant, scheme),
                                  _dim_range(controller_dim_range))
    return ClassicalController(_stabilized(A_K[None])[0], B_K,
                               **dict(zip(_GAINS[scheme], gains)))


def _draw(rng: np.random.Generator, widths: Sequence[int], dims) -> tuple:
    """One controller's draws from ``rng``, in stream order: its dimension
    ``k``, and the list of ``A_K`` before its shift, ``B_K`` and one gain
    per split width, each scaled by ``1/sqrt(k)``."""
    # the draw of rng.choice(dims), without its argument checks
    k = int(dims[rng.integers(0, len(dims), dtype=np.int64)])
    scale = 1.0 / np.sqrt(max(k, 1))
    shapes = [(k, k), (k, widths[0])] + [(2 * width, k) for width in widths]
    return k, [rng.normal(size=shape) * scale for shape in shapes]


def _stabilized(A_K: np.ndarray) -> np.ndarray:
    """The stack ``A_K`` (shape ``(T, k, k)``), each member shifted by its
    largest eigenvalue real part plus 1/2, from one stacked ``eigvals``; the
    shift consumes no random numbers, so it may follow later draws."""
    k = A_K.shape[-1]
    if not k:
        return A_K
    shift = np.linalg.eigvals(A_K).real.max(axis=1) + 0.5
    return A_K - shift[:, None, None] * _eye(k)


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
        built and checked as one stack.  Next the trials of each
        controller dimension are one stack: their controllers are shifted
        stable and their loops assembled and judged together as one
        stacked ``goals._verdict`` (witnesses restricted to the plant
        block), and the report is tallied in trial order.  When a loop
        achieves the goal, the plant under the same splits (the same rows
        of the stacks, through the loops' open-loop builder) is judged by
        the same engine, unrestricted (its states are all the plant's).  The
        plant's own verdict under the canonical splits is judged once per
        goal, scheme and base and kept in the plant's memo.
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
    trials, seed = _count(trials, "trials"), _count(seed, "seed")
    controller_dim_range = _dim_range(range(0, 2 * plant.n + 3) if controller_dim_range is None
                                      else controller_dim_range)

    widths = _split_widths(plant, scheme)
    noise, judged = _PORTS[(scheme, goal)]
    goal_name = goal.upper()

    def plant_verdict(splits):
        # the plant alone under one (M1, M2) pair of one-member stacks per
        # width: no controller, so no block to restrict the witnesses to
        bare = StateSpaceModel._derive_each(plant, *_open_stacks(plant, scheme, splits))
        return _verdict(goal_name, bare, noise, judged, None, base)[0]

    # the plant's own verdict under the canonical splits depends on the
    # immutable plant only, so it is judged once per (goal, scheme, base)
    key = ("nogo", goal, scheme, base)
    if key not in plant._memo:
        canonical = [homodyne_split(width, "P") for width in widths]
        plant._memo[key] = plant_verdict([(s.M1[None], s.M2[None]) for s in canonical])
    if plant._memo[key].achieved:
        raise ValidationError(
            f"plant already achieves {goal_name} standalone; the no-go "
            "hypothesis is unmet")

    violations = disagreements = near = skips = 0
    worst_gap = float("inf")
    draws = [np.empty((trials, width, width), dtype=complex) for width in widths]
    ctrls = []
    for t, ss in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        rng = np.random.Generator(np.random.Philox(ss))
        for Z, width in zip(draws, widths):
            Z[t] = _gaussian(rng, width)
        ctrls.append(_draw(rng, widths, controller_dim_range))
    # each width's selector rows, C-ordered as one split's own, checked as one stack
    rows = [(np.ascontiguousarray(O[:, 0::2]), np.ascontiguousarray(O[:, 1::2]))
            for O in map(_orthosymplectic, draws)]
    for width, (M1, M2) in zip(widths, rows):
        _check_splits(width, np.concatenate((M1, M2), axis=1))
    verdicts: list = [None] * trials
    for k, members in _groups(ctrl[0] for ctrl in ctrls).items():
        # the loops of one controller dimension, so of one state dimension
        A_K, B_K, *gains = (np.array(draw) for draw in zip(*(ctrls[t][1] for t in members)))
        loops = _classical_feedback(plant, scheme, _stabilized(A_K), B_K, gains,
                                    *((M1[members], M2[members]) for M1, M2 in rows))
        restrict = _coordinates(loops[0].nstates, 2 * plant.n)
        for t, verdict in zip(members, _verdict(goal_name, loops, noise, judged, restrict, base)):
            verdicts[t] = verdict
    for t, closed in enumerate(verdicts):
        disagreements += not closed.method_agreement
        if closed.achieved:
            # the theorem only forbids this when the plant fails under the
            # same measurement choice
            plant_v = plant_verdict([(M1[[t]], M2[[t]]) for M1, M2 in rows])
            skips += plant_v.achieved
            violations += not plant_v.achieved
            continue
        worst_gap = min(worst_gap, closed.residual)
        near += closed.tolerance > 0 and closed.residual < 10.0 * closed.tolerance

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
