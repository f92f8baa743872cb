"""Randomized empirical validation of the measurement-feedback no-go results.

For a plant that lacks a goal (BAE, QND, or DFS), no sampled classical
controller may produce a closed loop that achieves it.  The harness samples
stabilized controllers and random homodyne selectors, rebuilds the loop per
trial, and counts violations (expected: zero).  A trial's splits and gain
shapes follow ``interconnect._split_widths``, and ``mf_type1``/``mf_type2``
read the controller's input map from the open loop.

One table names the noise ports and judged outputs of the six (scheme, goal)
combinations.  Type-2 BAE (Theorem 4) is one joint zero transfer to the
evaluation signal ``z`` from the feedback field ``W1`` and the conjugate
evaluation noise ``P2`` together.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .goals import GoalVerdict, check_bae, checked_base, find_dfs, find_qnd
from .interconnect import (_GAINS, ClassicalController, _split_widths, mf_type1, mf_type2,
                           mf_type2_open_loop)
from .structural import Subspace

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


def random_orthosymplectic(rng: np.random.Generator, m: int) -> np.ndarray:
    """Random 2m x 2m orthogonal-symplectic matrix (realified unitary)."""
    Z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    Q, R = np.linalg.qr(Z)
    Q = Q * (np.diagonal(R) / np.abs(np.diagonal(R)))
    return _realify(Q)


def random_split(rng: np.random.Generator, m: int) -> MeasurementSplit:
    """Random homodyne selector pair from a random orthogonal-symplectic M."""
    O = random_orthosymplectic(rng, m)
    return MeasurementSplit(m, O[0::2, :], O[1::2, :])


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


def _goal_verdict(model: StateSpaceModel, goal: str, scheme: str,
                  restrict: Optional[Subspace], base: float) -> GoalVerdict:
    noise, judged = _PORTS[(scheme, goal)]
    if goal == "bae":  # a zero transfer: no witnesses to restrict
        return check_bae(model, noise, judged, base=base)
    engine = find_qnd if goal == "qnd" else find_dfs
    return engine(model, noise, judged, restrict_to=restrict, base=base)


def _open_loop(plant: QuantumLinearSystem, scheme: str, splits) -> StateSpaceModel:
    """The plant under a trial's measurement choice, without a controller."""
    if scheme == "mf1":
        return plant.to_state_space(splits[0])
    return mf_type2_open_loop(plant, *splits)


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
        independent.
    controller_dim_range : sequence of int, optional
        Controller state dimensions to sample (default 0 .. 2n+2).
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
        controller_dim_range = tuple(int(d) for d in controller_dim_range)

    widths = _split_widths(plant, scheme)
    canonical = [homodyne_split(width, "P") for width in widths]
    pre = _goal_verdict(_open_loop(plant, scheme, canonical), goal, scheme, None, base)
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
    streams = np.random.SeedSequence(seed).spawn(trials)
    for ss in streams:
        rng = np.random.Generator(np.random.Philox(ss))
        splits = [random_split(rng, width) for width in widths]
        ctrl = sample_classical_controller(rng, plant, scheme, controller_dim_range)
        loop = assemble(plant, ctrl, *splits)
        # QND/DFS witnesses must be purely quantum: in the plant block
        n = loop.nstates
        closed = _goal_verdict(loop, goal, scheme, Subspace(n, np.eye(n, 2 * plant.n)), base)
        if not closed.method_agreement:
            disagreements += 1
        if closed.achieved:
            # the theorem only forbids this when the plant fails under the
            # same measurement choice
            bare = _open_loop(plant, scheme, splits)
            n = bare.nstates
            plant_v = _goal_verdict(bare, goal, scheme, Subspace(n, np.eye(n, 2 * plant.n)), base)
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
