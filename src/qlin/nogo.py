"""Randomized empirical validation of the measurement-feedback no-go results.

For a plant that lacks a goal (BAE, QND, or DFS), no sampled classical
controller may produce a closed loop that achieves it.  The harness samples
stabilized controllers and random homodyne selectors, rebuilds the loop per
trial, and counts violations (expected: zero).
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
    homodyne_split,
)
from .goals import GoalVerdict, check_bae, find_dfs, find_qnd
from .interconnect import ClassicalController, mf_type1, mf_type2, mf_type2_open_loop
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


@dataclass(frozen=True)
class NogoReport:
    """Outcome of one randomized no-go run.

    ``violations`` counts trials whose closed loop achieved a goal the
    plant (under the same trial's measurement choice) lacks; any nonzero
    count is a bug reproducer.  ``worst_residual_gap`` is the smallest
    failure margin observed across trials.
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
    O = np.zeros((2 * m, 2 * m))
    O[0::2, 0::2] = Q.real
    O[0::2, 1::2] = -Q.imag
    O[1::2, 0::2] = Q.imag
    O[1::2, 1::2] = Q.real
    return O


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
    m = plant.m
    if scheme == "mf1":
        return ClassicalController(
            A_K=A_K,
            B_K=rng.normal(size=(k, m)) * scale,
            C_K=rng.normal(size=(2 * m, k)) * scale,
        )
    if scheme == "mf2":
        m1, m2 = (len(group) for group in plant.role_partition())
        return ClassicalController(
            A_K=A_K,
            B_K=rng.normal(size=(k, m1)) * scale,
            C_K1=rng.normal(size=(2 * m1, k)) * scale,
            C_K2=rng.normal(size=(2 * m2, k)) * scale,
        )
    raise ValidationError(f"unknown scheme {scheme!r}; expected 'mf1' or 'mf2'")


def _combine(v1: GoalVerdict, v2: GoalVerdict) -> GoalVerdict:
    """Joint zero-transfer verdict for the two type-2 BAE conditions."""
    return GoalVerdict(
        goal="BAE",
        achieved=v1.achieved and v2.achieved,
        witnesses=(),
        residual=max(v1.residual, v2.residual),
        method_agreement=v1.method_agreement and v2.method_agreement,
        dims={"fb": v1.dims, "ba": v2.dims},
        tolerance=max(v1.tolerance, v2.tolerance),
    )


def _goal_verdict(model: StateSpaceModel, goal: str, scheme: str,
                  restrict: Optional[Subspace], base: Optional[float]) -> GoalVerdict:
    if scheme == "mf1":
        if goal == "bae":
            return check_bae(model, "P", "y", base=base)
        if goal == "qnd":
            return find_qnd(model, ["Q", "P"], "y", restrict_to=restrict, base=base)
        if goal == "dfs":
            return find_dfs(model, ["Q", "P"], "Wout", restrict_to=restrict, base=base)
    else:
        if goal == "bae":
            return _combine(check_bae(model, "W1", "z", base=base),
                            check_bae(model, "P2", "z", base=base))
        if goal == "qnd":
            return find_qnd(model, ["W1", "Q2", "P2"], ["y", "z"],
                            restrict_to=restrict, base=base)
        if goal == "dfs":
            return find_dfs(model, ["W1", "Q2", "P2"], ["W1out", "W2out"],
                            restrict_to=restrict, base=base)
    raise ValidationError(f"unknown goal {goal!r}; expected bae, qnd, or dfs")


def _splits(plant: QuantumLinearSystem, scheme: str, draw) -> tuple[MeasurementSplit, ...]:
    """One split per measured channel group, ``draw(width)`` each."""
    if scheme == "mf1":
        return (draw(plant.m),)
    return tuple(draw(len(group)) for group in plant.role_partition())


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
    scheme : {"mf1", "mf2"}
    trials : int
        Nonnegative.
    seed : int
        Nonnegative master seed; per-trial streams are split from it with a
        counter-based generator, so reports are reproducible and trials
        independent.
    controller_dim_range : sequence of int, optional
        Controller state dimensions to sample (default 0 .. 2n+2).

    Returns
    -------
    NogoReport
    """
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

    # QND/DFS witnesses of the closed loop must be purely quantum: restrict
    # to the plant block of the extended state.
    def plant_block(nstates: int) -> Subspace:
        basis = np.zeros((nstates, 2 * plant.n))
        basis[:2 * plant.n, :] = np.eye(2 * plant.n)
        return Subspace(nstates, basis)

    canonical = _splits(plant, scheme, lambda width: homodyne_split(width, "P"))
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
        splits = _splits(plant, scheme, lambda width: random_split(rng, width))
        ctrl = sample_classical_controller(rng, plant, scheme, controller_dim_range)
        loop = assemble(plant, ctrl, *splits)
        closed = _goal_verdict(loop, goal, scheme, plant_block(loop.nstates), base)
        if not closed.method_agreement:
            disagreements += 1
        if closed.achieved:
            # the theorem only forbids this when the plant fails under the
            # same measurement choice
            bare = _open_loop(plant, scheme, splits)
            plant_v = _goal_verdict(bare, goal, scheme, plant_block(bare.nstates), base)
            if plant_v.achieved:
                skips += 1
                continue
            violations += 1
            continue
        worst_gap = min(worst_gap, closed.residual)
        if closed.tolerance > 0 and closed.residual < 10.0 * closed.tolerance:
            near += 1

    from .goals import DEFAULT_RESIDUAL_BASE

    return NogoReport(
        theorem=THEOREM_INDEX[(scheme, goal)],
        plant_id=plant_id or f"{plant.n}modes/{plant.m}ch",
        goal=goal,
        scheme=scheme,
        trials=trials,
        violations=violations,
        worst_residual_gap=worst_gap if np.isfinite(worst_gap) else float("inf"),
        seed=seed,
        controller_dim_range=controller_dim_range,
        near_tolerance=near,
        disagreements=disagreements,
        hypothesis_skips=skips,
        residual_base=base if base is not None else DEFAULT_RESIDUAL_BASE,
    )
