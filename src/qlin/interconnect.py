"""Closed-loop realizations for measurement-based and coherent feedback.

Both measurement-feedback schemes close one classical controller around an
open-loop realization of the plant whose measured port is ``"y"``; they
differ only in that realization and in its field outputs (type 1:
``"Wout"``; type 2: ``"W1out"``, ``"W2out"``).  The controller displaces
the input fields, so its input map is ``E = D_W^T``, the transpose of the
open loop's feedthrough ``D_W`` onto those field outputs: that feedthrough
is orthogonal, so ``D_W E = I``.  One function, ``_open_stacks``, builds
the open loops of a stack of splits for either scheme (the no-go harness
judges them bare), and one, ``_classical_feedback``, closes a stack of
controllers around them with the bits of one loop each.  One entry,
``_measurement_loop``, closes one controller for either scheme: it checks
the controller's gains and ``B_K`` against the splits and closes the loop
as a stack of one; ``mf_type1``, ``mf_type2`` and ``qlin closedloop`` call
it.  Both coherent loops are one SLH series product of field stages over
the joint plant/controller state, and the only algebraic loop in scope
(ideal direct feedback, ``tau = 0``) is eliminated in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    MeasurementSplit,
    Ports,
    QuantumLinearSystem,
    ShapeError,
    StateSpaceModel,
    ValidationError,
    _as_array,
    _as_matrix,
    _finite_positive,
    _hamiltonian,
    _layout,
    sigma,
)

__all__ = [
    "ClassicalController",
    "QuantumController",
    "mf_type1",
    "mf_type2",
    "cf_type1",
    "cf_type2",
    "direct_mf",
    "direct_mf_controller",
]


@dataclass(frozen=True)
class ClassicalController:
    """Classical feedback processor dx_K/dt = A_K x_K + B_K y, u = C_K x_K.

    Type-1 loops use ``C_K`` (full-width modulation); type-2 loops use the
    split pair ``C_K1``/``C_K2`` acting on the feedback and evaluation
    inputs separately.
    """

    A_K: np.ndarray
    B_K: np.ndarray
    C_K: Optional[np.ndarray] = None
    C_K1: Optional[np.ndarray] = None
    C_K2: Optional[np.ndarray] = None

    def __post_init__(self):
        A = _as_matrix("A_K", self.A_K)
        k = A.shape[0]
        object.__setattr__(self, "A_K", _as_matrix("A_K", A, cols=k))
        object.__setattr__(self, "B_K", _as_matrix("B_K", _unflatten("B_K", self.B_K, k, True),
                                                   rows=k))
        for name in ("C_K", "C_K1", "C_K2"):
            val = getattr(self, name)
            if val is not None:
                object.__setattr__(self, name,
                                   _as_matrix(name, _unflatten(name, val, k, False), cols=k))

    @property
    def dim(self) -> int:
        return self.A_K.shape[0]


def _unflatten(name: str, val, k: int, state_rows: bool) -> np.ndarray:
    """A controller matrix, with a flat one read as ``k`` rows
    (``state_rows``, as ``B_K``) or as rows of ``k`` columns (the gains); a
    flat one that does not fill them is a ``ValidationError`` naming
    ``name``.  It converts as :func:`core._as_matrix` does."""
    val = _as_array(name, val)
    if val.ndim != 1:
        return val
    width, rest = divmod(val.size, k) if k else (0, val.size)
    if rest:
        raise ValidationError(f"flat {name} has {val.size} entries, not a multiple of "
                              f"the controller's {k} states")
    return val.reshape((k, width) if state_rows else (width, k))


@dataclass(frozen=True)
class QuantumController:
    """Fully quantum controller (Hamiltonian matrix plus field couplings).

    Type-1 controllers couple through two field groups ``C1``/``C2``;
    type-2 controllers have a single coupling ``C_K`` and an optional
    scattering matrix ``S`` acting on the fed-back field.
    """

    G_K: np.ndarray
    C1: Optional[np.ndarray] = None
    C2: Optional[np.ndarray] = None
    C_K: Optional[np.ndarray] = None
    S: Optional[np.ndarray] = None

    def __post_init__(self):
        G = _hamiltonian("G_K", self.G_K)
        object.__setattr__(self, "G_K", G)
        for name in ("C1", "C2", "C_K"):
            val = getattr(self, name)
            if val is not None:
                object.__setattr__(self, name, _as_matrix(name, val, cols=G.shape[0]))
        if self.S is not None:
            object.__setattr__(self, "S", _check_scattering(_as_matrix("S", self.S)))

    @property
    def dim(self) -> int:
        return self.G_K.shape[0]


def _check_scattering(S: np.ndarray) -> np.ndarray:
    if S.shape[0] != S.shape[1] or S.shape[0] % 2:
        raise ShapeError(f"scattering matrix must be square with even size, got {S.shape}")
    m = S.shape[0] // 2
    Sm = sigma(m)
    # an overflow makes a defect inf or NaN, which fails the "<=" test
    with np.errstate(over="ignore", invalid="ignore"):
        # an empty S has no defect (a maximum starting at 0)
        if not np.abs(S.T @ S - np.eye(2 * m)).max(initial=0.0) <= 1e-12 * max(1, 2 * m):
            raise ValidationError("scattering matrix is not orthogonal")
        if not np.abs(S @ Sm @ S.T - Sm).max(initial=0.0) <= 1e-12 * max(1, 2 * m):
            raise ValidationError("scattering matrix is not symplectic")
    return S


def _quadrature_rows(channels) -> np.ndarray:
    """Coupling rows (input columns) of the given channel indices."""
    return np.asarray([r for j in channels for r in (2 * j, 2 * j + 1)], dtype=int)


#: The gain fields of a measurement-feedback controller, one per split.
_GAINS = {"mf1": ("C_K",), "mf2": ("C_K1", "C_K2")}


def _split_widths(plant: QuantumLinearSystem, scheme: str) -> tuple[int, ...]:
    """Channel counts of the homodyne splits a measurement-feedback scheme
    takes, in call order: all channels (mf1); feedback, evaluation (mf2).
    ``B_K`` reads the first; each has a gain with two rows per channel."""
    if scheme == "mf1":
        return (plant.m,)
    if scheme == "mf2":
        return tuple(len(group) for group in plant.role_partition())
    raise ValidationError(f"unknown scheme {scheme!r}; expected 'mf1' or 'mf2'")


def _open_stacks(plant: QuantumLinearSystem, scheme: str, splits):
    """The ports and the stacks ``B``, ``C``, ``D`` of the open loops of
    ``scheme`` (the plant under each member's measurement choice, before a
    controller is attached), one ``(M1, M2)`` pair of stacks per split the
    scheme takes (``_split_widths``, C-ordered members); the drift is the
    plant's own.  The one place that picks a scheme's open loop: type 1 is
    ``to_state_space(split)``, type 2 ``mf_type2_open_loop``."""
    if scheme == "mf1":
        return plant._split_stacks(*splits[0])
    return _mf2_stacks(plant, splits[0][0], *splits[1])


def _classical_feedback(plant: QuantumLinearSystem, scheme: str, A_K: np.ndarray,
                        B_K: np.ndarray, gains: list, *splits) -> list[StateSpaceModel]:
    """Close a classical controller around the measured port ``"y"`` of each
    open loop of a stack: the measurement-feedback loops of ``scheme``.

    The controllers are the stacks ``A_K``, ``B_K`` and one stack per gain of
    ``_GAINS[scheme]``; the open loops are those of one ``(M1, M2)`` pair of
    stacks per split the scheme takes (``_split_widths``).  With
    ``y = C_y x + D_y w`` the controller obeys ``dx_K/dt = A_K x_K + B_K y``,
    and its output ``u = C_K x_K`` displaces the input fields whose outputs
    are the field ports (``"Wout"``; ``"W1out"``, ``"W2out"``).  With ``D_W``
    the open loop's feedthrough onto those ports (orthogonal rows, so
    ``D_W D_W^T = I``), the map of ``u`` onto the input columns is
    ``E = D_W^T``.  The extended state is ``[x; x_K]``::

        A = [[A, B E C_K], [B_K C_y, A_K + B_K D_y E C_K]]
        B = [B; B_K D_y],  C = [C, D E C_K],  D = D

    and the ports are those of the open loop.  Each product is made per
    member with the memory layout of one loop, so each loop has the bits
    it has alone.  A controller without states may leave ``B_K`` and the
    gains empty.  The stacks are not checked against the splits here:
    ``_measurement_loop`` checks a user's controller, and the no-go draws
    have the split shapes by construction.  A non-finite product is
    rejected when the loop is sealed, without a warning.
    """
    inputs, outputs, open_loop = _open_stacks(plant, scheme, splits)
    B, C, D = open_loop["B"], open_loop["C"], open_loop["D"]
    y = outputs.slice("y")
    fields = outputs._select("Wout" if scheme == "mf1" else ["W1out", "W2out"])
    # a contiguous copy: the layout of E fixes the rounding of E @ C_K
    E = np.ascontiguousarray(D[:, fields].swapaxes(1, 2))
    T, n, k, ny, nu = len(A_K), B.shape[1], A_K.shape[-1], y.stop - y.start, E.shape[2]
    # C_K1 drives the raw feedback fields; C_K2 drives W2 = M1e^T Q2 + M2e^T P2
    C_K = (np.concatenate(gains, axis=1) if len(gains) > 1 else gains[0]) if k else None
    B_K = B_K.reshape(T, k, ny)
    with np.errstate(over="ignore", invalid="ignore"):
        EC = E @ (C_K if k else np.zeros((T, nu, 0)))
        BK_Dy = B_K @ D[:, y]
        A = np.empty((T, n + k, n + k))
        A[:, :n, :n] = plant.A
        A[:, :n, n:] = B @ EC
        A[:, n:, :n] = B_K @ C[:, y]
        A[:, n:, n:] = A_K + BK_Dy @ EC
        return StateSpaceModel._derive_each(plant, inputs, outputs, {
            "A": A, "B": np.concatenate([B, BK_Dy], axis=1),
            "C": np.concatenate([C, D @ EC], axis=2), "D": D})


def _measurement_loop(plant: QuantumLinearSystem, scheme: str, ctrl, *splits) -> StateSpaceModel:
    """The measurement-feedback loop of ``scheme`` that the
    ``ClassicalController`` ``ctrl`` closes around ``plant`` under
    ``splits``, one ``MeasurementSplit`` per split the scheme takes
    (``_split_widths``): a stack of one of ``_classical_feedback``, which
    checks no shapes.  So the checks are here: a controller with states
    needs every gain of ``_GAINS[scheme]``, each with two rows per channel
    of its split, and a ``B_K`` with one column per channel of the first
    (the measured signal)."""
    names, gains = _GAINS[scheme], []
    if ctrl.dim:
        if any(getattr(ctrl, name) is None for name in names):
            raise ValidationError(f"type-{scheme[-1]} controller needs {' and '.join(names)}")
        gains = [_as_matrix(name, getattr(ctrl, name), rows=2 * split.m)[None]
                 for name, split in zip(names, splits)]
        _as_matrix("B_K", ctrl.B_K, cols=splits[0].m)
    return _classical_feedback(plant, scheme, ctrl.A_K[None], ctrl.B_K[None], gains,
                               *((split.M1[None], split.M2[None]) for split in splits))[0]


def mf_type1(plant: QuantumLinearSystem, ctrl: ClassicalController,
             split: MeasurementSplit) -> StateSpaceModel:
    """Type-1 measurement feedback: all outputs measured, all inputs modulated.

    The measured signal ``y = M1 W_out`` drives the controller whose output
    ``u = C_K x_K`` modulates every input quadrature.  Extended state is
    ``[x; x_K]``; inputs are the measured noise ``Q``, its conjugate ``P``
    and the force; outputs are ``y``, the conjugate signal ``ybar`` and the
    full field ``Wout``.  ``_measurement_loop`` checks ``ctrl`` against
    ``split``.
    """
    return _measurement_loop(plant, "mf1", ctrl, split)


def _mf2_stacks(plant: QuantumLinearSystem, M: np.ndarray, M1e: np.ndarray, M2e: np.ndarray):
    """The ports and the stacks ``B``, ``C``, ``D`` of the type-2 open loops
    of the stacks of feedback selectors ``M`` and evaluation splits
    ``M1e``/``M2e`` (C-ordered members), each product made per member as
    for one pair of splits; the drift is the plant's own, and the feedback
    and evaluation columns of ``B`` and rows of ``C`` are read once per
    stack."""
    fb, ev = plant.role_partition()
    m1, m2 = len(fb), len(ev)
    if M.shape[1] != m1 or M1e.shape[1] != m2:
        raise ShapeError("measurement splits do not match the channel partition")
    fb_rows, ev_rows = _quadrature_rows(fb), _quadrature_rows(ev)
    B1, B2 = plant.B[:, fb_rows], plant.B[:, ev_rows]
    C1, C2 = plant.C[fb_rows, :], plant.C[ev_rows, :]
    inputs, outputs, _ = _layout("mf2", tuple(plant.channels[i].label for i in fb + ev),
                                 plant.force is not None, m1)
    T, n, e = len(M), plant.A.shape[0], 2 * m1  # e: the first evaluation input
    # column-major members, as the columns of B that pick the groups are
    B = np.empty((T, inputs.total, n)).swapaxes(1, 2)
    B[:, :, :e] = B1
    B[:, :, e:e + m2] = B2 @ M1e.swapaxes(1, 2)
    B[:, :, e + m2:e + 2 * m2] = B2 @ M2e.swapaxes(1, 2)
    if plant.force is not None:
        B[:, :, -1] = plant.force
    C = np.empty((T, outputs.total, n))
    C[:, :m1] = M @ C1
    C[:, m1:m1 + m2] = M1e @ C2
    C[:, m1 + m2:] = np.concatenate([C1, C2])
    D = np.zeros((T, outputs.total, inputs.total))
    D[:, :m1, :e] = M
    D[:, m1:m1 + m2, e:e + m2] = np.eye(m2)  # z carries the measured evaluation noise
    D[:, m1 + m2:m1 + m2 + e, :e] = np.eye(e)
    D[:, m1 + m2 + e:, e:e + 2 * m2] = np.concatenate([M1e, M2e], axis=1).swapaxes(1, 2)
    return inputs, outputs, {"B": B, "C": C, "D": D}


def mf_type2_open_loop(plant: QuantumLinearSystem, fb_split: MeasurementSplit,
                       eval_split: MeasurementSplit) -> StateSpaceModel:
    """The plant of a type-2 loop before the controller is attached.

    Inputs are the raw feedback fields ``W1``, the measured evaluation
    noise ``Q2``, its conjugate ``P2`` and the force; outputs are the
    feedback signal ``y = M W1_out`` (fb_split), the evaluation signal
    ``z = M1 W2_out`` (eval_split) and the fields ``W1out``/``W2out``.
    """
    return StateSpaceModel._derive_each(plant, *_mf2_stacks(
        plant, fb_split.M1[None], eval_split.M1[None], eval_split.M2[None]))[0]


def mf_type2(plant: QuantumLinearSystem, ctrl: ClassicalController,
             fb_split: MeasurementSplit, eval_split: MeasurementSplit) -> StateSpaceModel:
    """Type-2 measurement feedback: dedicated feedback and evaluation channels.

    ``y = M W1_out`` (fb_split) drives the controller, which modulates both
    channel groups through ``C_K1``/``C_K2``; the evaluation signal is
    ``z = M1 W2_out`` (eval_split).  A direct feedthrough term from y onto
    the evaluation modulation is not modeled; it changes no structural
    verdict.  ``_measurement_loop`` checks ``ctrl`` against the splits.
    """
    return _measurement_loop(plant, "mf2", ctrl, fb_split, eval_split)


def _series(plant: QuantumLinearSystem, qctrl: QuantumController, channels,
            stages) -> QuantumLinearSystem:
    """SLH series product of field stages over the joint state ``[x; x_K]``.

    ``stages`` lists ``(S_k, L_k)`` in the order the field passes them:
    the field leaving the earlier stages, with coupling ``L``, scatters by
    ``S_k`` and then couples through ``L_k``.  Starting from
    ``G = diag(G, G_K)`` and ``L = 0``, each stage adds
    ``sym(L_k^T Sigma S_k L)`` to ``G`` and sets ``L = L_k + S_k L``
    (Gough & James, IEEE TAC 54(11) 2009).
    """
    n2, k2 = 2 * plant.n, qctrl.dim
    G = np.zeros((n2 + k2, n2 + k2))
    G[:n2, :n2], G[n2:, n2:] = plant.G, qctrl.G_K
    L = np.zeros_like(stages[0][1])
    Sm = sigma(L.shape[0] // 2)
    # a non-finite G or L is rejected by the system's own checks
    with np.errstate(over="ignore", invalid="ignore"):
        for S, Lk in stages:
            cross = Lk.T @ Sm @ S @ L
            G += (cross + cross.T) / 2.0
            L = Lk + S @ L
    force = None
    if plant.force is not None:
        force = np.concatenate([plant.force, np.zeros(k2)])
    labels = plant.mode_labels + tuple(f"ctrl{i + 1}" for i in range(k2 // 2))
    return QuantumLinearSystem(G, L, channels, force=force, mode_labels=labels)


def cf_type1(plant: QuantumLinearSystem, qctrl: QuantumController) -> QuantumLinearSystem:
    """Type-1 coherent feedback: controller in series with all plant fields.

    The field passes the controller through ``C1``, then the plant, then the
    controller again through ``C2``: the series product of the stages
    C1 -> C -> C2, with coupling ``[C, C1 + C2]``.  ``C1 + C2 = 0`` realizes
    a pure direct interaction (controller decoupled from the field).
    """
    if qctrl.C1 is None or qctrl.C2 is None:
        raise ValidationError("type-1 CF controller needs C1 and C2")
    # both have the controller's columns, so 2m rows each make them match
    C1, C2 = (_as_matrix(name, getattr(qctrl, name), rows=2 * plant.m) for name in ("C1", "C2"))
    I, Zx, ZK = np.eye(2 * plant.m), np.zeros_like(plant.C), np.zeros_like(C1)
    return _series(plant, qctrl, plant.channels, [
        (I, np.hstack([Zx, C1])), (I, np.hstack([plant.C, ZK])),
        (I, np.hstack([Zx, C2]))])


def cf_type2(plant: QuantumLinearSystem, qctrl: QuantumController) -> QuantumLinearSystem:
    """Type-2 coherent feedback through a scattering element.

    The field leaves the plant's feedback rows ``C1``, scatters by the
    controller's ``S`` (identity when unset) into the controller ``C_K``,
    and re-enters the plant's evaluation rows ``C2``: the series product of
    the stages C1 -> S, C_K -> C2, with coupling ``[S C1 + C2, C_K]``.
    Channel labels are taken from the evaluation partition.
    """
    if qctrl.C_K is None:
        raise ValidationError("type-2 CF controller needs C_K")
    fb, ev = plant.role_partition()
    C1 = plant.C[_quadrature_rows(fb), :]
    C2 = plant.C[_quadrature_rows(ev), :]
    if C1.shape[0] != C2.shape[0]:
        raise ShapeError("feedback and evaluation partitions must have equal widths")
    C_K = _as_matrix("C_K", qctrl.C_K, rows=len(C1))
    I = np.eye(len(C1))
    S = I if qctrl.S is None else _as_matrix("S", qctrl.S, rows=len(C1))
    Zx, ZK = np.zeros_like(C1), np.zeros_like(C_K)
    return _series(plant, qctrl, tuple(plant.channels[j] for j in ev), [
        (I, np.hstack([C1, ZK])), (S, np.hstack([Zx, C_K])),
        (I, np.hstack([C2, ZK]))])


def _check_rates(kappa: float, tau: float) -> None:
    """The rates of direct feedback: ``kappa`` finite and positive, ``tau``
    0 or finite and positive (``core._finite_positive``, naming each)."""
    _finite_positive(kappa, "kappa")
    if tau != 0:
        _finite_positive(tau, "tau, when not 0,")


def direct_mf(kappa: float, tau: float) -> StateSpaceModel:
    """Direct (proportional) measurement feedback on the squeezing cavity.

    The plant is the single-mode cavity with drift diag(-kappa, 0), probe
    rate kappa and amplitude modulation on q only; the feedback circuit is
    a first-order low-pass of time constant ``tau`` with gain sqrt(kappa).
    ``tau = 0`` selects the ideal infinite-bandwidth limit, eliminated in
    closed form, for which q is measured without disturbance.

    Outputs: measured signal ``y``, feedback signal ``u`` and the state
    read-outs ``q``/``p``.
    """
    _check_rates(kappa, tau)
    rk = np.sqrt(kappa)
    inputs = Ports([("Q", 1), ("P", 1)])
    if tau == 0.0:
        # u = sqrt(kappa) y cancels both the drift and the Q noise on q
        A = np.zeros((2, 2))
        B = np.array([[0.0, 0.0], [0.0, -rk]])
        C = np.array([[rk, 0.0], [kappa, 0.0], [1.0, 0.0], [0.0, 1.0]])
        D = np.array([[1.0, 0.0], [rk, 0.0], [0.0, 0.0], [0.0, 0.0]])
    else:
        A = np.array([[-kappa, 0.0, rk],
                      [0.0, 0.0, 0.0],
                      [rk / tau, 0.0, -1.0 / tau]])
        B = np.array([[-rk, 0.0],
                      [0.0, -rk],
                      [1.0 / tau, 0.0]])
        C = np.array([[rk, 0.0, 0.0],
                      [0.0, 0.0, rk],
                      [1.0, 0.0, 0.0],
                      [0.0, 1.0, 0.0]])
        D = np.array([[1.0, 0.0],
                      [0.0, 0.0],
                      [0.0, 0.0],
                      [0.0, 0.0]])
    outputs = Ports([("y", 1), ("u", 1), ("q", 1), ("p", 1)])
    return StateSpaceModel(A, B, C, D, inputs, outputs)


def direct_mf_controller(kappa: float, tau: float) -> StateSpaceModel:
    """The feedback circuit alone: Xi_{y->u}(s) = sqrt(kappa) / (1 + tau s)."""
    _check_rates(kappa, tau)
    inputs = Ports([("y", 1)])
    outputs = Ports([("u", 1)])
    if tau == 0.0:
        return StateSpaceModel(np.zeros((0, 0)), np.zeros((0, 1)),
                               np.zeros((1, 0)), [[np.sqrt(kappa)]], inputs, outputs)
    return StateSpaceModel([[-1.0 / tau]], [[1.0 / tau]], [[np.sqrt(kappa)]],
                           [[0.0]], inputs, outputs)
