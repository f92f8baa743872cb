"""Quadrature-space representation of open linear quantum systems.

Conventions used throughout the package:

* ``hbar = 1``.
* Quadratures are interleaved, ``x = [q1, p1, q2, p2, ...]``, so the
  commutation matrix is block diagonal with ``[[0, 1], [-1, 0]]`` blocks.
* A system with Hamiltonian matrix ``G`` (symmetric, ``H = x^T G x / 2``)
  and field coupling matrix ``C`` (``2m x 2n``) has drift
  ``A = Sigma_n (G + C^T Sigma_m C / 2)`` and noise input matrix
  ``B = Sigma_n C^T Sigma_m``; the output fields are ``W_out = C x + W``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "ShapeError",
    "ValidationError",
    "PortLookupError",
    "sigma",
    "Channel",
    "Ports",
    "StateSpaceModel",
    "MeasurementSplit",
    "QuantumLinearSystem",
    "build_system",
    "homodyne_split",
    "augment_with_vacuum",
    "complex_to_quadrature",
    "quadrature_to_complex",
    "realizability_defect",
]

# Relative tolerance accepted when symmetrising a Hamiltonian matrix.
SYMMETRY_RTOL = 1e-12
# Tolerance scale for the homodyne-split identities (scaled by channel count).
SPLIT_TOL = 1e-12
# Orthonormality tolerance for subspace bases.
ORTHO_TOL = 1e-12


class ShapeError(ValueError):
    """Matrix dimensions are inconsistent."""


class ValidationError(ValueError):
    """Input violates a model invariant (symmetry, realizability, finiteness)."""


class PortLookupError(KeyError):
    """Unknown input or output port name."""


_SIGMA: dict[int, np.ndarray] = {}


def sigma(n: int) -> np.ndarray:
    """Commutation matrix of ``n`` modes: block diagonal of [[0,1],[-1,0]].

    Built once per ``n`` and returned read-only.
    """
    n = operator.index(n)
    out = _SIGMA.get(n)
    if out is None:
        if n < 0:
            raise ShapeError(f"mode count must be nonnegative, got {n}")
        out = _SIGMA[n] = _frozen(np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]])))
    return out


def _as_matrix(name: str, arr, rows: Optional[int] = None, cols: Optional[int] = None) -> np.ndarray:
    out = np.atleast_2d(np.asarray(arr, dtype=float))
    if out.ndim != 2:
        raise ShapeError(f"{name} must be a 2-D matrix, got ndim={out.ndim}")
    if rows is not None and out.shape[0] != rows:
        raise ShapeError(f"{name} must have {rows} rows, got {out.shape[0]}")
    if cols is not None and out.shape[1] != cols:
        raise ShapeError(f"{name} must have {cols} columns, got {out.shape[1]}")
    if not np.isfinite(out).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return out


def _finite_positive(value, what: str) -> float:
    """``value`` as a float, or a ``ValidationError`` naming ``what`` unless
    it is a finite positive number."""
    if not (np.isfinite(value) and value > 0):
        raise ValidationError(f"{what} must be a finite positive number, got {value!r}")
    return float(value)


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


def _sealed(name: str, arr: np.ndarray) -> np.ndarray:
    """Freeze a float array this package has just computed, in place (it
    aliases no caller's data, so it needs no copy), after the finiteness
    check of :func:`_as_matrix`.  A read-only array is one of the package's
    frozen, already validated arrays and is returned as it is."""
    if arr.flags.writeable:
        if not np.isfinite(arr).all():
            raise ValidationError(f"{name} contains non-finite entries")
        arr.setflags(write=False)
    return arr


def _hamiltonian(name: str, G) -> np.ndarray:
    """A Hamiltonian matrix checked (finite, square with even size, symmetric
    within ``SYMMETRY_RTOL``), symmetrised and frozen (:func:`_sealed`, so a
    symmetrisation that overflows is rejected)."""
    G = _as_matrix(name, G)
    if G.shape[0] != G.shape[1] or G.shape[0] % 2:
        raise ShapeError(f"{name} must be square with even size, got {G.shape}")
    if (not (G == G.T).all()
            and np.linalg.norm(G - G.T) > SYMMETRY_RTOL * max(np.linalg.norm(G), 1.0)):
        raise ValidationError(
            f"{name} is not symmetric within tolerance; refusing to symmetrise "
            "an asymmetric Hamiltonian matrix")
    return _sealed(name, (G + G.T) / 2.0)


def _realify(Z: np.ndarray) -> np.ndarray:
    """Interleaved real form of a complex matrix, or of each matrix of a
    stack: each entry ``z`` becomes the block ``[[Re z, -Im z], [Im z, Re z]]``."""
    out = np.zeros(Z.shape[:-2] + (2 * Z.shape[-2], 2 * Z.shape[-1]))
    out[..., 0::2, 0::2] = Z.real
    out[..., 0::2, 1::2] = -Z.imag
    out[..., 1::2, 0::2] = Z.imag
    out[..., 1::2, 1::2] = Z.real
    return out


@dataclass(frozen=True)
class Channel:
    """One input-output field channel with a role tag.

    Roles distinguish how a channel is used in a type-2 configuration:
    ``feedback`` channels close the loop, ``evaluation`` channels carry the
    measured signal, ``environment`` channels are pure decoherence.
    """

    label: str
    role: str = "environment"

    def __post_init__(self):
        if self.role not in ("feedback", "evaluation", "environment"):
            raise ValidationError(f"unknown channel role {self.role!r}")


class Ports:
    """Ordered registry mapping port names to contiguous index ranges.

    Sub-ports (e.g. the single quadrature ``"W1.Q"`` inside the two-wide
    channel port ``"W1"``) may overlap their parent range.  A model seals
    the registries it holds, so no port can be added under its matrices,
    and sealed registries are shared: the package builds those of one
    channel layout once (:func:`_layout`).  :meth:`from_entries` gives an
    open copy.
    """

    def __init__(self, entries: Iterable[tuple[str, int]] = ()):
        self._ranges: dict[str, tuple[int, int]] = {}
        self._order: list[str] = []
        self._total = 0
        self._held = False
        self._extended: dict[tuple[str, int], "Ports"] = {}
        self._indices: dict[tuple, np.ndarray] = {}
        for name, width in entries:
            self.append(name, width)

    @classmethod
    def from_entries(cls, entries: Iterable[tuple[str, int, int]]) -> "Ports":
        """Rebuild a registry from (name, start, width) triples in registration
        order: a range starting where the covered ones end is a primary port,
        any other is an alias."""
        ports = cls()
        for name, start, width in entries:
            if start == ports.total:
                ports.append(name, width)
            else:
                ports.alias(name, start, width)
        return ports

    def _add(self, name: str, start: int, width: int) -> None:
        if self._held:
            raise ValidationError(f"cannot add port {name!r}: the registry belongs to a "
                                  "model (copy it with Ports.from_entries)")
        if name in self._ranges:
            raise ValidationError(f"duplicate port name {name!r}")
        self._ranges[name] = (start, start + width)
        self._order.append(name)

    def append(self, name: str, width: int) -> None:
        """Register a new primary port occupying the next `width` indices."""
        if width < 0:
            raise ShapeError(f"port {name!r} has negative width")
        self._add(name, self._total, width)
        self._total += width

    def alias(self, name: str, start: int, width: int) -> None:
        """Register a sub-port referring to an existing index range."""
        if start < 0 or start + width > self._total:
            raise ShapeError(f"sub-port {name!r} range out of bounds")
        self._add(name, start, width)

    def _plus(self, name: str, width: int) -> "Ports":
        """A sealed copy of this sealed registry with one more primary port.
        Neither can change, so the copy is built once and kept here."""
        ports = self._extended.get((name, width))
        if ports is None:
            ports = Ports.from_entries(self.entries())
            ports.append(name, width)
            ports._held = True
            self._extended[(name, width)] = ports
        return ports

    def __contains__(self, name: str) -> bool:
        return name in self._ranges

    def _range(self, name: str) -> tuple[int, int]:
        try:
            return self._ranges[name]
        except KeyError:
            raise PortLookupError(
                f"unknown port {name!r}; available: {sorted(self._ranges)}") from None

    def slice(self, name: str) -> slice:
        return slice(*self._range(name))

    def indices(self, names: Union[str, Sequence[str]]) -> np.ndarray:
        """The indices of one or more ports, in order, as a new array."""
        return np.array(self._resolve(names))

    def _resolve(self, names: Union[str, Sequence[str]]) -> np.ndarray:
        """:meth:`indices` without the copy.  A sealed registry cannot
        change, so it resolves each name list once and returns the same
        read-only array after that."""
        key = (names,) if isinstance(names, str) else tuple(names)
        idx = self._indices.get(key)
        if idx is None:
            idx = np.asarray([i for name in key for i in range(*self._range(name))], dtype=int)
            if self._held:
                idx.setflags(write=False)
                self._indices[key] = idx
        return idx

    def _select(self, names: Union[str, Sequence[str]]) -> Union[slice, np.ndarray]:
        """Index of one or more ports: the slice of a single name, else
        :meth:`indices`.  Indexing with a slice gives a view."""
        return self.slice(names) if isinstance(names, str) else self._resolve(names)

    def width(self, name: str) -> int:
        s = self.slice(name)
        return s.stop - s.start

    @property
    def total(self) -> int:
        return self._total

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._order)

    def entries(self) -> list[tuple[str, int, int]]:
        """(name, start, width) triples in registration order."""
        return [(n, self._ranges[n][0], self._ranges[n][1] - self._ranges[n][0])
                for n in self._order]

    def __repr__(self):
        return f"Ports({self.entries()!r})"


@dataclass(frozen=True)
class StateSpaceModel:
    """Real LTI realization dx/dt = A x + B u, y = C x + D u with named ports."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    inputs: Ports
    outputs: Ports

    def __post_init__(self):
        A = _as_matrix("A", self.A)
        if A.shape[0] != A.shape[1]:
            raise ShapeError(f"A must be square, got {A.shape}")
        n = A.shape[0]
        B = _as_matrix("B", self.B, rows=n) if np.size(self.B) else np.zeros((n, 0))
        C = _as_matrix("C", self.C, cols=n) if np.size(self.C) else np.zeros((0, n))
        D = _as_matrix("D", self.D, rows=C.shape[0], cols=B.shape[1]) \
            if np.size(self.D) else np.zeros((C.shape[0], B.shape[1]))
        if self.inputs.total != B.shape[1]:
            raise ShapeError(
                f"input ports cover {self.inputs.total} columns, B has {B.shape[1]}")
        if self.outputs.total != C.shape[0]:
            raise ShapeError(
                f"output ports cover {self.outputs.total} rows, C has {C.shape[0]}")
        object.__setattr__(self, "A", _frozen(A))
        object.__setattr__(self, "B", _frozen(B))
        object.__setattr__(self, "C", _frozen(C))
        object.__setattr__(self, "D", _frozen(D))
        self.inputs._held = self.outputs._held = True

    @classmethod
    def _derive(cls, parent, **fields) -> "StateSpaceModel":
        """The validate-once constructor of the package's own realizations.

        Each of ``A``, ``B``, ``C``, ``D``, ``inputs`` and ``outputs`` not in
        ``fields`` is taken from ``parent`` (a validated model or system),
        so its frozen arrays are shared, not checked or copied again.  A new
        array must be one the package has just computed, never a caller's:
        it is checked for finiteness and frozen in place (:func:`_sealed`).
        """
        def pick(name):
            return fields[name] if name in fields else getattr(parent, name)

        A, B, C, D = (_sealed(name, pick(name)) for name in "ABCD")
        inputs, outputs = pick("inputs"), pick("outputs")
        n = A.shape[0]
        if (A.shape != (n, n) or B.shape[0] != n or C.shape[1] != n
                or D.shape != (C.shape[0], B.shape[1])
                or inputs.total != B.shape[1] or outputs.total != C.shape[0]):
            raise ShapeError(f"inconsistent realization: A {A.shape}, B {B.shape}, "
                             f"C {C.shape}, D {D.shape}, ports {inputs.total} in, "
                             f"{outputs.total} out")
        model = object.__new__(cls)
        model.__dict__.update(A=A, B=B, C=C, D=D, inputs=inputs, outputs=outputs)
        inputs._held = outputs._held = True
        return model

    @property
    def nstates(self) -> int:
        return self.A.shape[0]

    @cached_property
    def _norm_A(self) -> float:
        """``|A|_F``, computed once: every staircase cutoff and probe radius
        of the model reads it (``A^T`` has the same norm, to the bit)."""
        return np.linalg.norm(self.A)

    @cached_property
    def _memo(self) -> dict:
        """Private memo of results that depend on this immutable model only.

        Two kinds of entry, each owned by one module:

        * staircase results of :mod:`qlin.structural`, keyed by side and the
          resolved port indices, each computed once; only
          ``structural._subspaces`` and ``structural._reduced_pair`` read or
          fill them;
        * under the key ``"point"``, the joint resolvent solve of the most
          recent one-point request of :mod:`qlin.xfer` that its conditioning
          screen cleared; only ``xfer._point_solve`` reads or fills it.

        A model derived from this one starts with a memo of its own.
        """
        return {}

    def b(self, port: Union[str, Sequence[str]]) -> np.ndarray:
        """Input-matrix columns of one or more input ports (a fresh array, in
        the column-major layout that indexing with a list gives)."""
        return np.array(self.B[:, self.inputs._select(port)], order="F")

    def c(self, port: Union[str, Sequence[str]]) -> np.ndarray:
        """Output-matrix rows of one or more output ports (a fresh array)."""
        return np.array(self.C[self.outputs._select(port)])

    def d(self, output_port, input_port) -> np.ndarray:
        """Feedthrough block of an output/input port pair (a fresh array)."""
        rows = self.D[self.outputs._select(output_port)]
        return np.array(rows[:, self.inputs._select(input_port)])

    def similar(self, T: np.ndarray) -> "StateSpaceModel":
        """Realization in the coordinates x' = T^{-1} x (ports unchanged)."""
        T = _as_matrix("T", T, rows=self.nstates, cols=self.nstates)
        Tinv = np.linalg.inv(T)
        return self._derive(self, A=Tinv @ self.A @ T, B=Tinv @ self.B, C=self.C @ T)


@lru_cache(maxsize=None)
def _split_targets(m: int) -> tuple[np.ndarray, np.ndarray]:
    """``I`` and ``J = [[0, I], [-I, 0]]`` of ``m`` channels, built once per
    ``m`` and read-only, as :func:`sigma` is."""
    return _frozen(np.eye(2 * m)), _frozen(np.eye(2 * m, k=m) - np.eye(2 * m, k=-m))


def _check_splits(m: int, M: np.ndarray) -> None:
    """Check every ``M = [M1; M2]`` of the stack ``M`` (shape ``(k, 2m, 2m)``)
    against the three split identities within ``SPLIT_TOL * max(m, 1)``; a
    ``ValidationError`` names the first identity that fails, its defect and,
    in a stack of more than one, the member's index."""
    eye, J = _split_targets(m)
    Mt = M.transpose(0, 2, 1)
    checks = {
        "M Sigma M^T = J": M @ sigma(m) @ Mt - J,
        "M M^T = I": M @ Mt - eye,
        "M^T M = I": Mt @ M - eye,
    }
    tol = SPLIT_TOL * max(m, 1)
    for label, defect in checks.items():
        # one maximum over the whole stack (NaN fails it); per member only
        # to name the one that fails
        if defect.size and not np.abs(defect).max() <= tol:
            worst = np.abs(defect).max(axis=(1, 2))
            k = int(np.flatnonzero(~(worst <= tol))[0])
            where = f" at member {k}" if len(M) > 1 else ""
            raise ValidationError(
                f"measurement split violates {label}{where} (defect {worst[k]:.3e})")


@dataclass(frozen=True)
class MeasurementSplit:
    """Homodyne selector pair: y = M1 W_out is measured, M2 W_out is conjugate.

    M = [M1; M2] is symplectic and orthogonal: M Sigma M^T = J = [[0, I],
    [-I, 0]], M M^T = I and M^T M = I.  Block by block, these are the seven
    identities M1 Sigma M1^T = 0, M2 Sigma M2^T = 0, M1 Sigma M2^T = I,
    M1 M1^T = I, M2 M2^T = I, M1 M2^T = 0 and M1^T M1 + M2^T M2 = I.
    """

    m: int
    M1: np.ndarray
    M2: np.ndarray

    def __post_init__(self):
        M1 = _as_matrix("M1", self.M1, rows=self.m, cols=2 * self.m)
        M2 = _as_matrix("M2", self.M2, rows=self.m, cols=2 * self.m)
        _check_splits(self.m, np.concatenate((M1, M2))[None])
        object.__setattr__(self, "M1", _frozen(M1))
        object.__setattr__(self, "M2", _frozen(M2))

    @classmethod
    def _stack(cls, m: int, O: np.ndarray) -> list["MeasurementSplit"]:
        """The splits ``M1 = O_k[0::2]``, ``M2 = O_k[1::2]`` of each matrix of
        the stack ``O`` (shape ``(k, 2m, 2m)``), checked once as a stack by
        the identities of the constructor; each split's rows are then frozen
        without checking them again."""
        M1, M2 = O[:, 0::2], O[:, 1::2]
        _check_splits(m, np.concatenate((M1, M2), axis=1))
        splits = []
        for a, b in zip(M1, M2):
            split = object.__new__(cls)
            split.__dict__.update(m=m, M1=_frozen(a), M2=_frozen(b))
            splits.append(split)
        return splits


def _selector_angle(sel, what: str) -> float:
    """Homodyne angle of one selector: ``"Q"`` is 0, ``"P"`` is pi/2, and
    anything else must be a finite angle in radians; otherwise a
    ValidationError that names ``what``."""
    if isinstance(sel, str) and sel in ("Q", "P"):
        return 0.0 if sel == "Q" else np.pi / 2
    try:
        # a boolean is a mistaken flag, not 0 or 1 rad
        theta = np.nan if isinstance(sel, (bool, np.bool_)) else float(sel)
    except (TypeError, ValueError, OverflowError):
        theta = np.nan
    if not np.isfinite(theta):
        raise ValidationError(
            f"{what} expects 'Q', 'P' or a finite angle per channel, got {sel!r}")
    return theta


def homodyne_split(m: int, measured) -> MeasurementSplit:
    """Build the (M1, M2) selector pair for per-channel homodyne detection.

    Parameters
    ----------
    m : int
        Number of field channels.
    measured : str, float, or sequence thereof
        Per-channel quadrature selector: ``"Q"``, ``"P"``, or an angle theta
        in radians measuring ``cos(theta) Q + sin(theta) P``.  A scalar is
        broadcast to all channels.

    Returns
    -------
    MeasurementSplit
        Satisfies all seven selector identities by construction.
    """
    if m < 1:
        raise ShapeError("channel count must be >= 1")
    if isinstance(measured, np.ndarray):
        measured = measured.tolist()
    if not isinstance(measured, (list, tuple)):
        measured = [measured] * m
    if len(measured) != m:
        raise ValidationError(f"need one selector per channel, got {len(measured)} for m={m}")
    M1 = np.zeros((m, 2 * m))
    M2 = np.zeros((m, 2 * m))
    for j, sel in enumerate(measured):
        theta = _selector_angle(sel, "homodyne_split")
        c, s = np.cos(theta), np.sin(theta)
        M1[j, 2 * j:2 * j + 2] = (c, s)
        M2[j, 2 * j:2 * j + 2] = (-s, c)
    return MeasurementSplit(m, M1, M2)


def realizability_defect(A: np.ndarray, C: np.ndarray) -> float:
    """Asymmetry of Sigma_n^T A - C^T Sigma_m C / 2, relative to its norm.

    Zero (up to rounding) iff (A, C) can be produced by some symmetric G;
    the symmetric part is that G.
    """
    A = np.asarray(A, dtype=float)
    C = np.asarray(C, dtype=float)
    n2 = A.shape[0]
    m2 = C.shape[0]
    G = sigma(n2 // 2).T @ A - C.T @ sigma(m2 // 2) @ C / 2.0
    scale = max(np.linalg.norm(G), 1.0)
    return float(np.linalg.norm(G - G.T) / scale)


@dataclass(frozen=True)
class QuantumLinearSystem:
    """Open linear quantum system in the quadrature representation.

    Attributes
    ----------
    G : ndarray
        Symmetric 2n x 2n Hamiltonian matrix (stored symmetrised).
    C : ndarray
        2m x 2n field coupling matrix; rows are grouped per channel as
        (Q, P) pairs.
    channels : tuple of Channel
        Labels and role tags for the m channels.
    force : ndarray or None
        Optional 2n drive direction for the classical force input.
    mode_labels : tuple of str
        Names for the (q_i, p_i) pairs.
    """

    G: np.ndarray
    C: np.ndarray
    channels: tuple[Channel, ...]
    force: Optional[np.ndarray] = None
    mode_labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        G = _hamiltonian("G", self.G)
        n2 = G.shape[0]
        C = _as_matrix("C", self.C, cols=n2) if np.size(self.C) else np.zeros((0, n2))
        if C.shape[0] % 2:
            raise ShapeError(f"C must have an even row count, got {C.shape[0]}")
        m = C.shape[0] // 2
        channels = tuple(self.channels) if self.channels else tuple(
            Channel(f"W{j + 1}") for j in range(m))
        if len(channels) != m:
            raise ShapeError(f"{len(channels)} channel labels for {m} channels")
        if len(set(ch.label for ch in channels)) != m:
            raise ValidationError("channel labels must be unique")
        force = self.force
        if force is not None:
            force = np.asarray(force, dtype=float).reshape(-1)
            if force.shape[0] != n2:
                raise ShapeError(f"force must have length {n2}, got {force.shape[0]}")
            if not np.isfinite(force).all():
                raise ValidationError("force contains non-finite entries")
            force = _frozen(force)
        labels = tuple(self.mode_labels) if self.mode_labels else tuple(
            f"mode{i + 1}" for i in range(n2 // 2))
        if len(labels) != n2 // 2:
            raise ShapeError(f"{len(labels)} mode labels for {n2 // 2} modes")
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "C", _frozen(C))
        object.__setattr__(self, "channels", channels)
        object.__setattr__(self, "force", force)
        object.__setattr__(self, "mode_labels", labels)

    @property
    def n(self) -> int:
        """Mode count."""
        return self.G.shape[0] // 2

    @property
    def m(self) -> int:
        """Channel count."""
        return self.C.shape[0] // 2

    @cached_property
    def A(self) -> np.ndarray:
        """Drift matrix Sigma_n (G + C^T Sigma_m C / 2), computed and checked
        finite once, read-only."""
        return _sealed("A", sigma(self.n) @ (self.G + self.C.T @ sigma(self.m) @ self.C / 2.0))

    @cached_property
    def B(self) -> np.ndarray:
        """Noise input matrix Sigma_n C^T Sigma_m, computed and checked finite
        once, read-only."""
        return _sealed("B", sigma(self.n) @ self.C.T @ sigma(self.m))

    @cached_property
    def _memo(self) -> dict:
        """Private memo of results that depend on this immutable system only:
        under ``"roles"`` its :meth:`role_partition`, and under ``"mf2"`` the
        parts of its type-2 open loop that no split changes, which only
        ``interconnect._mf2_parts`` reads or fills."""
        return {}

    def role_partition(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Indices of the feedback and of the evaluation channels.

        Type-2 loops split the fields into these two groups, so every
        channel must carry one of the two roles and each group must be
        nonempty.  Computed once per system.
        """
        if "roles" not in self._memo:
            self._memo["roles"] = self._roles()
        return self._memo["roles"]

    def _roles(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        groups: dict[str, list[int]] = {"feedback": [], "evaluation": []}
        for j, ch in enumerate(self.channels):
            if ch.role == "environment":
                raise ValidationError(
                    f"channel {ch.label!r} has role {ch.role!r}; type-2 loops need "
                    "every channel tagged feedback or evaluation")
            groups[ch.role].append(j)
        if not groups["feedback"] or not groups["evaluation"]:
            raise ValidationError("type-2 loops need at least one feedback and one "
                                  "evaluation channel")
        return tuple(groups["feedback"]), tuple(groups["evaluation"])

    def to_state_space(self, split: Optional[MeasurementSplit] = None) -> StateSpaceModel:
        """Named-port LTI realization of the system.

        Without a split the inputs are the raw field quadratures (ports
        ``"<label>"`` of width 2 with sub-ports ``".Q"``/``".P"``) and the
        outputs are the field quadratures ``"<label>.out"`` with D = I.

        With a split covering all channels the inputs are the measured
        noise ``"Q"`` and its conjugate ``"P"`` (width m each) and the
        outputs are ``"y"`` (measured signal), ``"ybar"`` (conjugate
        signal) and the full field ``"Wout"``.

        The classical force enters through port ``"F"`` when present.
        """
        B = self.B
        m = self.m
        labels = tuple(ch.label for ch in self.channels)
        force = self.force is not None
        if split is None:
            inputs, outputs, D = _layout("raw", labels, force)
            Bfull = np.concatenate((B, self.force[:, None]), axis=1) if force else B
            return StateSpaceModel._derive(self, B=Bfull, D=D, inputs=inputs, outputs=outputs)

        if split.m != m:
            raise ShapeError(f"split has {split.m} channels, system has {m}")
        M1, M2 = split.M1, split.M2
        inputs, outputs, _ = _layout("split", labels, force)
        cols = [B @ M1.T, B @ M2.T]
        if force:
            cols.append(self.force.reshape(-1, 1))
        Bfull = np.hstack(cols) if cols else np.zeros((2 * self.n, 0))
        Cfull = np.vstack([M1 @ self.C, M2 @ self.C, self.C])
        D = np.zeros((4 * m, Bfull.shape[1]))
        D[:m, :m] = np.eye(m)                      # y carries the measured noise
        D[m:2 * m, m:2 * m] = np.eye(m)            # ybar carries the conjugate
        D[2 * m:, :m] = M1.T
        D[2 * m:, m:2 * m] = M2.T
        return StateSpaceModel._derive(self, B=Bfull, C=Cfull, D=D, inputs=inputs,
                                       outputs=outputs)


@lru_cache(maxsize=128)
def _layout(kind: str, labels: tuple[str, ...], force: bool,
            feedback: int = 0) -> tuple[Ports, Ports, Optional[np.ndarray]]:
    """The sealed input and output registries of one channel layout, built
    once per layout (the cache keeps the last 128) and shared by every
    model with that layout.

    ``labels`` are the channel labels in order and ``force`` whether the
    system has a force port ``"F"``.  Kinds:

    * ``"raw"``: the ports of ``to_state_space()``; the third item is its
      identity feedthrough ``[I, 0]``, frozen;
    * ``"split"``: the ports of ``to_state_space(split)``;
    * ``"mf2"``: the ports of ``interconnect.mf_type2_open_loop``, where the
      first ``feedback`` labels are the feedback channels.

    The third item is ``None`` for the last two, whose feedthrough depends
    on the split.  A duplicate port name raises ``ValidationError`` on
    every call, as registering it does.
    """
    def quadratures(ports, name, start):
        ports.alias(name + ".Q", start, 1)
        ports.alias(name + ".P", start + 1, 1)

    m, D = len(labels), None
    if kind == "raw":
        inputs, outputs = Ports(), Ports()
        for j, label in enumerate(labels):
            for ports, name in ((inputs, label), (outputs, label + ".out")):
                ports.append(name, 2)
                quadratures(ports, name, 2 * j)
        D = np.zeros((2 * m, 2 * m + force))
        D[:, :2 * m] = np.eye(2 * m)
        D.setflags(write=False)
    else:
        if kind == "split":
            inputs = Ports([("Q", m), ("P", m)])
            outputs = Ports([("y", m), ("ybar", m), ("Wout", 2 * m)])
            fields = 2 * m  # where the field outputs start
        else:
            m1, m2 = feedback, m - feedback
            inputs = Ports([("W1", 2 * m1), ("Q2", m2), ("P2", m2)])
            for j, label in enumerate(labels[:m1]):
                quadratures(inputs, label, 2 * j)
            outputs = Ports([("y", m1), ("z", m2), ("W1out", 2 * m1), ("W2out", 2 * m2)])
            fields = m
        for j, label in enumerate(labels):
            quadratures(outputs, label + ".out", fields + 2 * j)
    if force:
        inputs.append("F", 1)
    inputs._held = outputs._held = True
    return inputs, outputs, D


def build_system(G, C, channels=None, force=None, mode_labels=None) -> QuantumLinearSystem:
    """Construct and validate an open linear quantum system.

    Parameters
    ----------
    G : array_like
        Symmetric 2n x 2n Hamiltonian matrix (rejected if asymmetric beyond
        1e-12 relative).
    C : array_like
        2m x 2n coupling matrix with per-channel (Q, P) row pairs.
    channels : sequence of Channel or (label, role) pairs, optional
    force : array_like, optional
        2n drive direction of the classical force.
    mode_labels : sequence of str, optional

    Returns
    -------
    QuantumLinearSystem
        The validated system; the drift ``A`` and noise input ``B`` are
        exposed as accessors.
    """
    chs = None
    if channels is not None:
        chs = tuple(ch if isinstance(ch, Channel) else Channel(*ch) if isinstance(ch, (tuple, list))
                    else Channel(str(ch)) for ch in channels)
    return QuantumLinearSystem(np.asarray(G, dtype=float), np.asarray(C, dtype=float),
                               chs or (), force=force,
                               mode_labels=tuple(mode_labels) if mode_labels else ())


def augment_with_vacuum(sys: QuantumLinearSystem, extra_channels: int) -> QuantumLinearSystem:
    """Append uncoupled vacuum channels (zero coupling rows).

    The drift is unchanged since zero rows contribute no Ito correction;
    the widened output enables simultaneous dual-homodyne readout of all
    quadratures through a width-2m split on the joint field.
    ``extra_channels = 0`` returns the system unchanged.
    """
    if extra_channels < 0:
        raise ShapeError("extra_channels must be >= 0")
    if extra_channels == 0:
        return sys
    existing = {ch.label for ch in sys.channels}
    new_labels = []
    k = 1
    while len(new_labels) < extra_channels:
        lbl = f"vac{k}"
        if lbl not in existing:
            new_labels.append(lbl)
        k += 1
    C_aug = np.vstack([sys.C, np.zeros((2 * extra_channels, 2 * sys.n))])
    channels = sys.channels + tuple(Channel(lbl, "environment") for lbl in new_labels)
    return QuantumLinearSystem(sys.G, C_aug, channels, force=sys.force,
                               mode_labels=sys.mode_labels)


def complex_to_quadrature(complex_drift, complex_couplings,
                          channels=None, force=None, mode_labels=None) -> QuantumLinearSystem:
    """Convert an annihilation-operator description to quadrature form.

    The complex dynamics ``da/dt = F a + (noise)`` with couplings
    ``L_j = l_j . a`` maps to the quadrature system through the block
    substitution ``F_ij -> [[Re, -Im], [Im, Re]]``; channel rows become
    ``[Re(l), -Im(l)]`` and ``[Im(l), Re(l)]`` per mode.

    Raises
    ------
    ValidationError
        If the converted drift is not physically realizable, i.e. no
        symmetric G reproduces it with the converted coupling.
    """
    F = np.atleast_2d(np.asarray(complex_drift, dtype=complex))
    if F.shape[0] != F.shape[1]:
        raise ShapeError(f"complex drift must be square, got {F.shape}")
    n = F.shape[0]
    couplings = [np.asarray(l, dtype=complex).reshape(-1) for l in complex_couplings]
    for l in couplings:
        if l.shape[0] != n:
            raise ShapeError(f"coupling vector must have length {n}, got {l.shape[0]}")
    A = _realify(F)
    C = _realify(np.array(couplings, dtype=complex).reshape(len(couplings), n))
    defect = realizability_defect(A, C)
    if defect > 1e-10:
        raise ValidationError(
            "complex description converts to a non-realizable drift "
            f"(asymmetry {defect:.3e})")
    G = sigma(n).T @ A - C.T @ sigma(C.shape[0] // 2) @ C / 2.0
    G = (G + G.T) / 2.0
    return build_system(G, C, channels=channels, force=force, mode_labels=mode_labels)


def quadrature_to_complex(sys: QuantumLinearSystem, tol: float = 1e-10):
    """Inverse of :func:`complex_to_quadrature` for complex-linear systems.

    Returns ``(F, couplings)``.  Fails if the drift or coupling does not
    commute with the complex structure (i.e. the dynamics mixes ``a`` and
    ``a*``), which is the case e.g. for squeezing Hamiltonians.
    """
    A = sys.A
    n = sys.n
    re1, im1 = A[0::2, 0::2], A[1::2, 0::2]
    re2, im2 = A[1::2, 1::2], -A[0::2, 1::2]
    scale = max(np.linalg.norm(A), 1.0)
    if np.linalg.norm(re1 - re2) > tol * scale or np.linalg.norm(im1 - im2) > tol * scale:
        raise ValidationError("drift is not complex-linear; no annihilation-operator form")
    F = re1 + 1j * im1
    couplings = []
    cscale = max(np.linalg.norm(sys.C), 1.0)
    for j in range(sys.m):
        rq = sys.C[2 * j]
        rp = sys.C[2 * j + 1]
        l = rq[0::2] + 1j * rp[0::2]
        if (np.linalg.norm(rq[1::2] + l.imag) > tol * cscale
                or np.linalg.norm(rp[1::2] - l.real) > tol * cscale):
            raise ValidationError(f"channel {j} coupling is not complex-linear")
        couplings.append(l)
    return F, couplings
