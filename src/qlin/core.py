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

import math
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
_FLOAT_MAX = float(np.finfo(float).max)
# Largest entry of a Hamiltonian matrix: 2|g| must be a float, so that its
# symmetrisation (G + G^T) / 2 cannot overflow.
HALF_MAX = _FLOAT_MAX / 2


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


def _all_finite(arr: np.ndarray) -> bool:
    """Whether every entry of ``arr`` is finite: one count in C, without the
    Python layer of ``ndarray.all``."""
    return np.count_nonzero(np.isfinite(arr)) == arr.size


def _frobenius(stack: np.ndarray) -> np.ndarray:
    """The array of ``|x_t|_F`` of each matrix of a stack ``(T, rows, cols)``
    (one matrix is the stack of one ``x[None]``), each rounded as
    ``np.linalg.norm`` rounds that matrix alone: the root of the dot of its
    entries in memory order (one ``np.vdot`` per member, which sets no
    overflow warning).  Where that is inf, or 0 on a nonzero matrix, it is
    recomputed as ``m |x / m|_F`` with ``m = max |x|``, so in-range norms
    keep their bits and none warns (a norm above the float range is inf)."""
    # each member's entries in memory order, copied to unit stride: a strided
    # dot rounds apart
    flat = np.ascontiguousarray(stack.swapaxes(1, 2) if stack.strides[2] > stack.strides[1]
                                else stack).reshape(len(stack), -1 if stack.size else 0)
    out = [math.sqrt(np.vdot(entries, entries)) for entries in flat]
    for t in [t for t, norm in enumerate(out) if not 0 < norm < math.inf]:
        if 0 < (m := np.abs(flat[t]).max(initial=0.0)) < math.inf:
            out[t] = float(m) * math.sqrt(np.vdot(flat[t] / m, flat[t] / m))
    return np.array(out)


def _as_array(name: str, arr) -> np.ndarray:
    """``arr`` as a float array, the first step of :func:`_as_matrix`: input
    that is not numeric (a ragged list, a string) is a ``ValidationError``
    naming ``name``, not numpy's bare ``ValueError``."""
    try:
        return np.asarray(arr, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} is not a numeric matrix: {exc}") from None


def _as_matrix(name: str, arr, rows: Optional[int] = None, cols: Optional[int] = None,
               bound: Optional[float] = None) -> np.ndarray:
    """``arr`` as a 2-D float matrix with the given shape and finite entries,
    or, with ``bound``, entries of magnitude at most ``bound`` (one check:
    NaN fails the comparison).  The one reader of every matrix input: one
    that is not numeric is a ``ValidationError`` naming ``name``
    (:func:`_as_array`), a 1-D array is one row, and a bare ``[]`` is the
    empty matrix of the shape ``rows x cols`` (0 where not given) when that
    shape holds no entries, so a stateless realization reads back from its
    JSON.  A ``[]`` where the shape holds entries is a ``ShapeError``."""
    out = _as_array(name, arr)
    if out.ndim < 2:
        out = out.reshape(rows or 0, cols or 0) if out.shape == (0,) and not (rows and cols) \
            else out.reshape(1, -1)
    if out.ndim != 2:
        raise ShapeError(f"{name} must be a 2-D matrix, got ndim={out.ndim}")
    if rows is not None and out.shape[0] != rows:
        raise ShapeError(f"{name} must have {rows} rows, got {out.shape[0]}")
    if cols is not None and out.shape[1] != cols:
        raise ShapeError(f"{name} must have {cols} columns, got {out.shape[1]}")
    ok = np.isfinite(out) if bound is None else np.abs(out) <= bound
    if np.count_nonzero(ok) != out.size:
        over = "" if bound is None else f" or entries above {bound:.6g} in magnitude"
        raise ValidationError(f"{name} contains non-finite entries{over}")
    return out


def _finite_positive(value, what: str) -> float:
    """``value`` as a float, or a ``ValidationError`` naming ``what`` unless
    it is a finite positive number (compared in Python, so a float costs no
    numpy call; NaN fails both comparisons)."""
    if not 0 < value <= _FLOAT_MAX:
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
        if not _all_finite(arr):
            raise ValidationError(f"{name} contains non-finite entries")
        arr.setflags(write=False)
    return arr


def _hamiltonian(name: str, G) -> np.ndarray:
    """A Hamiltonian matrix checked (no entry above ``HALF_MAX``, which also
    rejects a non-finite one, square with even size and symmetric within
    ``SYMMETRY_RTOL``), symmetrised and frozen.  A bitwise symmetric ``G``
    is its own symmetrisation (``2g`` is a float and halving it is exact),
    so it is frozen as given; one whose transpose differs only in the sign
    of a zero is symmetrised as any other."""
    G = _as_matrix(name, G, bound=HALF_MAX)
    if G.shape[0] != G.shape[1] or G.shape[0] % 2:
        raise ShapeError(f"{name} must be square with even size, got {G.shape}")
    if G.tobytes() == G.T.tobytes():
        return _frozen(G)
    if not _asymmetry(G) <= SYMMETRY_RTOL:
        raise ValidationError(
            f"{name} is not symmetric within tolerance; refusing to symmetrise "
            "an asymmetric Hamiltonian matrix")
    return _sealed(name, (G + G.T) / 2.0)


def _asymmetry(G: np.ndarray) -> float:
    """``|G - G^T|_F / max(|G|_F, 1)``, how far the square ``G`` is from
    symmetric relative to its size: 0 iff it is symmetric, and NaN (which
    every bound rejects) when both norms leave the float range."""
    return float(_frobenius((G - G.T)[None])[0]) / max(float(_frobenius(G[None])[0]), 1.0)


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
        self._ranges: dict[str, slice] = {}
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
        self._ranges[name] = slice(start, start + width)

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

    def slice(self, name: str) -> slice:
        try:
            return self._ranges[name]
        except KeyError:
            raise PortLookupError(
                f"unknown port {name!r}; available: {sorted(self._ranges)}") from None

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
            idx = np.asarray([i for name in key for i in range(self._total)[self.slice(name)]],
                             dtype=int)
            if self._held:
                idx.setflags(write=False)
                self._indices[key] = idx
        return idx

    def _select(self, names: Union[str, Sequence[str]]) -> Union[slice, np.ndarray]:
        """Index of one or more ports: the slice of a single name, else
        :meth:`_resolve`.  Indexing with a slice gives a view."""
        return self.slice(names) if isinstance(names, str) else self._resolve(names)

    def width(self, name: str) -> int:
        s = self.slice(name)
        return s.stop - s.start

    @property
    def total(self) -> int:
        return self._total

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._ranges)

    def entries(self) -> list[tuple[str, int, int]]:
        """(name, start, width) triples in registration order."""
        return [(n, r.start, r.stop - r.start) for n, r in self._ranges.items()]

    def __repr__(self):
        return f"Ports({self.entries()!r})"


@dataclass(frozen=True)
class StateSpaceModel:
    """Real LTI realization dx/dt = A x + B u, y = C x + D u with named ports.

    Each matrix is read by the one rule of :func:`_as_matrix`, with the
    shape the ports fix: ``B`` is ``n x inputs``, ``C`` is ``outputs x n``
    and ``D`` is ``outputs x inputs``, ``n`` being ``A``'s row count.  So a
    bare ``[]`` is the empty matrix of that shape wherever it holds no
    entries: a stateless model's ``A``, ``B`` and ``C`` (as its JSON holds
    them), or the ``D`` of a model without inputs or outputs; anywhere else
    it is a ``ShapeError``."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    inputs: Ports
    outputs: Ports

    def __post_init__(self):
        A = _as_matrix("A", self.A)
        n, p, m = A.shape[0], self.outputs.total, self.inputs.total
        B = _as_matrix("B", self.B, rows=n, cols=m)
        C = _as_matrix("C", self.C, rows=p, cols=n)
        D = _as_matrix("D", self.D, rows=p, cols=m)
        # frozen copies, then the one shape check of every realization
        model = self._derive(self, A=_frozen(A), B=_frozen(B), C=_frozen(C), D=_frozen(D))
        self.__dict__.update(model.__dict__)

    @classmethod
    def _derive(cls, parent, A=None, B=None, C=None, D=None, inputs=None,
                outputs=None) -> "StateSpaceModel":
        """The validate-once constructor of the package's own realizations.

        Each of ``A``, ``B``, ``C``, ``D``, ``inputs`` and ``outputs`` not
        given is taken from ``parent`` (a validated model or system),
        so its frozen arrays are shared, not checked or copied again.  A new
        array must be one the package has just computed, never a caller's:
        it is checked for finiteness and frozen in place (:func:`_sealed`).

        Every model, the public constructor's included, gets here its own
        empty private memo ``_memo`` of results that depend on the model
        only, in two kinds of entry, each owned by one module:

        * staircase results of :mod:`qlin.structural`, keyed by side and the
          resolved port indices, each computed once; only
          ``structural._subspaces`` and ``structural._reduced_pair`` read or
          fill them;
        * under the key ``"point"``, the joint resolvent solve of the most
          recent one-point request of :mod:`qlin.xfer` that its conditioning
          screen cleared; only ``xfer._response`` reads or fills it.
        """
        A = parent.A if A is None else _sealed("A", A)
        B = parent.B if B is None else _sealed("B", B)
        C = parent.C if C is None else _sealed("C", C)
        D = parent.D if D is None else _sealed("D", D)
        inputs = parent.inputs if inputs is None else inputs
        outputs = parent.outputs if outputs is None else outputs
        n = A.shape[0]
        if (A.shape != (n, n) or B.shape[0] != n or C.shape[1] != n
                or D.shape != (C.shape[0], B.shape[1])
                or inputs.total != B.shape[1] or outputs.total != C.shape[0]):
            raise ShapeError(f"inconsistent realization: A {A.shape}, B {B.shape}, "
                             f"C {C.shape}, D {D.shape}, ports {inputs.total} in, "
                             f"{outputs.total} out")
        model = object.__new__(cls)
        model.__dict__.update(A=A, B=B, C=C, D=D, inputs=inputs, outputs=outputs, _memo={})
        inputs._held = outputs._held = True
        return model

    @classmethod
    def _derive_each(cls, parent, inputs: Ports, outputs: Ports,
                     stacks: dict) -> list["StateSpaceModel"]:
        """:meth:`_derive` of each member of the stacks of new arrays
        ``stacks`` (``A``, ``B``, ``C`` or ``D``, each of shape ``(T, ., .)``),
        with the ports ``inputs`` and ``outputs``.  Each stack is checked
        finite and frozen once, so its members, read-only views, are shared
        without a second check."""
        for name, stack in stacks.items():
            _sealed(name, stack)
        return [cls._derive(parent, inputs=inputs, outputs=outputs, **dict(zip(stacks, member)))
                for member in zip(*stacks.values())]

    @property
    def nstates(self) -> int:
        return self.A.shape[0]

    @cached_property
    def _norm_A(self) -> np.ndarray:
        """``|A|_F`` as a stack of one, computed and checked judgeable once
        (``structural._scales``): every staircase cutoff, probe radius and
        probe threshold of the model reads it (``A^T`` has the same norm, to
        the bit)."""
        from .structural import _scales  # the home of the scale rules imports this module
        return _scales("A", self.A[None])

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


def _check_splits(m: int, M: np.ndarray) -> None:
    """Check every ``M = [M1; M2]`` of the stack ``M`` (shape ``(k, 2m, 2m)``)
    against the three split identities within ``SPLIT_TOL * max(m, 1)``; a
    ``ValidationError`` names the first identity that fails, its defect and,
    in a stack of more than one, the member's index."""
    eye = np.eye(2 * m)
    Mt = M.transpose(0, 2, 1)
    # an overflow makes a defect inf or NaN, which fails the check below
    with np.errstate(over="ignore", invalid="ignore"):
        checks = {
            # J = [[0, I], [-I, 0]]
            "M Sigma M^T = J": M @ sigma(m) @ Mt - (np.eye(2 * m, k=m) - np.eye(2 * m, k=-m)),
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


def _implied_hamiltonian(A: np.ndarray, C: np.ndarray) -> np.ndarray:
    """``Sigma_n^T A - C^T Sigma_m C / 2``, the inverse of the drift formula
    ``A = Sigma_n (G + C^T Sigma_m C / 2)``: ``G`` itself when ``(A, C)``
    comes from a symmetric ``G``.  The one home of that formula.  Its
    entries must be ones a Hamiltonian may hold (at most ``HALF_MAX``, so
    ``G - G^T`` cannot overflow); an overflowing product or a non-finite
    input is a ``ValidationError``, with no warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        G = sigma(len(A) // 2).T @ A - C.T @ sigma(len(C) // 2) @ C / 2.0
    return _as_matrix("the implied Hamiltonian Sigma^T A - C^T Sigma C / 2", G, bound=HALF_MAX)


def realizability_defect(A: np.ndarray, C: np.ndarray) -> float:
    """Relative asymmetry ``|G - G^T|_F / max(|G|_F, 1)`` of the implied
    Hamiltonian ``G = Sigma_n^T A - C^T Sigma_m C / 2``.

    Zero (up to rounding) iff (A, C) can be produced by some symmetric G;
    the symmetric part is that G.  A ``G`` that overflows, or an ``A`` or
    ``C`` that is not finite, is a ``ValidationError``.
    """
    return _asymmetry(_implied_hamiltonian(_as_array("A", A), _as_array("C", C)))


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
        C = _as_matrix("C", self.C, cols=n2)
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
            force = _as_matrix("force", force).reshape(-1)
            if force.shape[0] != n2:
                raise ShapeError(f"force must have length {n2}, got {force.shape[0]}")
            force = _frozen(force)
        labels = tuple(self.mode_labels) if self.mode_labels else tuple(
            f"mode{i + 1}" for i in range(n2 // 2))
        if len(labels) != n2 // 2:
            raise ShapeError(f"{len(labels)} mode labels for {n2 // 2} modes")
        self.__dict__.update(G=G, C=_frozen(C), channels=channels, force=force,
                             mode_labels=labels)

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
        # ndarray.dot is the BLAS product of @, bit for bit, with less overhead
        CtSC = self.C.T.dot(sigma(self.m)).dot(self.C)
        return _sealed("A", sigma(self.n).dot(self.G + CtSC / 2.0))

    @cached_property
    def B(self) -> np.ndarray:
        """Noise input matrix Sigma_n C^T Sigma_m, computed and checked finite
        once, read-only."""
        return _sealed("B", sigma(self.n).dot(self.C.T).dot(sigma(self.m)))

    @cached_property
    def _memo(self) -> dict:
        """Private memo of results that depend on this immutable system only:
        under ``("nogo", goal, scheme, base)`` its own verdict under the
        canonical splits, which only ``nogo.verify_nogo`` reads or fills."""
        return {}

    def role_partition(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Indices of the feedback and of the evaluation channels.

        Type-2 loops split the fields into these two groups, so every
        channel must carry one of the two roles and each group must be
        nonempty.  Read from the channel tags on each call.
        """
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
        if split is not None:
            return StateSpaceModel._derive_each(self, *self._split_stacks(split.M1[None],
                                                                        split.M2[None]))[0]
        force = self.force is not None
        inputs, outputs, D = _layout("raw", tuple(ch.label for ch in self.channels), force)
        B = np.concatenate((self.B, self.force[:, None]), axis=1) if force else self.B
        return StateSpaceModel._derive(self, B=B, D=D, inputs=inputs, outputs=outputs)

    def _split_stacks(self, M1: np.ndarray, M2: np.ndarray):
        """The ports and the stacks ``B``, ``C``, ``D`` of ``to_state_space``
        under each split of the stacks ``M1`` and ``M2`` (shape ``(T, m, 2m)``,
        C-ordered members), each product made per member as for one split;
        the drift is the system's own."""
        T, m, n2 = len(M1), self.m, 2 * self.n
        if M1.shape[1] != m:
            raise ShapeError(f"split has {M1.shape[1]} channels, system has {m}")
        force = self.force is not None
        inputs, outputs, _ = _layout("split", tuple(ch.label for ch in self.channels), force)
        B = np.empty((T, n2, 2 * m + force))
        B[:, :, :m] = self.B @ M1.swapaxes(1, 2)
        B[:, :, m:2 * m] = self.B @ M2.swapaxes(1, 2)
        if force:
            B[:, :, -1] = self.force
        C = np.empty((T, 4 * m, n2))
        C[:, :m] = M1 @ self.C
        C[:, m:2 * m] = M2 @ self.C
        C[:, 2 * m:] = self.C
        D = np.zeros((T, 4 * m, 2 * m + force))
        D[:, :2 * m, :2 * m] = np.eye(2 * m)  # y and ybar carry the noise they measure
        D[:, 2 * m:, :2 * m] = np.concatenate([M1, M2], axis=1).swapaxes(1, 2)
        return inputs, outputs, {"B": B, "C": C, "D": D}


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
        D = np.eye(2 * m, 2 * m + force)
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
    return QuantumLinearSystem(G, C, chs or (), force=force,
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
    G = _implied_hamiltonian(A, C)
    if not (defect := _asymmetry(G)) <= 1e-10:
        raise ValidationError(
            "complex description converts to a non-realizable drift "
            f"(asymmetry {defect:.3e})")
    return build_system((G + G.T) / 2.0, C, channels=channels, force=force,
                        mode_labels=mode_labels)


def quadrature_to_complex(sys: QuantumLinearSystem, tol: float = 1e-10):
    """Inverse of :func:`complex_to_quadrature` for complex-linear systems.

    Returns ``(F, couplings)``.  Fails if the drift or coupling does not
    commute with the complex structure (i.e. the dynamics mixes ``a`` and
    ``a*``), which is the case e.g. for squeezing Hamiltonians.
    """
    A = sys.A
    re1, im1 = A[0::2, 0::2], A[1::2, 0::2]
    re2, im2 = A[1::2, 1::2], -A[0::2, 1::2]
    scale = max(_frobenius(A[None])[0], 1.0)
    if not _frobenius(np.array([re1 - re2, im1 - im2])).max() <= tol * scale:
        raise ValidationError("drift is not complex-linear; no annihilation-operator form")
    F = re1 + 1j * im1
    couplings = []
    cscale = max(_frobenius(sys.C[None])[0], 1.0)
    for j in range(sys.m):
        rq = sys.C[2 * j]
        rp = sys.C[2 * j + 1]
        l = rq[0::2] + 1j * rp[0::2]
        # the two defects as a stack of one-row matrices
        if not _frobenius(np.array([[rq[1::2] + l.imag], [rp[1::2] - l.real]])).max() \
                <= tol * cscale:
            raise ValidationError(f"channel {j} coupling is not complex-linear")
        couplings.append(l)
    return F, couplings
