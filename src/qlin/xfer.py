"""Transfer-function evaluation, noise power spectra, and the SQL chain.

One resolvent engine (:func:`_solve_response`) factors each point once.
Every ``STRIDE``-th point of a grid chunk is an anchor, solved against the
joint right-hand side ``[B | I]``, which gives the response and a
conditioning screen; the anchor's inverse certifies the conditioning of the
points after it (a Neumann-series bound), which are then solved against
``B`` alone.  A point no anchor can certify gets its own joint solve.

One solve per (model, point): a model keeps, in its private memo, the joint
solve of its most recent one-point request that the screen cleared, against
the full ``B``.  :func:`noise_power`, :func:`evaluate` and
:func:`frequency_response` at that point read their columns from it, so a
coupling of the SQL chain (noise power, then force gain) factors ``sI - A``
once.  Grids are never kept, a derived model (such as the ``"gw"``
realization of :func:`normalized_gw_signal`) starts with an empty memo, and
the goal probes never read it.  Registries are built once per channel
layout (``core._layout``), the ``"gw"`` one once per parent registry.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .core import ShapeError, StateSpaceModel, ValidationError, _finite_positive
from .structural import reduce_pair

__all__ = [
    "SingularityError",
    "TransferFunction",
    "SpectrumCurve",
    "evaluate",
    "frequency_response",
    "noise_power",
    "sql_curve",
    "normalized_gw_signal",
    "squeezed_variances",
    "spectrum_csv",
]

#: Symmetrised vacuum variance per quadrature.
VACUUM_VARIANCE = 0.5

#: Largest squeeze parameter |r|: e^{2|r|} stays a finite float.
MAX_SQUEEZE = 0.5 * math.log(np.finfo(float).max)

#: Condition-number ceiling for resolvent solves.
COND_LIMIT = 1e12

#: Points per stacked resolvent solve (bounds the working memory of a grid).
CHUNK = 128

#: Every STRIDE-th point of a chunk is an anchor, whose inverse certifies
#: the conditioning of the points up to the next one.
STRIDE = 8

PortArg = Union[str, Sequence[str]]


class SingularityError(ValueError):
    """(sI - A) is numerically singular at the requested point."""


@dataclass(frozen=True)
class TransferFunction:
    """Signal path Xi(s) = C (sI - A)^{-1} B + D for one port pair."""

    realization: StateSpaceModel
    input_port: PortArg
    output_port: PortArg

    def __post_init__(self):
        # fail fast on unknown ports
        self.realization.inputs._select(self.input_port)
        self.realization.outputs._select(self.output_port)

    def __call__(self, s: complex) -> np.ndarray:
        return evaluate(self, s)


def _solve_response(A, B, C, D, points) -> np.ndarray:
    """``C (sI - A)^{-1} B + D`` at each of the 1-D ``points``; shape
    ``(len(points),) + D.shape``.

    The grid is cut into chunks of ``CHUNK`` points, and every ``STRIDE``-th
    point of a chunk is an anchor (a one-point request is its own anchor).
    The anchors make one stacked solve against the joint right-hand side
    ``[B | I]`` (3-D, broadcast over the stack, as every numpy reads it),
    which gives ``M^{-1} B`` and ``M^{-1}`` from one LU factorisation per
    point.  ``M^{-1}`` screens conditioning: ``cond_2(M) <= |M|_F |M^{-1}|_F``,
    so a point with ``|M|_F |M^{-1}|_F <= COND_LIMIT / 2`` passes the exact
    test with room for rounding.  An anchor's inverse also certifies the
    points after it: with ``d = |s - s_a|`` and ``F = |M_a^{-1}|_F``,
    ``M^{-1} = (I + (s - s_a) M_a^{-1})^{-1} M_a^{-1}`` gives
    ``|M^{-1}|_F <= F / (1 - d F)`` when ``d F < 1/2`` (the Neumann series),
    so a point whose ``|M|_F F / (1 - d F)`` is at most ``COND_LIMIT / 2``
    passes the screen and is solved against ``B`` alone.  A point its anchor
    cannot certify gets its own joint solve and screen.  The points the
    screen cannot clear (all of a stack, if its solve fails) get the exact
    ``np.linalg.cond``, and the accepted ones are solved against ``B``.  So
    each point is factored once, and its values are bit for bit those of one
    solve against ``B``.  Points above ``COND_LIMIT`` are never solved on
    the full pair; they are solved again on the reduced pair (built once per
    chunk), so only a pole of the signal path itself raises.  The points
    are finite: each public entry checks them first (:func:`_finite`).
    """
    points = np.asarray(points).reshape(-1)
    if points.size <= CHUNK:
        return _solve_chunk(A, B, C, D, points, False)
    out = np.empty((points.size,) + D.shape, dtype=complex)
    for lo in range(0, points.size, CHUNK):
        out[lo:lo + CHUNK] = _solve_chunk(A, B, C, D, points[lo:lo + CHUNK], False)
    return out


def _sq_frobenius(Z):
    """``|Z_k|_F^2`` of each matrix of the stack ``Z``."""
    return np.add.reduce((Z.conj() * Z).real, axis=(1, 2))


def _screened_solve(M, B):
    """The joint solve ``X = M^{-1} [B | I]`` of the stack ``M`` (``None``
    if it fails), ``|M^{-1}|_F`` (NaN if it fails) and the screen verdict of
    each matrix: ``|M|_F^2 |M^{-1}|_F^2 <= (COND_LIMIT / 2)^2``."""
    n, p = B.shape
    try:
        X = np.linalg.solve(M, np.concatenate((B, np.eye(n)), axis=1, dtype=complex)[None])
    except np.linalg.LinAlgError:
        return None, np.full(len(M), np.nan), np.zeros(len(M), dtype=bool)
    inv = _sq_frobenius(X[:, :, p:])
    return X, np.sqrt(inv), _sq_frobenius(M) * inv <= (COND_LIMIT / 2) ** 2


def _solve_chunk(A, B, C, D, s, reduced: bool) -> np.ndarray:
    n, p = B.shape
    if n == 0 or p == 0 or C.shape[0] == 0:
        return np.repeat(D.astype(complex)[None], s.size, axis=0)
    M = s[:, None, None] * np.eye(n) - A
    Z = np.zeros((s.size, n, p), dtype=complex)
    ok = np.zeros(s.size, dtype=bool)
    X, F, ok[::STRIDE] = _screened_solve(M[::STRIDE], B)
    if X is not None:
        Z[::STRIDE] = X[:, :, :p]
    # the anchor certificate of _solve_response, with 1 - dF multiplied
    # across so that no point divides by zero
    F = np.repeat(F, STRIDE)[:s.size]
    dF = np.abs(s - np.repeat(s[::STRIDE], STRIDE)[:s.size]) * F
    solo = (dF < 0.5) & (np.sqrt(_sq_frobenius(M)) * F <= COND_LIMIT / 2 * (1 - dF))
    solo[::STRIDE] = False
    rest = ~solo
    rest[::STRIDE] = False
    if rest.any():
        X, _, ok[rest] = _screened_solve(M[rest], B)
        if X is not None:
            Z[rest] = X[:, :, :p]
    ok |= solo
    bad = np.flatnonzero(~ok)
    ill = bad[:0]
    if bad.size:
        fine = np.linalg.cond(M[bad]) <= COND_LIMIT
        ill = bad[~fine]
        if reduced and ill.size:
            k = ill[0]
            eigs = np.linalg.eigvals(A)
            raise SingularityError(
                f"(sI - A) is ill conditioned at s={s[k]} (cond={np.linalg.cond(M[k]):.3e}); "
                f"nearest eigenvalue of the signal path: "
                f"{eigs[int(np.argmin(np.abs(eigs - s[k])))]}")
        solo[bad[fine]] = True
    if solo.any():
        Z[solo] = np.linalg.solve(M[solo], B.astype(complex)[None])
    out = C @ Z + D
    if ill.size:
        Ar, Br, Cr = reduce_pair(A, B, C)
        out[ill] = _solve_chunk(Ar, Br, Cr, D, s[ill], True)
    return out


def _columns(C, X, cols, D) -> np.ndarray:
    """``C X[:, :, cols] + D``, with the columns copied contiguous first:
    matmul rounds a strided operand differently."""
    return C @ np.ascontiguousarray(X[:, :, cols]) + D


def _point_solve(model: StateSpaceModel, s: np.ndarray) -> Optional[np.ndarray]:
    """The joint solve ``(sI - A)^{-1} [B | I]`` of ``model`` at the one
    point ``s`` (shape ``(1,)``), read-only, or ``None`` if the screen does
    not clear the point.  The model's memo keeps the solve of its most
    recent cleared point under ``"point"``, keyed by the point's bytes."""
    key = (s.dtype.char, s.tobytes())
    memo = model._memo
    hit = memo.get("point")
    if hit is not None and hit[0] == key:
        return hit[1]
    X, _, ok = _screened_solve(s[:, None, None] * np.eye(model.nstates) - model.A, model.B)
    if not ok[0]:
        return None
    X.setflags(write=False)
    memo["point"] = (key, X)
    return X


def evaluate(tf: TransferFunction, s: complex) -> np.ndarray:
    """Evaluate Xi(s) = C (sI - A)^{-1} B + D at one complex point.

    States that the port pair can neither excite nor see are stripped
    before conditioning is judged, so only a pole of the actual signal
    path raises.  Returns the ``(rows, cols)`` matrix; the same engine as
    :func:`frequency_response`, with a grid of one point.

    Raises
    ------
    SingularityError
        If (sI - A) restricted to the signal path has condition number
        above 1e12; the message names the offending eigenvalue.
    """
    return _response(tf, _finite(np.array([s])))[0]


def frequency_response(tf: TransferFunction, omegas: Sequence[float]) -> np.ndarray:
    """Evaluate Xi(i*omega) across a frequency grid; shape ``(len(omegas),
    rows, cols)``, equal point by point to :func:`evaluate` at ``1j * omega``.

    The grid is solved in stacked chunks; the conditioning test (condition
    number above 1e12 on the signal path raises ``SingularityError``) is the
    one of :func:`evaluate`, with the exact SVD kept for points that the
    Frobenius-norm bound cannot clear.
    """
    return _response(tf, 1j * _finite(np.asarray(omegas, dtype=float).reshape(-1)))


def _finite(points: np.ndarray) -> np.ndarray:
    """The 1-D ``points``, or a ``ValidationError`` if one is NaN or
    infinite; checked before any arithmetic on them, so none warns first
    (one point takes a scalar check)."""
    if not (cmath.isfinite(points[0]) if points.size == 1 else np.isfinite(points).all()):
        raise ValidationError(f"points must be finite, got {points[~np.isfinite(points)][0]}")
    return points


def _response(tf: TransferFunction, points: np.ndarray) -> np.ndarray:
    model = tf.realization
    return _port_response(model, tf.input_port, model.c(tf.output_port),
                          model.d(tf.output_port, tf.input_port), points)


def _port_response(model: StateSpaceModel, port, C, D, points) -> np.ndarray:
    """``C (sI - A)^{-1} B + D`` at ``points``, where ``B`` holds the columns
    of the input port(s) ``port`` of ``model`` (all of them for ``None``).
    A one-point request reads those columns of the model's memoised joint
    solve (:func:`_point_solve`); a grid, an empty path or a point the
    screen cannot clear goes to the grid engine, so such a point takes the
    exact test, and the reduced pair, of its own port pair."""
    if points.size == 1 and model.nstates and C.shape[0] and D.shape[1]:
        X = _point_solve(model, points)
        if X is not None:
            cols = slice(0, model.B.shape[1]) if port is None else model.inputs._select(port)
            return _columns(C, X, cols, D)
    return _solve_response(model.A, model.B if port is None else model.b(port), C, D, points)


@dataclass(frozen=True)
class SpectrumCurve:
    """Noise power sampled on an increasing frequency grid."""

    omegas: np.ndarray
    values: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        omegas = np.asarray(self.omegas, dtype=float).reshape(-1)
        values = np.asarray(self.values, dtype=float).reshape(-1)
        if omegas.shape != values.shape:
            raise ShapeError("omegas and values must have equal length")
        if omegas.size > 1 and not np.all(np.diff(omegas) > 0):
            raise ValidationError("omegas must be strictly increasing")
        if np.any(values < 0):
            raise ValidationError("noise power values must be nonnegative")
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "values", values)


def _column_variances(model: StateSpaceModel,
                      variances: Optional[Mapping[str, float]],
                      exclude: Sequence[str]) -> np.ndarray:
    var = np.full(model.B.shape[1], VACUUM_VARIANCE)
    if variances:
        for port, v in variances.items():
            if not 0 <= v < np.inf:
                raise ValidationError(
                    f"variance of {port!r} must be finite and nonnegative, got {v!r}")
            var[model.inputs._select(port)] = v
    for port in exclude:
        if port in model.inputs:
            var[model.inputs.slice(port)] = 0.0
    return var


def noise_power(model: StateSpaceModel, signal_output: PortArg,
                variances: Optional[Mapping[str, float]] = None,
                omega: Union[float, Sequence[float]] = 0.0,
                exclude: Sequence[str] = ("F",)) -> Union[float, np.ndarray]:
    """Noise power of a scalar output at one frequency or across a grid.

    ``S(omega) = sum_ports |Xi_{port -> output}(i omega)|^2 * variance``,
    with unlisted noise quadratures at the vacuum value 1/2.  Ports named
    in ``exclude`` (the classical force by default) are signal, not noise.
    A float ``omega`` gives a float; a 1-D array gives an array of the same
    length, from one call of the grid engine of :func:`frequency_response`
    (same values and conditioning test as one call per frequency).
    """
    rows = model.outputs._select(signal_output)
    C, D = model.C[rows], model.D[rows]
    if C.shape[0] != 1:
        raise ShapeError("signal_output must be a scalar output port")
    var = _column_variances(model, variances, exclude)
    # evaluate the full row response once, then weight column-wise
    om = np.asarray(omega, dtype=float)
    row = _port_response(model, None, C, D, 1j * _finite(om.reshape(-1)))
    power = (np.abs(row[:, 0]) ** 2 * var).sum(axis=-1)
    return float(power[0]) if om.ndim == 0 else power.reshape(om.shape)


def sql_curve(m: float, L: float, omegas: Sequence[float]) -> SpectrumCurve:
    """Standard quantum limit 1 / (2 m L^2 Omega^2) on a frequency grid;
    ``ValidationError`` unless every value is finite and positive."""
    _finite_positive(m, "mass m")
    _finite_positive(L, "path length L")
    # in Python floats, so that an overflow reads inf (and is rejected) silently
    scale = _finite_positive(2.0 * m * (L * L), "2 m L^2")
    om = np.asarray(omegas, dtype=float)
    if np.any(om == 0):
        raise ValidationError("the SQL diverges at Omega = 0")
    with np.errstate(over="ignore", divide="ignore"):
        values = 1.0 / (scale * om ** 2)
    if not np.all((values > 0) & (values < np.inf)):
        raise ValidationError("the SQL must be finite and positive on the grid")
    return SpectrumCurve(om, values, metadata={"m": m, "L": L})


def normalized_gw_signal(model: StateSpaceModel, output: str,
                         lam: float, L: float) -> TransferFunction:
    """Strain-referred signal chain for a force-sensing output.

    Appends the scaled output ``"gw" = output / (2 sqrt(lam) L)`` to the
    realization, so that with ``F(i Omega) = -m L Omega^2 g(i Omega)`` the
    displacement-signal path has unit gain in the regime well above the
    mechanical resonance, and :func:`noise_power` on ``"gw"`` is directly
    comparable to :func:`sql_curve`.
    """
    if "F" not in model.inputs:
        raise ShapeError("model has no force port 'F'")
    lam, L = _finite_positive(lam, "coupling lam"), _finite_positive(L, "path length L")
    rows = model.outputs._select(output)
    if model.C[rows].shape[0] != 1:
        raise ShapeError("output must be a scalar port")
    # in Python floats, so that an overflow reads inf (and is rejected) silently
    scale = 1.0 / _finite_positive(2.0 * math.sqrt(lam) * L, "2 sqrt(lam) L")
    model2 = StateSpaceModel._derive(model, C=np.concatenate((model.C, scale * model.C[rows])),
                                     D=np.concatenate((model.D, scale * model.D[rows])),
                                     outputs=model.outputs._plus("gw", 1))
    return TransferFunction(model2, "F", "gw")


def squeezed_variances(port: str, r: float,
                       conjugate: Optional[str] = None) -> dict[str, float]:
    """Variance map for a squeezed input: e^{-2r}/2 on ``port``, e^{+2r}/2
    on its conjugate quadrature (inferred from a .Q/.P suffix if omitted).
    ``r`` must be finite, with ``e^{2|r|}`` below the float range."""
    if not abs(r) <= MAX_SQUEEZE:
        raise ValidationError(
            f"squeeze parameter r must be finite with |r| <= {MAX_SQUEEZE:.6g}, got {r!r}")
    out = {port: np.exp(-2.0 * r) * VACUUM_VARIANCE}
    if conjugate is None:
        if port.endswith(".Q"):
            conjugate = port[:-2] + ".P"
        elif port.endswith(".P"):
            conjugate = port[:-2] + ".Q"
        elif port == "Q":
            conjugate = "P"
        elif port == "P":
            conjugate = "Q"
    if conjugate is not None:
        out[conjugate] = np.exp(2.0 * r) * VACUUM_VARIANCE
    return out


def spectrum_csv(curve: SpectrumCurve, sql: Optional[SpectrumCurve] = None) -> str:
    """Render ``omega,S,S_sql`` rows at 17 significant digits."""
    if sql is not None and not np.array_equal(sql.omegas, curve.omegas):
        raise ShapeError("SQL grid does not match the spectrum grid")
    refs = sql.values if sql is not None else np.full(curve.omegas.size, np.nan)
    rows = np.column_stack((curve.omegas, curve.values, refs)).ravel().tolist()
    return "omega,S,S_sql\n" + ("%.17g,%.17g,%.17g\n" * curve.omegas.size) % tuple(rows)
