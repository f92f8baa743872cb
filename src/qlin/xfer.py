"""Transfer-function evaluation, noise power spectra, and the SQL chain."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .core import Ports, ShapeError, StateSpaceModel, ValidationError
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

#: Condition-number ceiling for resolvent solves.
COND_LIMIT = 1e12

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
        self.realization.b(self.input_port)
        self.realization.c(self.output_port)

    def __call__(self, s: complex) -> np.ndarray:
        return evaluate(self, s)


def _solve_response(A, B, C, D, s) -> np.ndarray:
    """C (sI - A)^{-1} B + D with a fallback to the reduced pair when the
    full resolvent is singular only through invisible states."""
    for reduced in (False, True):
        if A.shape[0] == 0 or B.shape[1] == 0 or C.shape[0] == 0:
            return D.astype(complex)
        M = s * np.eye(A.shape[0]) - A
        cond = np.linalg.cond(M)
        if np.isfinite(cond) and cond <= COND_LIMIT:
            return C @ np.linalg.solve(M, B.astype(complex)) + D
        if reduced:
            eigs = np.linalg.eigvals(A)
            raise SingularityError(
                f"(sI - A) is ill conditioned at s={s} (cond={cond:.3e}); nearest "
                f"eigenvalue of the signal path: {eigs[int(np.argmin(np.abs(eigs - s)))]}")
        A, B, C = reduce_pair(A, B, C)


def evaluate(tf: TransferFunction, s: complex) -> np.ndarray:
    """Evaluate Xi(s) = C (sI - A)^{-1} B + D at one complex point.

    States that the port pair can neither excite nor see are stripped
    before conditioning is judged, so only a pole of the actual signal
    path raises.

    Raises
    ------
    SingularityError
        If (sI - A) restricted to the signal path has condition number
        above 1e12; the message names the offending eigenvalue.
    """
    model = tf.realization
    return _solve_response(model.A, model.b(tf.input_port),
                           model.c(tf.output_port),
                           model.d(tf.output_port, tf.input_port), s)


def frequency_response(tf: TransferFunction, omegas: Sequence[float]) -> np.ndarray:
    """Evaluate Xi(i*omega) across a frequency grid; shape (len, rows, cols)."""
    return np.array([evaluate(tf, 1j * w) for w in omegas])


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
            if v < 0:
                raise ValidationError(f"variance of {port!r} must be nonnegative")
            var[model.inputs.indices(port)] = v
    mask = np.ones(model.B.shape[1], dtype=bool)
    for port in exclude:
        if port in model.inputs:
            mask[model.inputs.indices(port)] = False
    var[~mask] = 0.0
    return var


def noise_power(model: StateSpaceModel, signal_output: PortArg,
                variances: Optional[Mapping[str, float]] = None,
                omega: float = 0.0, exclude: Sequence[str] = ("F",)) -> float:
    """Single-frequency noise power of a scalar output.

    ``S(omega) = sum_ports |Xi_{port -> output}(i omega)|^2 * variance``,
    with unlisted noise quadratures at the vacuum value 1/2.  Ports named
    in ``exclude`` (the classical force by default) are signal, not noise.
    """
    rows = model.outputs.indices(signal_output)
    if rows.size != 1:
        raise ShapeError("signal_output must be a scalar output port")
    var = _column_variances(model, variances, exclude)
    # evaluate the full row response once, then weight column-wise
    row = _solve_response(model.A, model.B, model.C[rows, :], model.D[rows, :],
                          1j * omega)
    return float(np.sum(np.abs(row[0]) ** 2 * var))


def sql_curve(m: float, L: float, omegas: Sequence[float]) -> SpectrumCurve:
    """Standard quantum limit 1 / (2 m L^2 Omega^2) on a frequency grid."""
    if m <= 0 or L <= 0:
        raise ValidationError("mass and path length must be positive")
    om = np.asarray(omegas, dtype=float)
    if np.any(om == 0):
        raise ValidationError("the SQL diverges at Omega = 0")
    return SpectrumCurve(om, 1.0 / (2.0 * m * L ** 2 * om ** 2),
                         metadata={"m": m, "L": L})


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
    if lam <= 0 or L <= 0:
        raise ValidationError("coupling and path length must be positive")
    rows = model.outputs.indices(output)
    if rows.size != 1:
        raise ShapeError("output must be a scalar port")
    scale = 1.0 / (2.0 * np.sqrt(lam) * L)
    C2 = np.vstack([model.C, scale * model.C[rows, :]])
    D2 = np.vstack([model.D, scale * model.D[rows, :]])
    outputs = Ports.from_entries(model.outputs.entries())
    outputs.append("gw", 1)
    model2 = StateSpaceModel(model.A, model.B, C2, D2, model.inputs, outputs)
    return TransferFunction(model2, "F", "gw")


def squeezed_variances(port: str, r: float,
                       conjugate: Optional[str] = None) -> dict[str, float]:
    """Variance map for a squeezed input: e^{-2r}/2 on ``port``, e^{+2r}/2
    on its conjugate quadrature (inferred from a .Q/.P suffix if omitted)."""
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
    lines = ["omega,S,S_sql"]
    if sql is not None and not np.array_equal(sql.omegas, curve.omegas):
        raise ShapeError("SQL grid does not match the spectrum grid")
    for i, (w, v) in enumerate(zip(curve.omegas, curve.values)):
        ref = sql.values[i] if sql is not None else float("nan")
        lines.append(f"{w:.17g},{v:.17g},{ref:.17g}")
    return "\n".join(lines) + "\n"
