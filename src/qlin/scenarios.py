"""Programmatic builders for the worked example systems and controllers.

All builders are pure functions of their parameters and reproduce the
reference matrices entry for entry in the interleaved quadrature ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Channel,
    QuantumLinearSystem,
    ValidationError,
    _finite_nonnegative,
    _finite_positive,
    build_system,
    complex_to_quadrature,
)
from .interconnect import QuantumController, cf_type1, cf_type2

__all__ = [
    "MichelsonParams",
    "two_port_cavity",
    "optomech_reduced",
    "optomech_full",
    "michelson",
    "atomic_ensemble_linear",
    "lambda_memory",
    "tsang_caves_controller",
    "tsang_caves_loop",
    "michelson_cf_params",
    "michelson_cf_controller",
    "michelson_cf_loop",
    "SCENARIOS",
]


@dataclass(frozen=True)
class MichelsonParams:
    """Interferometer parameters: oscillator mass/frequency, probe coupling,
    optical path length."""

    m: float = 1.0
    omega: float = 0.01
    lam: float = 1.0
    L: float = 1.0

    def __post_init__(self):
        for name in ("m", "omega", "lam", "L"):
            _finite_positive(getattr(self, name), name)


def _square(x: float, what: str) -> float:
    """``x ** 2``, Python's power, as the reference matrices compute it (it
    is not always ``x * x`` to the bit); a ``ValidationError`` naming
    ``what`` where it leaves the float range, instead of ``OverflowError``."""
    try:
        return x ** 2
    except OverflowError:
        raise ValidationError(f"{what} ** 2 leaves the float range, got {what} = {x!r}") from None


def two_port_cavity(kappa1: float = 1.0, kappa2: float = 1.0) -> QuantumLinearSystem:
    """Empty optical cavity with two input-output mirrors.

    Drift is -(kappa1 + kappa2) I; each mirror couples as sqrt(2 kappa) I.
    """
    _finite_nonnegative(kappa1, "mirror rates")
    _finite_nonnegative(kappa2, "mirror rates")
    C = np.vstack([np.sqrt(_finite_nonnegative(2 * kappa1, "2 kappa1")) * np.eye(2),
                   np.sqrt(_finite_nonnegative(2 * kappa2, "2 kappa2")) * np.eye(2)])
    return build_system(np.zeros((2, 2)), C,
                        channels=[Channel("W1", "feedback"), Channel("W2", "evaluation")],
                        mode_labels=("cavity",))


def optomech_reduced(m: float = 1.0, omega: float = 1.0, lam: float = 1.0) -> QuantumLinearSystem:
    """Single oscillator probed after adiabatic elimination of the cavity.

    The probe only reads position, so P_out is the informative quadrature;
    the unknown force drives the momentum through port "F".
    """
    _finite_positive(m, "m")
    _finite_nonnegative(omega, "omega")
    _finite_nonnegative(lam, "lam")
    G = np.diag([m * _square(omega, "omega"), 1.0 / m])
    C = np.sqrt(lam) * np.array([[0.0, 0.0], [1.0, 0.0]])
    return build_system(G, C, channels=[Channel("W", "feedback")],
                        force=[0.0, 1.0], mode_labels=("osc",))


def optomech_full(m: float = 1.0, omega: float = 1.0, kappa: float = 1.0,
                  gamma: float = 2.0) -> QuantumLinearSystem:
    """Mechanical oscillator coupled to a probed cavity (4 quadratures).

    ``kappa`` is the radiation-pressure coupling, ``gamma`` the cavity-probe
    rate; adiabatic elimination at gamma >> all rates reduces this to
    :func:`optomech_reduced` with lam = 2 kappa^2 / gamma.
    """
    _finite_positive(m, "m")
    _finite_nonnegative(gamma, "gamma")
    if not (math.isfinite(omega) and math.isfinite(kappa)):
        raise ValidationError(f"omega and kappa must be finite, got {omega!r} and {kappa!r}")
    G = np.array([
        [m * _square(omega, "omega"), 0.0, -kappa, 0.0],
        [0.0, 1.0 / m, 0.0, 0.0],
        [-kappa, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ])
    C = np.sqrt(_finite_nonnegative(2 * gamma, "2 gamma")) * np.array([[0.0, 0.0, 1.0, 0.0],
                                                                      [0.0, 0.0, 0.0, 1.0]])
    return build_system(G, C, channels=[Channel("W", "feedback")],
                        force=[0.0, 1.0, 0.0, 0.0], mode_labels=("osc", "cavity"))


#: The fixed parts of :func:`michelson`, built once.  Its coupling is
#: ``sqrt(lam)`` times ``_MICHELSON_ARMS``: W1 reads the common and W2 the
#: differential position of the two arms.
_MICHELSON_CHANNELS = (Channel("W1", "feedback"), Channel("W2", "evaluation"))
_MICHELSON_FORCE = np.array([0.0, 1.0, 0.0, -1.0])
_MICHELSON_ARMS = np.array([
    [0.0, 0.0, 0.0, 0.0],
    [1.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 0.0],
    [1.0, 0.0, -1.0, 0.0],
])
_MICHELSON_FORCE.setflags(write=False)
_MICHELSON_ARMS.setflags(write=False)
_MICHELSON_MODES = ("osc1", "osc2")


def michelson(p: MichelsonParams = MichelsonParams()) -> QuantumLinearSystem:
    """Two identical oscillators pushed by an antisymmetric force.

    Channel W1 is the bright (feedback) port, W2 the dark (evaluation)
    port; the force appears only in the differential mode.
    """
    mw2 = p.m * _square(p.omega, "omega")
    G = np.diag([mw2, 1.0 / p.m, mw2, 1.0 / p.m])
    C = np.sqrt(p.lam) * _MICHELSON_ARMS
    return build_system(G, C, channels=_MICHELSON_CHANNELS, force=_MICHELSON_FORCE,
                        mode_labels=_MICHELSON_MODES)


def atomic_ensemble_linear(mu: float = 1.0) -> QuantumLinearSystem:
    """Linearized probed spin ensemble: p is driven by nothing and read out
    through the amplitude quadrature (y = sqrt(mu) p + Q)."""
    _finite_nonnegative(mu, "mu")
    C = np.array([[0.0, np.sqrt(mu)], [0.0, 0.0]])
    return build_system(np.zeros((2, 2)), C, channels=[Channel("W", "feedback")],
                        mode_labels=("spin",))


def lambda_memory(kappa: float = 1.0, delta: float = 0.5, g: float = 1.0,
                  omega_rabi: float = 0.0) -> QuantumLinearSystem:
    """Three-mode atomic memory (cavity, polarization, spin wave) in the
    storage stage.

    Only the time-invariant storage stage is modeled, so the classical
    drive must be off (``omega_rabi = 0``); the spin-wave pair then
    decouples from the field entirely.
    """
    _finite_nonnegative(kappa, "kappa")
    if not (math.isfinite(delta) and math.isfinite(g)):
        raise ValidationError(f"delta and g must be finite, got {delta!r} and {g!r}")
    if omega_rabi != 0.0:
        raise ValidationError(
            "only the storage stage (omega_rabi = 0) is representable; the "
            "writing stage needs time-varying dynamics")
    F = np.array([
        [-kappa, 1j * g, 0.0],
        [1j * g, -1j * delta, 1j * omega_rabi],
        [0.0, 1j * np.conj(omega_rabi), 0.0],
    ])
    coupling = [np.array([np.sqrt(2 * kappa), 0.0, 0.0])]
    return complex_to_quadrature(F, coupling,
                                 channels=[Channel("A", "environment")],
                                 mode_labels=("cavity", "polarization", "spinwave"))


def tsang_caves_controller(m: float = 1.0, omega: float = 1.0, kappa: float = 1.0,
                           gamma: float = 2.0, g: float | None = None) -> QuantumController:
    """Single-mode CF controller realizing back-action evasion on the
    opto-mechanical plant.

    The couplings implement position-only (QND-type) interactions with the
    two fields and the Hamiltonian is a detuning at the mechanical
    frequency; ``g = kappa / sqrt(m omega)`` is the evasion point.  Signs
    are fixed so that the closed loop reproduces the reference realization
    (momentum rows carry +g).  Every parameter must be finite, and
    ``m omega`` (when ``g`` is derived) and ``gamma`` positive.
    """
    if g is None:
        g = kappa / math.sqrt(_finite_positive(m * omega, "m omega"))
    coupling = g / math.sqrt(2 * _finite_positive(gamma, "gamma"))
    if not (math.isfinite(kappa) and math.isfinite(omega) and math.isfinite(coupling)):
        raise ValidationError("kappa, omega and g / sqrt(2 gamma) must be finite, got "
                              f"{kappa!r}, {omega!r} and {coupling!r}")
    C1 = coupling * np.array([[0.0, 0.0], [-1.0, 0.0]])
    return QuantumController(G_K=np.diag([-omega, -omega]), C1=C1, C2=-C1)


def tsang_caves_loop(m: float = 1.0, omega: float = 1.0, kappa: float = 1.0,
                     gamma: float = 2.0, g: float | None = None) -> QuantumLinearSystem:
    """Opto-mechanical plant with the direct-interaction CF controller."""
    return cf_type1(optomech_full(m, omega, kappa, gamma),
                    tsang_caves_controller(m, omega, kappa, gamma, g))


def michelson_cf_params(p: MichelsonParams) -> tuple[float, float]:
    """Detuned-cavity controller parameters (epsilon, alpha) achieving BAE.

    ``epsilon`` solves the interference condition between the two Markov
    constraints; ``alpha = -lam / (m epsilon)`` is the (negative) detuning.
    For omega -> 0 they approach +-sqrt(lam/m).  Parameters for which either
    leaves the float range are a ``ValidationError``.
    """
    m, w, lam = p.m, p.omega, p.lam
    try:  # Python's powers raise OverflowError, numpy's arithmetic here FloatingPointError
        with np.errstate(all="raise", under="ignore"):
            root = np.sqrt(w ** 4 + 4 * lam ** 2 / m ** 2)
            eps = np.sqrt(2.0) * lam / (m * np.sqrt(w ** 2 + root))
            alpha = -lam / (m * eps)
    except ArithmeticError:
        raise ValidationError("m, omega and lam give no finite controller, got "
                              f"{m!r}, {w!r} and {lam!r}") from None
    return float(eps), float(alpha)


def michelson_cf_controller(p: MichelsonParams) -> QuantumController:
    """Single detuned cavity with the quarter-wave scattering plate."""
    eps, alpha = michelson_cf_params(p)
    return QuantumController(G_K=np.diag([alpha, alpha]),
                             C_K=np.sqrt(2 * eps) * np.eye(2),
                             S=np.array([[0.0, 1.0], [-1.0, 0.0]]))


def michelson_cf_loop(p: MichelsonParams = MichelsonParams()) -> QuantumLinearSystem:
    """Interferometer with the type-2 CF controller closed through the
    bright port; the surviving channel is the dark-port output and its
    input field carries the scattered bright-port noise [P1, -Q1]."""
    return cf_type2(michelson(p), michelson_cf_controller(p))


#: CLI registry: name -> (builder, parameter names with defaults)
SCENARIOS = {
    "two_port_cavity": (two_port_cavity, {"kappa1": 1.0, "kappa2": 1.0}),
    "optomech_reduced": (optomech_reduced, {"m": 1.0, "omega": 1.0, "lam": 1.0}),
    "optomech_full": (optomech_full, {"m": 1.0, "omega": 1.0, "kappa": 1.0, "gamma": 2.0}),
    "michelson": (lambda **kw: michelson(MichelsonParams(**kw)),
                  {"m": 1.0, "omega": 0.01, "lam": 1.0, "L": 1.0}),
    "atomic_ensemble": (atomic_ensemble_linear, {"mu": 1.0}),
    "lambda_memory": (lambda_memory,
                      {"kappa": 1.0, "delta": 0.5, "g": 1.0, "omega_rabi": 0.0}),
    "tsang_caves_loop": (tsang_caves_loop,
                         {"m": 1.0, "omega": 1.0, "kappa": 1.0, "gamma": 2.0}),
    "michelson_cf_loop": (lambda **kw: michelson_cf_loop(MichelsonParams(**kw)),
                          {"m": 1.0, "omega": 0.01, "lam": 1.0, "L": 1.0}),
}
