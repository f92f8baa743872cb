"""Programmatic builders for the worked example systems and controllers.

All builders are pure functions of their parameters and reproduce the
reference matrices entry for entry in the interleaved quadrature ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Channel,
    QuantumLinearSystem,
    ValidationError,
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


def two_port_cavity(kappa1: float = 1.0, kappa2: float = 1.0) -> QuantumLinearSystem:
    """Empty optical cavity with two input-output mirrors.

    Drift is -(kappa1 + kappa2) I; each mirror couples as sqrt(2 kappa) I.
    """
    if kappa1 < 0 or kappa2 < 0:
        raise ValidationError("mirror rates must be nonnegative")
    C = np.vstack([np.sqrt(2 * kappa1) * np.eye(2), np.sqrt(2 * kappa2) * np.eye(2)])
    return build_system(np.zeros((2, 2)), C,
                        channels=[Channel("W1", "feedback"), Channel("W2", "evaluation")],
                        mode_labels=("cavity",))


def optomech_reduced(m: float = 1.0, omega: float = 1.0, lam: float = 1.0) -> QuantumLinearSystem:
    """Single oscillator probed after adiabatic elimination of the cavity.

    The probe only reads position, so P_out is the informative quadrature;
    the unknown force drives the momentum through port "F".
    """
    if m <= 0 or omega < 0 or lam < 0:
        raise ValidationError("need m > 0 and nonnegative omega, lam")
    G = np.diag([m * omega ** 2, 1.0 / m])
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
    if m <= 0 or gamma < 0:
        raise ValidationError("need m > 0 and gamma >= 0")
    G = np.array([
        [m * omega ** 2, 0.0, -kappa, 0.0],
        [0.0, 1.0 / m, 0.0, 0.0],
        [-kappa, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ])
    C = np.sqrt(2 * gamma) * np.array([[0.0, 0.0, 1.0, 0.0],
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
    m, w, lam = p.m, p.omega, p.lam
    G = np.diag([m * w ** 2, 1.0 / m, m * w ** 2, 1.0 / m])
    C = np.sqrt(lam) * _MICHELSON_ARMS
    return build_system(G, C, channels=_MICHELSON_CHANNELS, force=_MICHELSON_FORCE,
                        mode_labels=_MICHELSON_MODES)


def atomic_ensemble_linear(mu: float = 1.0) -> QuantumLinearSystem:
    """Linearized probed spin ensemble: p is driven by nothing and read out
    through the amplitude quadrature (y = sqrt(mu) p + Q)."""
    if mu < 0:
        raise ValidationError("mu must be nonnegative")
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
    if kappa < 0:
        raise ValidationError("kappa must be nonnegative")
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
    (momentum rows carry +g).
    """
    if g is None:
        g = kappa / np.sqrt(m * omega)
    C1 = (g / np.sqrt(2 * gamma)) * np.array([[0.0, 0.0], [-1.0, 0.0]])
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
    For omega -> 0 they approach +-sqrt(lam/m).
    """
    m, w, lam = p.m, p.omega, p.lam
    eps = np.sqrt(2.0) * lam / (m * np.sqrt(w ** 2 + np.sqrt(w ** 4 + 4 * lam ** 2 / m ** 2)))
    alpha = -lam / (m * eps)
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
