"""Gates on named qubits and synthesis of arbitrary two-qubit states.

Gates act on labels, not indices, and never build a 2^n x 2^n matrix: the
amplitude vector is reshaped to one axis per qubit and the 2x2 (or the
CNOT slice flip) is applied along the relevant axis.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qstate import ACCUMULATED_TOL, ROUNDOFF_TOL, StateVector

CNOT = "cnot"
HADAMARD = "hadamard"
RY = "ry"
RZ = "rz"

_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


@dataclass(frozen=True)
class GateApplication:
    """One gate bound to named qubits; angle only for rotations."""

    kind: str
    target: str
    control: str | None = None
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in (CNOT, HADAMARD, RY, RZ):
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind == CNOT:
            if self.control is None or self.control == self.target:
                raise ValueError("cnot needs distinct control and target labels")
            if self.angle is not None:
                raise ValueError("cnot takes no angle")
        else:
            if self.control is not None:
                raise ValueError(f"{self.kind} takes no control qubit")
            needs_angle = self.kind in (RY, RZ)
            if needs_angle and self.angle is None:
                raise ValueError(f"{self.kind} needs an angle")
            if not needs_angle and self.angle is not None:
                raise ValueError(f"{self.kind} takes no angle")


def _apply_single(state: StateVector, target: str, matrix: np.ndarray) -> StateVector:
    ax = state.axis(target)
    work = state.amplitudes.reshape((2,) * state.n_qubits)
    work = np.moveaxis(np.tensordot(matrix, np.moveaxis(work, ax, 0), axes=(1, 0)), 0, ax)
    return StateVector(work.reshape(-1), state.labels)


def apply_cnot(state: StateVector, control: str, target: str) -> StateVector:
    """Flip the target qubit on every basis vector where the control is 1."""
    if control == target:
        raise ValueError("cnot needs distinct control and target labels")
    c_ax = state.axis(control)
    t_ax = state.axis(target)
    work = state.amplitudes.reshape((2,) * state.n_qubits).copy()
    picker: list[object] = [slice(None)] * state.n_qubits
    picker[c_ax] = 1
    # inside the control=1 slice one axis is gone, so the target axis shifts
    sub_ax = t_ax - 1 if t_ax > c_ax else t_ax
    work[tuple(picker)] = np.flip(work[tuple(picker)], axis=sub_ax)
    return StateVector(work.reshape(-1), state.labels)


def apply_hadamard(state: StateVector, target: str) -> StateVector:
    """|0> -> (|0>+|1>)/sqrt2 and |1> -> (|0>-|1>)/sqrt2 on the target."""
    return _apply_single(state, target, _H)


def ry_matrix(angle: float) -> np.ndarray:
    half = 0.5 * angle
    c, s = np.cos(half), np.sin(half)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz_matrix(angle: float) -> np.ndarray:
    half = 0.5 * angle
    return np.array([[np.exp(-1j * half), 0.0], [0.0, np.exp(1j * half)]], dtype=complex)


def apply_ry(state: StateVector, target: str, angle: float) -> StateVector:
    return _apply_single(state, target, ry_matrix(angle))


def apply_rz(state: StateVector, target: str, angle: float) -> StateVector:
    return _apply_single(state, target, rz_matrix(angle))


def apply_gate(state: StateVector, gate: GateApplication) -> StateVector:
    if gate.kind == CNOT:
        return apply_cnot(state, gate.control, gate.target)
    if gate.kind == HADAMARD:
        return apply_hadamard(state, gate.target)
    if gate.kind == RY:
        return apply_ry(state, gate.target, gate.angle)
    return apply_rz(state, gate.target, gate.angle)


def apply_circuit(state: StateVector, gates: Sequence[GateApplication]) -> StateVector:
    for gate in gates:
        state = apply_gate(state, gate)
    return state


def zyz_angles(u: np.ndarray) -> tuple[float, float, float]:
    """Angles (alpha, beta, gamma) with RZ(alpha) RY(beta) RZ(gamma) = u up to phase."""
    u = np.asarray(u, dtype=complex)
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    v = u * np.exp(-0.5j * np.angle(det))
    beta = 2.0 * np.arctan2(abs(v[1, 0]), abs(v[0, 0]))
    if abs(v[1, 0]) < ROUNDOFF_TOL:
        alpha, gamma = 2.0 * np.angle(v[1, 1]), 0.0
    elif abs(v[0, 0]) < ROUNDOFF_TOL:
        alpha, gamma = 2.0 * np.angle(v[1, 0]), 0.0
    else:
        alpha = np.angle(v[1, 1]) + np.angle(v[1, 0])
        gamma = np.angle(v[1, 1]) - np.angle(v[1, 0])
    return float(alpha), float(beta), float(gamma)


def _rotation_gates(u: np.ndarray, label: str) -> list[GateApplication]:
    alpha, beta, gamma = zyz_angles(u)
    gates = []
    for kind, angle in ((RZ, gamma), (RY, beta), (RZ, alpha)):
        if abs(angle) > ROUNDOFF_TOL:
            gates.append(GateApplication(kind, label, angle=angle))
    return gates


def prepare_two_qubit(
    amplitudes: Sequence[complex], labels: tuple[str, str] = ("a1", "b1")
) -> tuple[StateVector, list[GateApplication]]:
    """Target two-qubit state plus a circuit building it from |00> up to phase.

    The circuit comes from the Schmidt form of the amplitude matrix: one RY
    sets the Schmidt weights, at most one CNOT entangles, and ZYZ rotations
    rotate each qubit into its Schmidt basis.
    """
    amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if amps.shape != (4,):
        raise ValueError(f"need exactly 4 amplitudes, got {amps.shape[0]}")
    norm = float(np.linalg.norm(amps))
    if not abs(norm - 1.0) <= ACCUMULATED_TOL:
        raise ValueError(f"amplitudes are not normalized: norm = {norm!r}")
    amps = amps / norm

    target = StateVector(amps, labels)
    first, second = labels

    u, schmidt, vh = np.linalg.svd(amps.reshape(2, 2))
    xi = 2.0 * np.arctan2(schmidt[1], schmidt[0])

    gates: list[GateApplication] = []
    if xi > ROUNDOFF_TOL:
        gates.append(GateApplication(RY, first, angle=float(xi)))
        gates.append(GateApplication(CNOT, second, control=first))
    gates.extend(_rotation_gates(u, first))
    gates.extend(_rotation_gates(vh.T, second))
    return target, gates
