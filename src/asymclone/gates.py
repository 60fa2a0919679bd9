"""Gates on named qubits and synthesis of arbitrary two-qubit states.

Gates act on labels, not indices, and never build a 2^n x 2^n matrix: a
CNOT is a permutation of the basis indices, and a one-qubit gate combines
the two halves of the amplitude vector split along its qubit's bit.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qstate import ACCUMULATED_TOL, ROUNDOFF_TOL, StateVector, _every, _offender, norm_rows

CNOT = "cnot"
HADAMARD = "hadamard"
RY = "ry"
RZ = "rz"

_TAKES = {CNOT: (True, False), HADAMARD: (False, False), RY: (False, True), RZ: (False, True)}
_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
_H.flags.writeable = False


@dataclass(frozen=True)
class GateApplication:
    """One gate bound to named qubits; angle only for rotations."""

    kind: str
    target: str
    control: str | None = None
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in tuple(_TAKES):  # by ==, so an unhashable kind is unknown too
            raise ValueError(f"unknown gate kind {self.kind!r}")
        takes_control, takes_angle = _TAKES[self.kind]
        if takes_control and (self.control is None or self.control == self.target):
            raise ValueError(f"{self.kind} needs distinct control and target labels")
        if not takes_control and self.control is not None:
            raise ValueError(f"{self.kind} takes no control qubit")
        if takes_angle and self.angle is None:
            raise ValueError(f"{self.kind} needs an angle")
        if takes_angle and not (isinstance(self.angle, numbers.Real) and math.isfinite(self.angle)):
            raise ValueError(f"{self.kind} needs a finite angle, got {self.angle!r}")
        if not takes_angle and self.angle is not None:
            raise ValueError(f"{self.kind} takes no angle")


# The gates on (..., 2^n) amplitude stacks, qubits addressed by axis (0 is
# the most significant index bit); the functions on named qubits below them
# are validated wrappers calling them on one row.


@functools.cache
def _cnot_index(n: int, control: int, target: int) -> np.ndarray:
    """The read-only index permutation of a CNOT on n qubits, built once per axes."""
    if control == target or not (0 <= control < n and 0 <= target < n):
        raise ValueError(f"cnot needs distinct control and target axes in [0, {n}), got {control} and {target}")
    index = np.arange(2**n)
    flip = np.where(index & (1 << (n - 1 - control)), index ^ (1 << (n - 1 - target)), index)
    flip.flags.writeable = False
    return flip


def _qubits(amplitudes: np.ndarray) -> int:
    """n of rows of length 2^n; ValueError names any other row length."""
    size = amplitudes.shape[-1]
    if size < 1 or size & (size - 1):
        raise ValueError(f"gate rows need a length 2^n, got {size}")
    return size.bit_length() - 1


def cnot_rows(amplitudes: np.ndarray, control: int, target: int) -> np.ndarray:
    """Flip the target bit of every basis index whose control bit is 1.

    A CNOT only moves entries along the last axis, so any array works: on
    np.arange(2^n) it returns the index permutation itself. Raises
    ValueError unless rows have length 2^n and control and target are
    distinct axes in [0, n).
    """
    return amplitudes[..., _cnot_index(_qubits(amplitudes), control, target)]


def gate_rows(amplitudes: np.ndarray, target: int, matrices: np.ndarray) -> np.ndarray:
    """Apply a 2x2 matrix to the target qubit of each row.

    matrices is one (2, 2) matrix shared by every row or a (..., 2, 2)
    stack, one per row. Raises ValueError unless rows have length 2^n and
    target is an axis in [0, n).
    """
    n = _qubits(amplitudes)
    if not 0 <= target < n:
        raise ValueError(f"gate needs a target axis in [0, {n}), got {target}")
    work = amplitudes.reshape(amplitudes.shape[:-1] + (2**target, 1, 2, -1))
    m = np.asarray(matrices)[..., None, :, :, None]
    out = m[..., 0, :] * work[..., 0, :] + m[..., 1, :] * work[..., 1, :]
    return out.reshape(out.shape[:-3] + (-1,))


def ry_matrix(angle) -> np.ndarray:
    """RY(angle) as a 2x2 matrix, or a (..., 2, 2) stack for an array of angles."""
    half = 0.5 * np.asarray(angle, dtype=float)
    c, s = np.cos(half), np.sin(half)
    m = np.empty(half.shape + (2, 2), dtype=complex)  # written entry by entry, as qstate.bloch_rows does
    m[..., 0, 0] = c
    m[..., 0, 1] = -s
    m[..., 1, 0] = s
    m[..., 1, 1] = c
    return m


def rz_matrix(angle) -> np.ndarray:
    """RZ(angle) as a 2x2 matrix, or a (..., 2, 2) stack for an array of angles."""
    half = 0.5 * np.asarray(angle, dtype=float)
    m = np.zeros(half.shape + (2, 2), dtype=complex)
    m[..., 0, 0] = np.exp(-1j * half)
    m[..., 1, 1] = np.exp(1j * half)
    return m


def _rz_rows(amplitudes: np.ndarray, target: int, angle) -> np.ndarray:
    """RZ on each row as its halves times rz_matrix's diagonal: gate_rows' values, but for the sign of a zero."""
    # a product with +-1j is exact, so these are rz_matrix's bits
    phases = np.exp(np.multiply.outer(0.5 * np.asarray(angle, dtype=float), (-1j, 1j)))
    out = phases[..., None, None, :, None] * amplitudes.reshape(amplitudes.shape[:-1] + (2**target, 1, 2, -1))
    return out.reshape(out.shape[:-4] + (-1,))


_MATRICES = {HADAMARD: lambda angle: _H, RY: ry_matrix}


def _gate_rows(amplitudes: np.ndarray, kind: str, target: int, control: int | None, angle) -> np.ndarray:
    """One gate of the given kind on each row, qubits by axis: the one step from a kind to its action."""
    if kind == CNOT:
        return cnot_rows(amplitudes, control, target)
    if kind == RZ:
        return _rz_rows(amplitudes, target, angle)
    return gate_rows(amplitudes, target, _MATRICES[kind](angle))


def apply_gate(state: StateVector, gate: GateApplication) -> StateVector:
    """Run one gate on the state, its labels turned into axes for _gate_rows."""
    control = None if gate.control is None else state.axis(gate.control)
    return StateVector(_gate_rows(state.amplitudes, gate.kind, state.axis(gate.target), control, gate.angle), state.labels)


def apply_cnot(state: StateVector, control: str, target: str) -> StateVector:
    """Flip the target qubit on every basis vector where the control is 1."""
    return apply_gate(state, GateApplication(CNOT, target, control=control))


def apply_hadamard(state: StateVector, target: str) -> StateVector:
    """|0> -> (|0>+|1>)/sqrt2 and |1> -> (|0>-|1>)/sqrt2 on the target."""
    return apply_gate(state, GateApplication(HADAMARD, target))


def apply_ry(state: StateVector, target: str, angle: float) -> StateVector:
    return apply_gate(state, GateApplication(RY, target, angle=angle))


def apply_rz(state: StateVector, target: str, angle: float) -> StateVector:
    return apply_gate(state, GateApplication(RZ, target, angle=angle))


def apply_circuit(state: StateVector, gates: Sequence[GateApplication]) -> StateVector:
    for gate in gates:
        state = apply_gate(state, gate)
    return state


# prepare_two_qubit's circuit on the pair (qubit 0, qubit 1), one step per
# column of synthesis_rows' angles: (kind, target, control, column). The
# CNOT runs when the RY before it does. Column 1, qubit 0's first RZ, is
# always 0 and has no step.
_SYNTHESIS = (
    (RY, 0, None, 0),
    (CNOT, 1, 0, 0),
    (RY, 0, None, 2),
    (RZ, 0, None, 3),
    (RZ, 1, None, 4),
    (RY, 1, None, 5),
    (RZ, 1, None, 6),
)


def synthesis_rows(amplitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of an (..., 4) stack renormalized, and its synthesis circuit's angles.

    One RY sets the Schmidt weights, at most one CNOT entangles, and
    rotations turn each qubit into its Schmidt basis: u diag(s0, s1) vh of
    m = [[a, b], [c, d]], in closed form. With p = |a|^2 + |b|^2 - |c|^2 -
    |d|^2 and q = c conj(a) + d conj(b), m m^dagger = (I + p Z + Re(2q) X +
    Im(2q) Y) / 2, so u = RZ(arg q) RY(arctan2(2|q|, p)): RZ(x) on qubit 0
    and RZ(-x) on qubit 1 leave s0|00> + s1|11> alone, so qubit 1 takes the
    first RZ of u's ZYZ form, and column 1 is 0. v = vh_0 is row 0 of
    u^dagger m over its norm s0, vh_1 is (-conj v1, conj v0) times the
    phase of its overlap t with row 1, and s1 = |t|. Qubit 1's rotation,
    columns vh_0 and vh_1, is RZ(alpha) RY(beta) RZ(gamma) up to phase with
    beta = 2 arctan2(|v1|, |v0|), alpha = arg v1 - arg v0 and gamma = arg t
    - arg v0 - arg v1; when |v1| (|v0|) is below ROUNDOFF_TOL, gamma = 0 and
    alpha = arg t - 2 arg v0 (2 arg v1 - arg t). The (..., 7) angles
    follow _SYNTHESIS; an angle within ROUNDOFF_TOL of 0 is 0, and its gate
    is left out. Raises ValueError if a row's norm is further than
    ACCUMULATED_TOL from 1.
    """
    norm = norm_rows(amplitudes)
    ok = np.abs(norm - 1.0) <= ACCUMULATED_TOL
    if not _every(ok):
        raise ValueError(f"amplitudes are not normalized: norm = {_offender(norm, ok)!r}")
    target = amplitudes / norm[..., None]
    rows = target.reshape(-1, 4)  # a lone row too: numpy's 0-d scalar loops round unlike its array loops
    top, bottom = rows[:, :2], rows[:, 2:]
    weight = rows.real**2 + rows.imag**2
    p = weight[:, 0] + weight[:, 1] - weight[:, 2] - weight[:, 3]
    q = bottom[:, 0] * top[:, 0].conj() + bottom[:, 1] * top[:, 1].conj() + 0.0  # no phase from a -0.0
    theta, phi = np.arctan2(2.0 * np.abs(q), p), np.angle(q)
    half = np.exp(0.5j * phi)
    uc, us = (half * np.cos(0.5 * theta))[:, None], (half * np.sin(0.5 * theta))[:, None]  # u: [[uc*, -us*], [us, uc]]
    row0, row1 = uc * top + us.conj() * bottom, uc.conj() * bottom - us * top
    s0 = norm_rows(row0)
    v = row0 / s0[:, None]
    t = v[:, 0] * row1[:, 1] - v[:, 1] * row1[:, 0]
    (upper, lower), (phase0, phase1), phase_t = np.abs(v.T), np.angle(v.T), np.angle(t)
    diagonal, antidiagonal = lower < ROUNDOFF_TOL, upper < ROUNDOFF_TOL
    alpha = np.where(diagonal, phase_t - 2.0 * phase0, np.where(antidiagonal, 2.0 * phase1 - phase_t, phase1 - phase0))
    gamma = np.where(diagonal | antidiagonal, 0.0, phase_t - phase0 - phase1)
    beta = 2.0 * np.arctan2(lower, upper)
    angles = np.stack((2.0 * np.arctan2(np.abs(t), s0), np.zeros_like(s0), theta, phi, gamma, beta, alpha), axis=-1)
    angles = angles.reshape(target.shape[:-1] + (7,))
    return target, np.where(np.abs(angles) > ROUNDOFF_TOL, angles, 0.0)


def synthesized_rows(angles: np.ndarray) -> np.ndarray:
    """|00> run through the synthesis circuit of each row of an (..., 7) angle stack.

    A gate whose angle is 0 acts as the identity, exactly, so each row
    equals the circuit prepare_two_qubit lists for it.
    """
    amplitudes = np.zeros(angles.shape[:-1] + (4,), dtype=complex)
    amplitudes[..., 0] = 1.0
    for kind, target, control, column in _SYNTHESIS:
        amplitudes = _gate_rows(amplitudes, kind, target, control, angles[..., column])
    return amplitudes


def prepare_two_qubit(
    amplitudes: Sequence[complex], labels: tuple[str, str] = ("a1", "b1")
) -> tuple[StateVector, list[GateApplication]]:
    """Target two-qubit state plus a circuit building it from |00> up to phase.

    The circuit is synthesis_rows' for this one row, with the gates of zero
    angle left out.
    """
    amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if amps.shape != (4,):
        raise ValueError(f"need exactly 4 amplitudes, got {amps.shape[0]}")
    target, angles = synthesis_rows(amps)
    gates = [
        GateApplication(
            kind,
            labels[qubit],
            control=None if control is None else labels[control],
            angle=None if kind == CNOT else float(angles[column]),
        )
        for kind, qubit, control, column in _SYNTHESIS
        if angles[column] != 0.0
    ]
    return StateVector(target, labels), gates
