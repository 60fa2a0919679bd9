"""Bell basis utilities and the cloning network on a purified input.

Feeding half of a maximally entangled pair |Phi+> on (r, a0) through the
cloner turns the network into a map on Bell amplitudes: a preparation
expanded as X1|Phi+> + X2|Phi-> + X3|Psi+> + X4|Psi-> on (a1, b1) comes
out as sum_j X_j |B_j>_{r a0} |B_j>_{a1 b1}, i.e. Bell-diagonal with the
input amplitudes on the diagonal.

run_pauli_cloner runs the network through the cloner's own step,
joint_rows, with |Phi+> taken as two a0 rows, one for each value of the
spectator r; a CNOT only moves amplitudes, so this matches cloning_network
bit for bit. Each step also has a function on (..., 4) or (..., 16) stacks,
which the object functions call on one row.

Bell order is fixed everywhere as (Phi+, Phi-, Psi+, Psi-).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloner import NETWORK_LABELS, joint_rows
from .qstate import ACCUMULATED_TOL as BELL_DIAGONAL_TOL
from .qstate import StateVector, check_unit_norm, reorder

# the per-object path run_pauli_cloner reproduces; bench/test_bench.py checks
# that tracing rebinds these names in this module
from .cloner import cloning_network  # noqa: F401
from .qstate import tensor  # noqa: F401

BELL_NAMES = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")

# columns are Phi+, Phi-, Psi+, Psi- over the computational basis 00,01,10,11
_BELL_MATRIX = np.array(
    [
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
        [0.0, 0.0, 1.0, -1.0],
        [1.0, -1.0, 0.0, 0.0],
    ],
    dtype=complex,
) / np.sqrt(2.0)
# the per-call operands, built once; the adjoint stays the transposed view
# that @ took when it was built per call, so the BLAS path and bits match
_BELL_ADJOINT = _BELL_MATRIX.conj().T
_BELL_CONJ = _BELL_MATRIX.conj()
# |Phi+> on (r, a0) as two a0 rows, one for r = 0 and one for r = 1
_PHI_PLUS_ROWS = _BELL_MATRIX[:, 0].reshape(2, 2)
_OFF_DIAGONAL = ~np.eye(4, dtype=bool)


@dataclass(frozen=True)
class BellCoefficients:
    """Amplitudes over (Phi+, Phi-, Psi+, Psi-)."""

    x1: complex
    x2: complex
    x3: complex
    x4: complex

    def __post_init__(self):
        expand_rows(self.as_array())  # raises on the rule

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.x2, self.x3, self.x4], dtype=complex)


def expand_rows(coeffs: np.ndarray) -> np.ndarray:
    """Computational-basis amplitudes of each row of Bell amplitudes; ValueError unless each has unit norm.

    That is BellCoefficients' rule, in its one home.
    """
    expanded = (_BELL_MATRIX @ coeffs[..., None])[..., 0]
    check_unit_norm(expanded)
    return expanded


def network_rows(coeffs: np.ndarray) -> np.ndarray:
    """The network's output on (r, a0, a1, b1) for each row of Bell amplitudes of the preparation."""
    joint = joint_rows(_PHI_PLUS_ROWS, expand_rows(coeffs)[..., None, :])
    return joint.reshape(joint.shape[:-2] + (16,))


def decompose_rows(amplitudes: np.ndarray) -> np.ndarray:
    """Bell x Bell coefficients of each (..., 16) row, its first two qubits forming the first pair."""
    amps = amplitudes.reshape(amplitudes.shape[:-1] + (4, 4))
    return _BELL_ADJOINT @ amps @ _BELL_CONJ


def bell_output_rows(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """bell_output for each row of an (..., 4) stack of Bell amplitudes; one row off BellCoefficients' rule raises."""
    joint = network_rows(coeffs)
    check_unit_norm(joint)
    matrix = decompose_rows(joint)
    # every modulus is >= 0, so leaving out the diagonal moves no maximum
    return matrix, np.abs(matrix[..., _OFF_DIAGONAL]).max(axis=-1)


def bell_basis(labels: tuple[str, str] = ("a1", "b1")) -> tuple[StateVector, ...]:
    """The four Bell states in the fixed order (Phi+, Phi-, Psi+, Psi-)."""
    return tuple(StateVector(_BELL_MATRIX[:, k], labels) for k in range(4))


def bell_components(state: StateVector) -> np.ndarray:
    """Bell amplitudes of a two-qubit state, in the fixed order.

    Kept as the Bell-weight input of a Pauli-channel view of the cloner (Cerf, PRL 84, 4497 (2000)).
    """
    if state.n_qubits != 2:
        raise ValueError(f"need a two-qubit state, got {state.n_qubits} qubits")
    return _BELL_ADJOINT @ state.amplitudes


def run_pauli_cloner(prep: BellCoefficients) -> StateVector:
    """Run the network on |Phi+>_{r a0} tensored with the Bell-expanded prep."""
    return StateVector(network_rows(prep.as_array()), ("r",) + NETWORK_LABELS)


def bell_decompose(
    state: StateVector,
    pairing: tuple[tuple[str, str], tuple[str, str]] = (("r", "a0"), ("a1", "b1")),
) -> np.ndarray:
    """Coefficients of a four-qubit state over Bell x Bell for the given pairing.

    Entry [j, k] is the amplitude on B_j of the first pair times B_k of the
    second pair; the squared magnitudes sum to 1.
    """
    if state.n_qubits != 4:
        raise ValueError(f"need a four-qubit state, got {state.n_qubits} qubits")
    return decompose_rows(reorder(state, pairing[0] + pairing[1]).amplitudes)


def bell_output(coeffs: BellCoefficients) -> tuple[np.ndarray, float]:
    """Bell x Bell coefficients of the network output and their largest off-diagonal modulus.

    The output is Bell-diagonal, with coeffs on the diagonal, when that
    modulus is at most BELL_DIAGONAL_TOL.
    """
    matrix, max_off = bell_output_rows(coeffs.as_array())
    return matrix, float(max_off)
