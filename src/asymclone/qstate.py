"""Exact complex linear algebra for small registers of named qubits.

States are dense complex amplitude vectors over at most four qubits. Every
qubit carries a name, and all addressing (gates, partial traces) goes
through names, never raw indices. The single index convention lives here:
bit k of a basis index, most significant bit first, belongs to labels[k].
So for labels ("a", "b") the amplitude order is |00>, |01>, |10>, |11>.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to use from multiple threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _NAMED_AMPLITUDES, ACCUMULATED_TOL, ROUNDOFF_TOL

# the rest of the package's tolerance table, whose home is the package itself, kept readable as qstate.<NAME>
from . import ESTIMATE_TOL, GRID_SLACK, RENORMALIZE_WARN, ZERO_NORM_FLOOR  # noqa: F401

MAX_QUBITS = 4


# The validity rules of StateVector, DensityMatrix and BlochVector. Each
# takes one item or a stack of them along the leading axes, and a single
# failing or NaN item fails the whole stack.


def _offender(values: np.ndarray, ok: np.ndarray):
    """The first value that failed its check, as a Python number."""
    return np.asarray(values)[~np.asarray(ok)].flat[0].item()


def _every(ok) -> bool:
    """ok.all() for a Python bool or a flag array, without a reduction's setup: about 2 us less on one row."""
    if ok is True or ok is False:
        return ok
    return bool(ok) if ok.ndim == 0 else np.count_nonzero(ok) == ok.size


# Each *_rule reads reduced quantities with operators alone, so one home serves Python numbers (clone_row's
# one row) and arrays (a stack the check_* functions reduce), and a Python row pays no numpy call.


def unit_norm_rule(norm_sq) -> None:
    """Raise ValueError unless every squared norm is 1 to ROUNDOFF_TOL."""
    ok = abs(norm_sq - 1.0) <= ROUNDOFF_TOL
    if not _every(ok):
        raise ValueError(f"state is not normalized: sum |amp|^2 = {_offender(norm_sq, ok)!r}")


def _norm_sq(amplitudes: list) -> float:
    """sum |z|^2 of a row of Python complex numbers, the squared norm unit_norm_rule reads."""
    return sum([z.real * z.real + z.imag * z.imag for z in amplitudes])


def check_unit_norm(amplitudes: np.ndarray) -> None:
    """Raise ValueError unless every state (last axis) has sum |amp|^2 = 1."""
    unit_norm_rule((np.abs(amplitudes) ** 2).sum(axis=-1))


def _hermitian_unit_trace(hermitian, trace) -> None:
    if not _every(hermitian):
        raise ValueError("density matrix is not Hermitian")
    ok = abs(trace - 1.0) <= ROUNDOFF_TOL
    if not _every(ok):
        raise ValueError(f"density matrix trace is {_offender(trace, ok)!r}, expected 1")


def density_rule(a, b, c, d) -> None:
    """Raise ValueError unless every [[a, b], [c, d]] is a density matrix, with check_density's checks and messages.

    The skew and trace come from the four entries, with the full-matrix
    rule's values, NaN and signed zeros included. Once the trace is 1, the
    smallest eigenvalue is at least -ACCUMULATED_TOL iff the matrix plus
    ACCUMULATED_TOL * I has a nonnegative determinant: its two eigenvalues
    sum to about 1, so they cannot both be negative.
    """
    skew_ok = abs(a - a.conjugate()) <= ROUNDOFF_TOL
    skew_ok = skew_ok & (abs(d - d.conjugate()) <= ROUNDOFF_TOL) & (abs(b - c.conjugate()) <= ROUNDOFF_TOL)
    # np.trace's value: its sum starts from +0, so -0 diagonals give +0
    _hermitian_unit_trace(skew_ok, 0.0 + a + d)
    shifted = (a.real + ACCUMULATED_TOL) * (d.real + ACCUMULATED_TOL)
    if not _every(shifted >= c.real * c.real + c.imag * c.imag):
        raise ValueError("density matrix has a negative eigenvalue")


def check_density(entries: np.ndarray) -> None:
    """Raise ValueError unless every matrix (last two axes) is a density matrix.

    That is Hermitian, of unit trace and with no eigenvalue below
    -ACCUMULATED_TOL, checked in this order. A 2x2 matrix goes to
    density_rule on its four entries. A larger matrix passes when
    entries + ACCUMULATED_TOL * I has a Cholesky factor with positive
    pivots: the verdict of its smallest eigenvalue against -ACCUMULATED_TOL
    except within rounding of the bound, at a third to a half of the cost
    of LAPACK's Hermitian eigenvalue solver. A NaN pivot, which an overflow
    on a huge off-diagonal entry gives instead of LAPACK's error, fails too.
    """
    if entries.shape[-2:] == (2, 2):
        return density_rule(entries[..., 0, 0], entries[..., 0, 1], entries[..., 1, 0], entries[..., 1, 1])
    skew = np.abs(entries - np.swapaxes(entries, -1, -2).conj())
    _hermitian_unit_trace(skew <= ROUNDOFF_TOL, entries.trace(axis1=-2, axis2=-1))
    try:
        factor = np.linalg.cholesky(entries + ACCUMULATED_TOL * np.eye(entries.shape[-1]))
    except np.linalg.LinAlgError:
        raise ValueError("density matrix has a negative eigenvalue") from None
    if not _every(factor.diagonal(axis1=-2, axis2=-1).real > 0.0):
        raise ValueError("density matrix has a negative eigenvalue")


def bloch_length_rule(x, y, z) -> None:
    """Raise ValueError unless every Bloch vector (x, y, z) has |m|^2 <= 1 + ACCUMULATED_TOL."""
    # summed on columns: the bits of (vectors**2).sum(axis=-1), without a reduction over 3 entries
    norm_sq = (x * x + y * y) + z * z
    ok = norm_sq <= 1.0 + ACCUMULATED_TOL
    if not _every(ok):
        raise ValueError(f"Bloch vector leaves the unit ball: |m|^2 = {_offender(norm_sq, ok)!r}")


def check_bloch_length(vectors: np.ndarray) -> None:
    """Raise ValueError unless every Bloch vector (last axis) has |m|^2 <= 1 + ACCUMULATED_TOL."""
    bloch_length_rule(vectors[..., 0], vectors[..., 1], vectors[..., 2])


def check_register(labels: Iterable[str]) -> tuple[str, ...]:
    """labels as a tuple; ValueError unless they are distinct and number 1..MAX_QUBITS."""
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate qubit labels in {labels}")
    if not 1 <= len(labels) <= MAX_QUBITS:
        raise ValueError(f"register must hold 1..{MAX_QUBITS} qubits, got {len(labels)}")
    return labels


class _Register:
    """Label addressing and the register rule shared by StateVector and DensityMatrix."""

    labels: tuple[str, ...]

    def _store(self, field: str, values: np.ndarray, ndim: int, check, shape_error: str) -> None:
        """Store values read-only as field once the register rule (check_register, shape) and check pass."""
        labels = check_register(self.labels)
        n = len(labels)
        if values.shape != (2**n,) * ndim:
            raise ValueError(shape_error.format(n=n, dim=2**n, shape=values.shape))
        check(values)
        values.flags.writeable = False
        object.__setattr__(self, field, values)
        object.__setattr__(self, "labels", labels)

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    def axis(self, label: str) -> int:
        """Tensor axis of a named qubit (0 = most significant index bit)."""
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(
                f"unknown qubit label {label!r}; register has {self.labels}"
            ) from None


@dataclass(frozen=True, eq=False)
class StateVector(_Register):
    """Normalized pure state of a named qubit register."""

    amplitudes: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        self._store("amplitudes", amps, 1, check_unit_norm, "{n}-qubit register needs {dim} amplitudes, got {shape[0]}")


@dataclass(frozen=True, eq=False)
class DensityMatrix(_Register):
    """Hermitian, unit-trace, positive-semidefinite operator on a register."""

    entries: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        mat = np.array(self.entries, dtype=complex)
        self._store("entries", mat, 2, check_density, "{n}-qubit density matrix must be {dim}x{dim}, got {shape}")


@dataclass(frozen=True)
class BlochVector:
    """Real three-vector (mx, my, mz) of a single-qubit density operator."""

    mx: float
    my: float
    mz: float

    def __post_init__(self):
        check_bloch_length(np.array([self.mx, self.my, self.mz]))

    def as_array(self) -> np.ndarray:
        return np.array([self.mx, self.my, self.mz])


# The algebra on (..., 2^n) stacks of amplitudes or (..., 2^n, 2^n) stacks
# of matrices: one implementation per operation, qubits addressed by axis (0
# is the most significant index bit). Each row comes out bit for bit as it
# would alone, so the functions on named registers below them are validated
# wrappers calling them on one row.


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum(a * b) over the last axis as one 1-D @ per row: np.vdot's and np.linalg.norm's bits."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def max_rows(values: np.ndarray) -> np.ndarray:
    """values.max(axis=-1), NaN included, as np.maximum of its columns.

    A numpy reduction over a short last axis pays about 100 ns of setup a
    row; np.maximum on whole columns pays it once a call.
    """
    out = values[..., 0]
    for k in range(1, values.shape[-1]):
        out = np.maximum(out, values[..., k])
    return out


def norm_rows(amplitudes: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, with np.linalg.norm's arithmetic on one vector."""
    re, im = amplitudes.real, amplitudes.imag
    return np.sqrt(_dot(re, re) + _dot(im, im))


def random_rows(normals: np.ndarray) -> np.ndarray:
    """Unit rows from (..., 2d) standard normals, the d real parts first."""
    d = normals.shape[-1] // 2
    amps = normals[..., :d] + 1j * normals[..., d:]
    return amps / norm_rows(amps)[..., None]


def tensor_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of each row pair; a's qubits become the high bits."""
    product = a[..., :, None] * b[..., None, :]
    # the row length spelled out: -1 cannot be inferred for an empty stack
    return product.reshape(product.shape[:-2] + (product.shape[-2] * product.shape[-1],))


def reorder_rows(amplitudes: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Permute the qubits of each row: qubit k of the result is qubit axes[k]."""
    lead = amplitudes.shape[:-1]
    work = amplitudes.reshape(lead + (2,) * len(axes))
    order = tuple(range(len(lead))) + tuple(len(lead) + ax for ax in axes)
    return work.transpose(order).reshape(lead + (amplitudes.shape[-1],))


def overlap_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner product <a|b> of each row pair."""
    return _dot(a.conj(), b)


def projector_rows(amplitudes: np.ndarray) -> np.ndarray:
    """|psi><psi| for each row, the product np.outer forms."""
    return amplitudes[..., :, None] * amplitudes.conj()[..., None, :]


def partial_trace_rows(entries: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """Reduce each matrix to the qubits at the axes in keep, in register order.

    The other qubits are traced out one at a time, the highest axis first,
    each as the sum of its two diagonal blocks: np.trace's arithmetic,
    without its cost on large stacks.
    """
    lead = entries.shape[:-2]
    n = entries.shape[-1].bit_length() - 1
    work = entries.reshape(lead + (2,) * (2 * n))
    remaining = n
    for ax in reversed([ax for ax in range(n) if ax not in keep]):
        blocks = work.diagonal(axis1=len(lead) + ax, axis2=len(lead) + ax + remaining)
        work = blocks[..., 0] + blocks[..., 1]
        remaining -= 1
    return work.reshape(lead + (2**remaining, 2**remaining))


def fidelity_rows(psi: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """<psi|rho|psi> for each row pair, real part."""
    return overlap_rows(psi, (entries @ psi[..., None])[..., 0]).real


def bloch_rows(entries: np.ndarray) -> np.ndarray:
    """(mx, my, mz) of each one-qubit matrix, rho = (1 + m.sigma)/2."""
    lower = entries[..., 1, 0]
    m = np.empty(lower.shape + (3,))  # written column by column: the stacked columns' bits, without the stack
    m[..., 0] = 2.0 * lower.real
    m[..., 1] = 2.0 * lower.imag
    m[..., 2] = (entries[..., 0, 0] - entries[..., 1, 1]).real
    return m


def from_bloch_rows(m: np.ndarray) -> np.ndarray:
    """The one-qubit matrix (1 + m.sigma)/2 of each Bloch vector."""
    mx, my, mz = m[..., 0], m[..., 1], m[..., 2]
    entries = np.empty(m.shape[:-1] + (2, 2), dtype=complex)  # written entry by entry, as bloch_rows does
    entries[..., 0, 0] = 1.0 + mz
    entries[..., 0, 1] = mx - 1j * my
    entries[..., 1, 0] = mx + 1j * my
    entries[..., 1, 1] = 1.0 - mz
    return 0.5 * entries


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product of two registers; a's qubits become the high bits."""
    labels = check_register(a.labels + b.labels)
    return StateVector(tensor_rows(a.amplitudes, b.amplitudes), labels)


def to_density(psi: StateVector) -> DensityMatrix:
    """Projector |psi><psi| as a density matrix."""
    return DensityMatrix(projector_rows(psi.amplitudes), psi.labels)


def kept_labels(labels: Sequence[str], keep: Iterable[str]) -> tuple[str, ...]:
    """The labels a partial trace keeps, in register order regardless of keep's order."""
    keep_set = set(keep)
    if not keep_set:
        raise ValueError("partial trace must keep at least one qubit")
    unknown = keep_set - set(labels)
    if unknown:
        raise ValueError(f"unknown qubit labels {sorted(unknown)}; register has {tuple(labels)}")
    return tuple(lab for lab in labels if lab in keep_set)


def partial_trace(rho: DensityMatrix, keep: Iterable[str]) -> DensityMatrix:
    """Reduce a density matrix to the named qubits, tracing out the rest.

    Kept qubits stay in their register order regardless of the order in
    which ``keep`` lists them.
    """
    kept = kept_labels(rho.labels, keep)
    return DensityMatrix(partial_trace_rows(rho.entries, [rho.axis(lab) for lab in kept]), kept)


def fidelity_pure(psi: StateVector, rho: DensityMatrix) -> float:
    """Overlap <psi|rho|psi> between a pure state and a density operator.

    Labels are ignored; only the dimensions must agree, so a clone on one
    register can be scored against an ideal state on another.
    """
    if psi.amplitudes.shape[0] != rho.entries.shape[0]:
        raise ValueError(
            f"dimension mismatch: state has {psi.amplitudes.shape[0]}, "
            f"density matrix has {rho.entries.shape[0]}"
        )
    return float(fidelity_rows(psi.amplitudes, rho.entries))


def bloch_vector(rho: DensityMatrix) -> BlochVector:
    """Bloch vector of a single-qubit density matrix, rho = (1 + m.sigma)/2."""
    if rho.n_qubits != 1:
        raise ValueError("Bloch vector is defined for single-qubit operators only")
    return BlochVector(*bloch_rows(rho.entries).tolist())


def reorder(psi: StateVector, labels: Sequence[str]) -> StateVector:
    """Permute the register so the qubits appear in the given label order."""
    new_labels = tuple(labels)
    if sorted(new_labels) != sorted(psi.labels):
        raise ValueError(f"{new_labels} is not a permutation of {psi.labels}")
    if new_labels == psi.labels:
        return psi
    return StateVector(reorder_rows(psi.amplitudes, [psi.axis(lab) for lab in new_labels]), new_labels)


def overlap(a: StateVector, b: StateVector) -> complex:
    """Inner product <a|b>; b is permuted to a's qubit order first."""
    return complex(overlap_rows(a.amplitudes, reorder(b, a.labels).amplitudes))


def basis_state(bits: str | Sequence[int], labels: Sequence[str]) -> StateVector:
    """Computational basis state, e.g. basis_state("00", ("a1", "b1"))."""
    labels = check_register(labels)
    values = [int(b) for b in bits]
    if len(values) != len(labels) or any(v not in (0, 1) for v in values):
        raise ValueError(f"bad bit pattern {bits!r} for labels {labels}")
    index = 0
    for v in values:
        index = (index << 1) | v
    amps = np.zeros(2 ** len(values), dtype=complex)
    amps[index] = 1.0
    return StateVector(amps, labels)


def single_qubit(alpha0: complex, alpha1: complex, label: str = "q") -> StateVector:
    """One-qubit state alpha0|0> + alpha1|1> (must already be normalized)."""
    return StateVector(np.array([alpha0, alpha1], dtype=complex), (label,))


def named_state(name: str, label: str = "q") -> StateVector:
    """One of the six axis states: 0, 1, +, -, +i, -i."""
    try:
        alpha0, alpha1 = _NAMED_AMPLITUDES[name]
    except KeyError:
        raise ValueError(
            f"unknown state name {name!r}; expected one of {sorted(_NAMED_AMPLITUDES)}"
        ) from None
    return single_qubit(alpha0, alpha1, label)


def random_state(labels: Sequence[str], rng: np.random.Generator | None = None) -> StateVector:
    """Haar-like random pure state on the named register."""
    labels = check_register(labels)
    rng = np.random.default_rng() if rng is None else rng
    return StateVector(random_rows(rng.standard_normal(2 * 2 ** len(labels))), labels)
