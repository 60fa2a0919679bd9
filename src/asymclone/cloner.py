"""Asymmetric cloning: feasibility region, parameter solver, four-CNOT network.

A cloner is specified by a target scaling pair (s0, s1): the original qubit
a0 comes out with its Bloch vector shrunk by s0 and the copy a1 by s1,

    rho_out = s * rho_in + (1 - s)/2 * identity.

The pair is reachable iff s0^2 + s1^2 + s0*s1 - s0 - s1 <= 0, an ellipse
through (1,0), (0,1) and (2/3, 2/3). For a feasible pair the two-qubit
preparation state on (a1, b1) has moduli

    c1 = sqrt((s0+s1)/2),  c2 = sqrt((1-s0)/2),  c4 = sqrt((1-s1)/2)

with the |10> amplitude identically zero, and phases fixed through

    cos(theta1 - theta2) = s1 / sqrt((s0+s1)(1-s0))
    cos(theta1 - theta4) = s0 / sqrt((s0+s1)(1-s1)).

Every formula here is elementwise in (s0, s1), so solve_rows solves a whole
stack of feasible pairs in one numpy pass: sweep calls it once per row block
and verify once per chunk of trials. solve_prep solves one pair with the
same operations on floats, which costs less than a one-row stack; the
tests hold the two bit for bit equal, amplitudes included: PrepState builds
them on Python numbers, which solve and clone read as they are, and
solve_rows column by column. The feasibility rule, the preparation's rule
and the infeasibility message each have one home (feasibility_rule,
preparation_rule, _infeasible) that serves one pair and a stack alike, as
qstate's unit_norm_rule does for the amplitudes' norm.

The region is symmetric, and exchanging s0 and s1 exchanges the outputs:
c2, theta2 swap with c4, theta4 (amplitudes 1 and 3), and the network then
gives a1 the clone a0 had. This holds bit for bit, as s0 + s1 = s1 + s0 in
IEEE arithmetic, so sweep runs the kernel on half its grid.

The network itself is four CNOTs on (a0, a1, b1), applied in the order
a0->a1, a0->b1, a1->a0, b1->a0. On the 8 basis amplitudes that is one
fixed permutation, _NETWORK_PERMUTATION: joint_rows runs it on stacks, for
clone_batch's inputs and pauli's purified input, and clone_row on one
input's Python numbers.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .gates import apply_cnot, cnot_rows
from .qstate import (
    ROUNDOFF_TOL,
    StateVector,
    _dot,
    _every,
    _norm_sq,
    _offender,
    bloch_length_rule,
    bloch_rows,
    check_bloch_length,
    check_density,
    check_unit_norm,
    density_rule,
    fidelity_rows,
    max_rows,
    projector_rows,
    tensor_rows,
    unit_norm_rule,
)

# the per-object steps clone_batch reproduces; bench/test_bench.py checks
# that tracing rebinds these names in this module
from .qstate import partial_trace, tensor, to_density  # noqa: F401

NETWORK_ORDER = (("a0", "a1"), ("a0", "b1"), ("a1", "a0"), ("b1", "a0"))
NETWORK_LABELS = ("a0", "a1", "b1")


def _network_permutation() -> np.ndarray:
    """perm with joint = amplitudes[perm] for the four CNOTs on (a0, a1, b1).

    cnot_rows only moves entries, so running the gates on the basis indices
    themselves leaves each index where its amplitude ends up.
    """
    perm = np.arange(2 ** len(NETWORK_LABELS))
    for control, target in NETWORK_ORDER:
        perm = cnot_rows(perm, NETWORK_LABELS.index(control), NETWORK_LABELS.index(target))
    return perm


_NETWORK_PERMUTATION = _network_permutation()
_ROW_PERMUTATION = _NETWORK_PERMUTATION.tolist()  # clone_row and pauli's row index lists of Python numbers
_IDENTITY = np.eye(2)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)  # ~0.3 us less than through array.flags
    return array


class InfeasibleScalingError(ValueError):
    """Raised when a scaling pair lies outside the reachable region."""


@dataclass(frozen=True)
class ScalingPair:
    """Target shrink factors for the original (s0) and the copy (s1)."""

    s0: float
    s1: float
    feasible: bool
    margin: float
    reason: str | None = None


@dataclass(frozen=True)
class PrepState:
    """Solved preparation state: moduli c and phases theta, |10> amplitude 0.

    amplitudes, c * exp(i theta) over |00>, |01>, |10>, |11>, is a read-only tuple of Python complex numbers set at
    construction: the fields pass preparation_rule and the amplitudes unit_norm_rule, as solve_rows checks a stack.
    Each is c * complex(cos theta, sin theta), which the tests hold to solve_rows' np.exp bits. as_amplitudes is
    the same four as a read-only ndarray, built on first read, so a caller that never reads it builds none.
    """

    c1: float
    c2: float
    c4: float
    theta1: float
    theta2: float
    theta4: float

    def __post_init__(self):
        c1, c2, c4, theta1, theta2, theta4 = self.c1, self.c2, self.c4, self.theta1, self.theta2, self.theta4
        preparation_rule(c1, c2, c4, theta1, theta2, theta4)
        amplitudes = [c * complex(math.cos(t), math.sin(t)) for c, t in ((c1, theta1), (c2, theta2), (c4, theta4))]
        amplitudes.insert(2, 0j)
        unit_norm_rule(_norm_sq(amplitudes))
        object.__setattr__(self, "amplitudes", tuple(amplitudes))

    @functools.cached_property
    def as_amplitudes(self) -> np.ndarray:  # (4,)
        return _read_only(np.array(self.amplitudes))


def preparation_rule(c1, c2, c4, theta1, theta2, theta4) -> None:
    """Raise ValueError unless every preparation is valid: floats or arrays, the same operators on both.

    Each modulus lies in [0, 1 + ROUNDOFF_TOL] and each phase is finite (a
    NaN fails both); one bad row fails a whole stack, and the message names
    the first bad modulus in row order.
    """
    high = 1.0 + ROUNDOFF_TOL
    if not _every((0.0 <= c1) & (c1 <= high) & (0.0 <= c2) & (c2 <= high) & (0.0 <= c4) & (c4 <= high)):
        moduli = np.stack(np.broadcast_arrays(c1, c2, c4), axis=-1)
        ok = (0.0 <= moduli) & (moduli <= high)
        name = ("c1", "c2", "c4")[np.nonzero(~ok)[-1][0]]
        raise ValueError(f"modulus {name} = {_offender(moduli, ok)!r} outside [0, 1]")
    if not _every((abs(theta1) < math.inf) & (abs(theta2) < math.inf) & (abs(theta4) < math.inf)):
        raise ValueError("phases must be finite")


def feasibility_rule(s0, s1):
    """(margin, in_range, over) of each pair: floats or arrays, the same operators on both.

    in_range holds when both factors lie in [-ROUNDOFF_TOL, 1 + ROUNDOFF_TOL]
    and over when the margin exceeds ROUNDOFF_TOL; a pair is feasible when
    in range and not over. NaN is never in range.
    """
    margin = s0 * s0 + s1 * s1 + s0 * s1 - s0 - s1
    in_range = (-ROUNDOFF_TOL <= s0) & (s0 <= 1.0 + ROUNDOFF_TOL) & (-ROUNDOFF_TOL <= s1) & (s1 <= 1.0 + ROUNDOFF_TOL)
    return margin, in_range, margin > ROUNDOFF_TOL


def feasibility(s0: float, s1: float) -> ScalingPair:
    """Evaluate the quadratic margin and classify the pair."""
    s0 = float(s0)
    s1 = float(s1)
    if not (math.isfinite(s0) and math.isfinite(s1)):
        raise ValueError(f"scaling factors must be finite, got ({s0!r}, {s1!r})")
    margin, in_range, over = feasibility_rule(s0, s1)
    feasible = in_range and not over
    return ScalingPair(s0, s1, feasible, margin, None if feasible else _infeasible_reason(in_range, margin))


def _infeasible_reason(in_range, margin) -> str:
    return f"margin {margin:.6g} exceeds 0" if in_range else "scaling factors must lie in [0, 1]"


def _infeasible(s0: float, s1: float, reason: str) -> InfeasibleScalingError:
    return InfeasibleScalingError(f"pair (s0={s0!r}, s1={s1!r}) is infeasible: {reason}")


def _theta(numerator: float, factor_a: float, factor_b: float) -> float:
    # the amplitude this phase multiplies vanishes, so the phase is free
    if factor_a < ROUNDOFF_TOL or factor_b < ROUNDOFF_TOL:
        return 0.0
    # arg^2 = 1 + margin / (factor_a * factor_b), so arg exceeds 1 only by
    # rounding on pairs within ROUNDOFF_TOL of the boundary, whose phase is 0
    arg = numerator / math.sqrt(factor_a * factor_b)
    # the minus sign of the arccosine; + 0.0 turns -0.0 into 0.0
    return -float(np.arccos(min(arg, 1.0))) + 0.0


def _theta_rows(numerator: np.ndarray, factor_a: np.ndarray, factor_b: np.ndarray) -> np.ndarray:
    """_theta on a stack, bit for bit: the same numpy calls, elementwise."""
    free = (factor_a < ROUNDOFF_TOL) | (factor_b < ROUNDOFF_TOL)
    # a free row divides by 1 instead of 0 and its arccosine is discarded
    arg = numerator / np.sqrt(np.where(free, 1.0, factor_a * factor_b))
    return np.where(free, 0.0, -np.arccos(np.minimum(arg, 1.0)) + 0.0)


def solve_prep(pair: ScalingPair) -> PrepState:
    """Solve the preparation state for a feasible pair, in closed form.

    The moduli are the three square roots of the module docstring and the
    phases two arccosines. The reduced clones see the phases only through
    cos(theta1 - theta2) and cos(theta1 - theta4), so either sign of each
    arccosine gives the same two reduced clones; theta2 and theta4 take the
    minus sign.

    feasibility accepts a pair up to ROUNDOFF_TOL outside the region: its
    margin m may be positive, or a factor may lie a distance d past [0, 1].
    Such a pair is solved as a boundary pair: each factor is clamped to
    [0, 1] and each arccosine's argument to 1. Its clones' shrinks then
    miss the target by up to 2.5 m + d, and the paper's scaled-output form
    holds to 0.5 m, beyond round-off (tests/test_reference.py checks both
    at 50 digits).

    Square roots are correctly rounded in IEEE arithmetic, so math.sqrt gives
    np.sqrt's bits at a fraction of its per-call cost; the arccosine stays
    np.arccos, since math.acos differs from it by an ulp on ~9% of inputs.
    PrepState builds the amplitudes from math.cos and math.sin, which give
    solve_rows' np.exp bits, and keeps them as Python numbers, so the one
    pair's only numpy calls are those two arccosines.
    """
    if not pair.feasible:
        raise _infeasible(pair.s0, pair.s1, pair.reason or f"margin {pair.margin:.6g}")
    s0 = min(max(pair.s0, 0.0), 1.0)
    s1 = min(max(pair.s1, 0.0), 1.0)
    return PrepState(
        c1=math.sqrt((s0 + s1) / 2.0),
        c2=math.sqrt((1.0 - s0) / 2.0),
        c4=math.sqrt((1.0 - s1) / 2.0),
        theta1=0.0,
        theta2=_theta(s1, s0 + s1, 1.0 - s0),
        theta4=_theta(s0, s0 + s1, 1.0 - s1),
    )


def solve_rows(s0: np.ndarray, s1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """solve_prep on a stack of M pairs in one pass: (columns, amplitudes).

    columns is (M, 5), each row (c1, c2, c4, theta2, theta4), and amplitudes
    is (M, 4); each value is bit for bit what solve_prep gives that pair
    (theta1 is 0). One infeasible or NaN pair fails the whole stack with
    InfeasibleScalingError, and PrepState's rules, preparation_rule on the
    columns and unit_norm_rule on the amplitudes, run once on the stack.
    """
    s0 = np.asarray(s0, dtype=float)
    s1 = np.asarray(s1, dtype=float)
    # a NaN or infinite factor fails the range test; its margin may not be a number
    with np.errstate(invalid="ignore", over="ignore"):
        margin, in_range, over = feasibility_rule(s0, s1)
    bad = ~in_range | over
    if bad.any():
        k = np.flatnonzero(bad)[0]
        raise _infeasible(s0[k].item(), s1[k].item(), _infeasible_reason(in_range[k], margin[k]))
    # min(max(s, 0.0), 1.0) as solve_prep takes it, -0.0 kept
    s0 = np.where(s0 > 1.0, 1.0, np.where(s0 < 0.0, 0.0, s0))
    s1 = np.where(s1 > 1.0, 1.0, np.where(s1 < 0.0, 0.0, s1))
    c1 = np.sqrt((s0 + s1) / 2.0)
    c2 = np.sqrt((1.0 - s0) / 2.0)
    c4 = np.sqrt((1.0 - s1) / 2.0)
    theta2 = _theta_rows(s1, s0 + s1, 1.0 - s0)
    theta4 = _theta_rows(s0, s0 + s1, 1.0 - s1)
    preparation_rule(c1, c2, c4, 0.0, theta2, theta4)
    # c * exp(i theta) over |00>, |01>, |10>, |11>, column by column as PrepState builds one row, theta1 = 0
    amplitudes = np.zeros(c1.shape + (4,), dtype=complex)
    amplitudes[..., 0] = c1
    amplitudes[..., 1] = c2 * np.exp(1j * theta2)
    amplitudes[..., 3] = c4 * np.exp(1j * theta4)
    check_unit_norm(amplitudes)
    return np.stack([c1, c2, c4, theta2, theta4], axis=-1), amplitudes


def joint_rows(inputs: np.ndarray, prep_amplitudes: np.ndarray) -> np.ndarray:
    """The network's (..., 8) output on (a0, a1, b1) for (..., 2) inputs and (..., 4) preparations; checks nothing."""
    return tensor_rows(inputs, prep_amplitudes)[..., _NETWORK_PERMUTATION]


def cloning_network(state: StateVector) -> StateVector:
    """Apply the four CNOTs to any register containing a0, a1 and b1.

    The gate-by-gate reference for joint_rows' permutation, which runs instead.
    """
    for control, target in NETWORK_ORDER:
        state = apply_cnot(state, control, target)
    return state


@dataclass(frozen=True, eq=False)
class CloneBatch:
    """The joint state, the reduced clones and their scaled-output fit, for each input of a clone_batch call.

    Column 0 of the (..., 2) arrays belongs to the original a0 and column 1 to
    the copy a1; rho[..., 0, :, :] and rho[..., 1, :, :] are their reduced states.
    s_est is the least-squares shrink of the input Bloch vector m_in onto a
    clone's m_out; residual is max|rho_out - (s_est*rho_in + (1-s_est)/2 * I)|
    and isotropy max|m_out - s_est*m_in|. Both vanish in the scaled-output form.
    fidelity is <psi|rho_out|psi> for the input psi. isotropy and fidelity are
    computed on first read, so a caller that reads neither pays for neither;
    every array, those two too, is read-only, so no edit changes what they
    read. Equality is identity, as for StateVector.
    """

    joint: np.ndarray  # (..., 8) amplitudes over NETWORK_LABELS
    rho: np.ndarray  # (..., 2, 2, 2)
    s_est: np.ndarray  # (..., 2)
    residual: np.ndarray  # (..., 2)
    inputs: np.ndarray  # the inputs' own (..., 2), C-ordered, a read-only view of the caller's array
    m_in: np.ndarray  # the inputs' own (..., 1, 3)
    m_out: np.ndarray  # (..., 2, 3)

    @functools.cached_property
    def isotropy(self) -> np.ndarray:  # (..., 2)
        return _read_only(max_rows(np.abs(self.m_out - self.s_est[..., None] * self.m_in)))

    @functools.cached_property
    def fidelity(self) -> np.ndarray:  # (..., 2)
        return _read_only(fidelity_rows(self.inputs[..., None, :], self.rho))


def clone_batch(inputs: np.ndarray, prep_amplitudes: np.ndarray) -> CloneBatch:
    """Clone (..., 2) one-qubit inputs under (..., 4) preparations in one pass.

    prep_amplitudes are the four over |00>, |01>, |10>, |11> of (a1, b1).
    The leading axes broadcast: sweep passes (6, 2) probes with (M, 1, 4),
    verify (n, 2, 2) with (n, 1, 4), and run_cloner (2,) with (4,).
    Every number is bit for bit what the per-object path (tensor, the four
    CNOTs, to_density, partial_trace, bloch_vector, fidelity_pure) gives
    for that row: the kernel forms the same products and sums, in the same
    order, without the 8x8 joint projector, and its one permutation moves
    the amplitudes where the CNOTs do. It traces on columns of rows, so each
    ufunc loops over the rows, not over 2 to 4 entries. The per-object path
    traces the 8x8 projector with partial_trace_rows, an independent
    reference for the kernel's trace arithmetic, which
    test_bit_identical_to_the_per_object_path compares row by row. Each
    rule runs on the whole stack, so one bad row raises ValueError: unit
    norm of each distinct input, preparation and joint state; the density
    rules on each distinct input projector and both clones; their Bloch lengths.
    The joint projector needs no density check: it is Hermitian and rank one
    by construction, with the joint's checked squared norm as its trace.
    On the clones, check_bloch_length (|m|^2 <= 1 + 1e-10) already implies
    the eigenvalue rule: lambda_min = (trace - |m|)/2 >= -2.5e-11.
    """
    inputs = np.ascontiguousarray(inputs, dtype=complex)
    prep = np.asarray(prep_amplitudes, dtype=complex)
    if inputs.shape[-1:] != (2,) or prep.shape[-1:] != (4,):
        raise ValueError(f"need (..., 2) inputs, 4 amplitudes (..., 4), got {inputs.shape} and {prep.shape}")
    lead = np.broadcast_shapes(inputs.shape[:-1], prep.shape[:-1])
    check_unit_norm(inputs)
    check_unit_norm(prep)

    joint = joint_rows(inputs, prep)
    check_unit_norm(joint)
    # b1 traced out on columns, v[i, b1] the rows' joint[i b1]: pair[i, j] sums joint[i b1] * conj(joint[j b1])
    # over b1, the 32 of 64 products the clones read; then a1 traced out (keeping a0) or a0 (keeping a1)
    v = np.ascontiguousarray(joint.reshape(-1, 8).T).reshape(4, 2, -1)
    w = v.conj()
    pair = (v[:, None, 0] * w[None, :, 0] + v[:, None, 1] * w[None, :, 1]).reshape(2, 2, 2, 2, -1)
    rho = np.empty((2, 2, 2) + pair.shape[-1:], dtype=complex)
    np.add(pair[:, 0, :, 0], pair[:, 1, :, 1], out=rho[0])
    np.add(pair[0, :, 0, :], pair[1, :, 1, :], out=rho[1])
    # back to rows in C order: @ below takes another path on strided operands, whose last bits differ
    rho = np.ascontiguousarray(rho.reshape(8, -1).T).reshape(lead + (2, 2, 2))
    rho_in = projector_rows(inputs)[..., None, :, :]
    states = np.concatenate([rho_in.reshape(-1, 2, 2), rho.reshape(-1, 2, 2)])
    check_density(states)

    m = _read_only(bloch_rows(states))  # and so m_in and m_out, its views
    check_bloch_length(m)
    m_in, m_out = m[: inputs.size // 2].reshape(rho_in.shape[:-2] + (3,)), m[inputs.size // 2 :].reshape(lead + (2, 3))
    # never near 0: a valid pure input has |m_in|^2 = (|a|^2 + |b|^2)^2
    s_est = _dot(m_out, m_in) / _dot(m_in, m_in)
    expected = s_est[..., None, None] * rho_in + (0.5 * (1.0 - s_est))[..., None, None] * _IDENTITY
    residual = max_rows(np.abs(rho - expected).reshape(lead + (2, 4)))
    # inputs as a view, so the caller's own array stays writable
    return CloneBatch(*map(_read_only, (joint, rho, s_est, residual, inputs.view())), m_in, m_out)


def _dot3(a: tuple, b: tuple) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def clone_row(state: list | tuple, prep: list | tuple) -> tuple:
    """clone_batch on one input, in Python complex numbers: (joint, rho, s_est, residual, fidelity).

    state holds the input's 2 amplitudes and prep the preparation's 4, in
    a list as .tolist() gives them or a tuple as PrepState.amplitudes holds
    them. joint is the 8 amplitudes over NETWORK_LABELS, rho the two clones
    as 2x2 lists, and s_est, residual and fidelity are lists of two, a0
    first, as in CloneBatch; isotropy is not computed. The steps and rules
    are clone_batch's: each rule is qstate's own, called on the row's
    squared norms, 2x2 entries and Bloch columns, and the same 32 products
    trace b1 out. On one row this runs about four times as fast as
    clone_batch, whose time there is mostly numpy's per-call cost. A Python
    product is never fused, so the bits do not depend on the CPU's FMA;
    they may differ from clone_batch's in the last place.
    """
    unit_norm_rule(_norm_sq(state))
    unit_norm_rule(_norm_sq(prep))
    product = [a * c for a in state for c in prep]
    joint = [product[k] for k in _ROW_PERMUTATION]
    unit_norm_rule(_norm_sq(joint))
    # b1 traced out: pair[4 i + j] sums joint[i b1] * conj(joint[j b1]) over b1, i and j = 2 a0 + a1
    conj = [z.conjugate() for z in joint]
    pair = [joint[i] * conj[j] + joint[i + 1] * conj[j + 1] for i in (0, 2, 4, 6) for j in (0, 2, 4, 6)]
    # then a1 traced out (keeping a0) or a0 (keeping a1), the b1 = 0 term first as in the kernel
    rho = [
        [[pair[0] + pair[5], pair[2] + pair[7]], [pair[8] + pair[13], pair[10] + pair[15]]],
        [[pair[0] + pair[10], pair[1] + pair[11]], [pair[4] + pair[14], pair[5] + pair[15]]],
    ]
    a0, a1 = state
    (p00, p01), (p10, p11) = rho_in = [[a * b.conjugate() for b in state] for a in state]
    m = []
    for (e00, e01), (e10, e11) in (rho_in, *rho):
        density_rule(e00, e01, e10, e11)
        m.append((2.0 * e10.real, 2.0 * e10.imag, (e00 - e11).real))
    for x, y, z in m:
        bloch_length_rule(x, y, z)
    m_in = m[0]
    s_est, residual, fidelity = [], [], []
    for ((e00, e01), (e10, e11)), m_out in zip(rho, m[1:]):
        s = _dot3(m_out, m_in) / _dot3(m_in, m_in)
        half = 0.5 * (1.0 - s)
        s_est.append(s)
        # |rho - (s rho_in + (1 - s)/2 I)|, entry by entry
        errors = abs(e00 - (s * p00 + half)), abs(e01 - s * p01), abs(e10 - s * p10), abs(e11 - (s * p11 + half))
        residual.append(max(errors))
        fidelity.append((a0.conjugate() * (e00 * a0 + e01 * a1) + a1.conjugate() * (e10 * a0 + e11 * a1)).real)
    return joint, rho, s_est, residual, fidelity


def run_cloner(input_state: StateVector, prep: PrepState | StateVector) -> CloneBatch:
    """Clone a single-qubit input through the network with the given preparation: clone_batch's one row.

    A raw two-qubit StateVector is accepted in place of a PrepState so that
    preparations violating the solved form can be fed through for comparison.
    """
    if input_state.n_qubits != 1:
        raise ValueError(f"input must be a single qubit, got {input_state.n_qubits}")
    if isinstance(prep, PrepState):
        prep_amplitudes = prep.as_amplitudes
    else:
        if prep.n_qubits != 2:
            raise ValueError(f"preparation must be two qubits, got {prep.n_qubits}")
        prep_amplitudes = prep.amplitudes
    return clone_batch(input_state.amplitudes, prep_amplitudes)


def verify_scaling(out: CloneBatch, tol: float) -> bool:
    """Check the scaled-output form: small residuals and isotropic shrink.

    True only when every residual and isotropy error is at most tol, so a
    NaN error fails the check; the fidelities are not read.
    """
    return bool((np.maximum(out.residual, out.isotropy) <= tol).all())
