"""An exact reference for one clone row, one Bell output and one synthesis circuit, sharing no code with asymclone.

Every number is a 50-digit mpmath complex. The register is (a0, a1, b1),
a0 the most significant bit of a basis index: the input on a0, the
preparation's amplitudes over |00>, |01>, |10>, |11> of (a1, b1). Each CNOT
flips its target bit on the basis indices whose control bit is set, in the
paper's order a0->a1, a0->b1, a1->a0, b1->a0. A partial trace is the
explicit sum over the traced-out bits, and a Bloch component is
tr(rho sigma_k). The purified network puts a reference qubit r above a0,
so (r, a0, a1, b1), and leaves r alone. The synthesis circuit runs on two
qubits, qubit 0 the most significant bit, with RY(t) = [[cos t/2, -sin t/2],
[sin t/2, cos t/2]] and RZ(t) = diag(exp(-i t/2), exp(i t/2)).
"""
import mpmath

LABELS = ("a0", "a1", "b1")
GATES = (("a0", "a1"), ("a0", "b1"), ("a1", "a0"), ("b1", "a0"))
PAULI = (((0, 1), (1, 0)), ((0, -1j), (1j, 0)), ((1, 0), (0, -1)))


def _mask(label):
    return 1 << (len(LABELS) - 1 - LABELS.index(label))


def network(amplitudes):
    """The 8 amplitudes, or 16 with r above a0, after the four CNOTs, one gate at a time."""
    for control, target in GATES:
        out = [None] * len(amplitudes)
        for index, amplitude in enumerate(amplitudes):
            out[index ^ _mask(target) if index & _mask(control) else index] = amplitude
        amplitudes = out
    return amplitudes


def reduced(joint, keep):
    """The 2x2 state of qubit keep: |joint><joint| summed over the other two qubits' equal bits."""
    bit = _mask(keep)
    rho = [[mpmath.mpc(0), mpmath.mpc(0)], [mpmath.mpc(0), mpmath.mpc(0)]]
    for i in range(8):
        for j in range(8):
            if i & ~bit == j & ~bit:
                rho[1 if i & bit else 0][1 if j & bit else 0] += joint[i] * mpmath.conj(joint[j])
    return rho


def bloch(rho):
    """(tr(rho sigma_x), tr(rho sigma_y), tr(rho sigma_z)), real parts."""
    return [mpmath.re(sum(rho[x][y] * sigma[y][x] for x in (0, 1) for y in (0, 1))) for sigma in PAULI]


def clone(state, prep):
    """(joint, rho, s_est, residual, fidelity) of clone_batch's one row, at 50 digits, from floats' exact values.

    rho holds the clones of a0 and a1; s_est is the least-squares shrink of
    the input's Bloch vector onto each clone's, residual the largest
    |rho - (s_est rho_in + (1 - s_est)/2 I)| entry and fidelity <psi|rho|psi>.
    """
    with mpmath.workdps(50):
        psi = [mpmath.mpc(z) for z in state]
        c = [mpmath.mpc(z) for z in prep]
        joint = network([psi[index >> 2] * c[index & 3] for index in range(8)])
        rho = [reduced(joint, "a0"), reduced(joint, "a1")]
        rho_in = [[psi[x] * mpmath.conj(psi[y]) for y in (0, 1)] for x in (0, 1)]
        m_in = bloch(rho_in)
        s_est, residual, fidelity = [], [], []
        for clone_rho in rho:
            m_out = bloch(clone_rho)
            s = sum(o * i for o, i in zip(m_out, m_in)) / sum(i * i for i in m_in)
            s_est.append(s)
            expected = [[s * rho_in[x][y] + ((1 - s) / 2 if x == y else 0) for y in (0, 1)] for x in (0, 1)]
            residual.append(max(abs(clone_rho[x][y] - expected[x][y]) for x in (0, 1) for y in (0, 1)))
            image = [sum(clone_rho[x][y] * psi[y] for y in (0, 1)) for x in (0, 1)]
            fidelity.append(mpmath.re(sum(mpmath.conj(psi[x]) * image[x] for x in (0, 1))))
        return joint, rho, s_est, residual, fidelity


def _bell_states():
    """Phi+, Phi-, Psi+, Psi- over |00>, |01>, |10>, |11>: (|00> +- |11>)/sqrt(2) and (|01> +- |10>)/sqrt(2)."""
    h = 1 / mpmath.sqrt(2)
    return [[h, 0, 0, h], [h, 0, 0, -h], [0, h, h, 0], [0, h, -h, 0]]


def bell_output(coeffs):
    """Bell x Bell coefficients [j][k] (B_j on (r, a0), B_k on (a1, b1)) of the network's output, at 50 digits.

    The preparation on (a1, b1) is sum_k coeffs[k] B_k, the input on
    (r, a0) is Phi+, and each coefficient is <B_j|<B_k| of the output.
    """
    with mpmath.workdps(50):
        bell = _bell_states()
        x = [mpmath.mpc(z) for z in coeffs]
        prep = [sum(x[k] * bell[k][i] for k in range(4)) for i in range(4)]
        out = network([bell[0][index >> 2] * prep[index & 3] for index in range(16)])
        return [
            [sum(bell[j][index >> 2] * bell[k][index & 3] * out[index] for index in range(16)) for k in range(4)]
            for j in range(4)
        ]


def _rotate(amplitudes, qubit, matrix):
    """A 2x2 matrix on one qubit of 4 amplitudes: each pair of indices that differ in that qubit's bit."""
    bit = 2 if qubit == 0 else 1
    out = list(amplitudes)
    for low in [index for index in range(4) if not index & bit]:
        zero, one = amplitudes[low], amplitudes[low | bit]
        out[low] = matrix[0][0] * zero + matrix[0][1] * one
        out[low | bit] = matrix[1][0] * zero + matrix[1][1] * one
    return out


def _ry(angle):
    c, s = mpmath.cos(angle / 2), mpmath.sin(angle / 2)
    return ((c, -s), (s, c))


def _rz(angle):
    return ((mpmath.exp(-0.5j * angle), 0), (0, mpmath.exp(0.5j * angle)))


def synthesized(angles):
    """|00> through the two-qubit synthesis circuit of 7 angles, at 50 digits from the floats' exact values.

    The circuit: RY(angles[0]) on qubit 0, CNOT 0 -> 1, then RZ(angles[1]),
    RY(angles[2]), RZ(angles[3]) on qubit 0 and RZ(angles[4]), RY(angles[5]),
    RZ(angles[6]) on qubit 1, in that order.
    """
    with mpmath.workdps(50):
        t = [mpmath.mpf(angle) for angle in angles]
        psi = _rotate([mpmath.mpc(1), mpmath.mpc(0), mpmath.mpc(0), mpmath.mpc(0)], 0, _ry(t[0]))
        psi = [psi[0], psi[1], psi[3], psi[2]]  # CNOT 0 -> 1 swaps |10> and |11>
        for qubit, rotation, column in ((0, _rz, 1), (0, _ry, 2), (0, _rz, 3), (1, _rz, 4), (1, _ry, 5), (1, _rz, 6)):
            psi = _rotate(psi, qubit, rotation(t[column]))
        return psi
