import numpy as np
import pytest

from asymclone.cloner import _NETWORK_PERMUTATION, cloning_network
from asymclone.pauli import (
    _BELL_MATRIX,
    _BELL_SCALE,
    _OFF_DIAGONAL,
    _bell_sums,
    _expand,
    BELL_DIAGONAL_TOL,
    BELL_NAMES,
    BellCoefficients,
    bell_basis,
    bell_components,
    bell_decompose,
    bell_output,
    bell_output_row,
    bell_output_rows,
    decompose_rows,
    expand_rows,
    network_rows,
    run_pauli_cloner,
)
from asymclone.qstate import StateVector, random_rows, random_state, tensor, tensor_rows

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def _random_coeffs(rng):
    raw = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    raw = raw / np.linalg.norm(raw)
    return BellCoefficients(*raw)


def test_bell_basis_amplitudes():
    phi_p, phi_m, psi_p, psi_m = bell_basis()
    assert np.allclose(phi_p.amplitudes, [INV_SQRT2, 0, 0, INV_SQRT2], atol=1e-15)
    assert np.allclose(phi_m.amplitudes, [INV_SQRT2, 0, 0, -INV_SQRT2], atol=1e-15)
    assert np.allclose(psi_p.amplitudes, [0, INV_SQRT2, INV_SQRT2, 0], atol=1e-15)
    assert np.allclose(psi_m.amplitudes, [0, INV_SQRT2, -INV_SQRT2, 0], atol=1e-15)


def test_bell_basis_is_orthonormal():
    states = bell_basis()
    gram = np.array(
        [[np.vdot(a.amplitudes, b.amplitudes) for b in states] for a in states]
    )
    assert np.max(np.abs(gram - np.eye(4))) < 1e-12


def test_bell_names_match_order():
    assert BELL_NAMES == ("phi_plus", "phi_minus", "psi_plus", "psi_minus")


def test_bell_coefficients_require_normalization():
    with pytest.raises(ValueError, match="not normalized"):
        BellCoefficients(1.0, 1.0, 0.0, 0.0)


def test_bell_coefficients_reject_nan():
    with pytest.raises(ValueError, match="not normalized"):
        BellCoefficients(np.nan, 0.0, 0.0, 0.0)


def test_expand_components_roundtrip():
    rng = np.random.default_rng(31)
    for _ in range(50):
        coeffs = _random_coeffs(rng)
        state = StateVector(expand_rows(coeffs.as_array()), ("a1", "b1"))
        assert np.allclose(bell_components(state), coeffs.as_array(), atol=1e-12)


def test_components_rejects_wrong_size():
    with pytest.raises(ValueError, match="two-qubit"):
        bell_components(random_state(("a", "b", "c"), np.random.default_rng(0)))


def test_unit_coefficients_map_to_bell_products():
    first_pair = bell_basis(("r", "a0"))
    second_pair = bell_basis(("a1", "b1"))
    for j in range(4):
        unit = [0.0] * 4
        unit[j] = 1.0
        out = run_pauli_cloner(BellCoefficients(*unit))
        expected = tensor(first_pair[j], second_pair[j])
        assert out.labels == ("r", "a0", "a1", "b1")
        assert np.max(np.abs(out.amplitudes - expected.amplitudes)) < 1e-12


def test_uniform_coefficients_spread_over_all_bell_products():
    out = run_pauli_cloner(BellCoefficients(0.5, 0.5, 0.5, 0.5))
    matrix = bell_decompose(out)
    assert np.allclose(np.diag(matrix), [0.5, 0.5, 0.5, 0.5], atol=1e-12)
    off = matrix - np.diag(np.diag(matrix))
    assert np.max(np.abs(off)) < 1e-12


def test_decompose_of_simple_product():
    phi_p = bell_basis(("r", "a0"))[0]
    state = tensor(phi_p, bell_basis(("a1", "b1"))[0])
    matrix = bell_decompose(state)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.max(np.abs(matrix - expected)) < 1e-12


def test_decompose_is_complete():
    rng = np.random.default_rng(32)
    first_pair = bell_basis(("r", "a0"))
    second_pair = bell_basis(("a1", "b1"))
    for _ in range(20):
        psi = random_state(("r", "a0", "a1", "b1"), rng)
        matrix = bell_decompose(psi)
        assert np.sum(np.abs(matrix) ** 2) == pytest.approx(1.0, abs=1e-10)
        resum = sum(
            matrix[j, k] * tensor(first_pair[j], second_pair[k]).amplitudes
            for j in range(4)
            for k in range(4)
        )
        assert np.max(np.abs(resum - psi.amplitudes)) < 1e-12


def test_decompose_respects_declared_pairing():
    rng = np.random.default_rng(33)
    psi = random_state(("r", "a0", "a1", "b1"), rng)
    swapped = bell_decompose(psi, pairing=(("a1", "b1"), ("r", "a0")))
    direct = bell_decompose(psi)
    assert np.max(np.abs(swapped - direct.T)) < 1e-12


def test_decompose_argument_errors():
    with pytest.raises(ValueError, match="four-qubit"):
        bell_decompose(random_state(("a", "b"), np.random.default_rng(0)))
    psi = random_state(("r", "a0", "a1", "b1"), np.random.default_rng(1))
    with pytest.raises(ValueError, match=r"\('r', 'a0', 'a1', 'x'\) is not a permutation of \('r', 'a0', 'a1', 'b1'\)"):
        bell_decompose(psi, pairing=(("r", "a0"), ("a1", "x")))


@pytest.mark.parametrize(
    "pairing",
    [
        (("r",), ("a0", "a1", "b1")),
        (("r", "a0", "a1"), ("b1",)),
        (("r", "a0", "a1", "b1"), ()),
        (("r", "a0"), ("a1", "b1"), ()),
    ],
)
def test_decompose_refuses_a_pairing_of_other_than_two_pairs_of_two(pairing):
    # each covers the register, so the permutation rule alone would let it through
    psi = random_state(("r", "a0", "a1", "b1"), np.random.default_rng(2))
    with pytest.raises(ValueError, match="pairing must be two pairs of two labels"):
        bell_decompose(psi, pairing=pairing)


def test_output_is_bell_diagonal_with_input_on_diagonal():
    rng = np.random.default_rng(34)
    for _ in range(100):
        coeffs = _random_coeffs(rng)
        matrix = bell_decompose(run_pauli_cloner(coeffs))
        off = matrix - np.diag(np.diag(matrix))
        assert np.max(np.abs(off)) < 1e-10
        assert np.max(np.abs(np.diag(matrix) - coeffs.as_array())) < 1e-10


def test_network_agrees_with_cloner_module():
    # the basis permutation only moves amplitudes, so it matches the four
    # CNOTs applied gate by gate bit for bit
    rng = np.random.default_rng(12)
    phi_p = bell_basis(("r", "a0"))[0]
    for _ in range(8):
        coeffs = _random_coeffs(rng)
        via_bell = run_pauli_cloner(coeffs)
        direct = cloning_network(tensor(phi_p, StateVector(expand_rows(coeffs.as_array()), ("a1", "b1"))))
        assert via_bell.labels == direct.labels
        assert np.array_equal(via_bell.amplitudes, direct.amplitudes)


def test_bell_coefficients_accept_only_what_the_network_accepts():
    # a norm error between the two tolerances used to pass construction and
    # then fail inside run_pauli_cloner
    with pytest.raises(ValueError, match="not normalized"):
        BellCoefficients(np.sqrt(1 + 5e-11), 0.0, 0.0, 0.0)
    assert run_pauli_cloner(BellCoefficients(np.sqrt(1 + 5e-13), 0.0, 0.0, 0.0)).n_qubits == 4


def test_bell_output_is_diagonal_with_the_input_on_it():
    coeffs = _random_coeffs(np.random.default_rng(5))
    matrix, max_off = bell_output(coeffs)
    assert max_off <= BELL_DIAGONAL_TOL
    assert np.max(np.abs(np.diag(matrix) - coeffs.as_array())) < 1e-12
    assert np.array_equal(matrix, bell_decompose(run_pauli_cloner(coeffs)))


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_bell_output_rows_match_one_call_per_row(n):
    # a row's numbers must not depend on the stack around it
    raw = random_rows(np.random.default_rng(46).standard_normal((n, 8)))
    expanded = expand_rows(raw)
    matrices, max_off = bell_output_rows(raw)
    for k in range(n):
        coeffs = BellCoefficients(*raw[k])
        assert np.array_equal(expanded[k], expand_rows(coeffs.as_array()))
        matrix, off = bell_output(coeffs)
        assert np.array_equal(matrices[k], matrix)
        assert max_off[k] == off


def test_the_rows_bell_sums_are_the_bell_matrix_column_by_column():
    # bell_output_row hard-codes its sums and differences; on each basis vector they must give a column of
    # the integer Bell matrix, _BELL_MATRIX over its scale, so the package keeps one Bell table
    integer = (_BELL_MATRIX / _BELL_SCALE).real
    assert set(integer.flat) == {-1.0, 0.0, 1.0}
    assert np.array_equal(_BELL_SCALE * integer, _BELL_MATRIX)
    for k in range(4):
        basis = [1.0 if j == k else 0.0 for j in range(4)]
        assert _expand(basis) == integer[:, k].tolist(), k
        assert _bell_sums(basis) == integer.T[:, k].tolist(), k


def test_the_bell_output_row_keeps_bell_coefficients_rule():
    # the norm rule of BellCoefficients, on the expansion, with its message; NaN fails it
    with pytest.raises(ValueError, match="not normalized"):
        bell_output_row([complex(np.sqrt(1 + 5e-11)), 0j, 0j, 0j])
    with pytest.raises(ValueError, match=r"sum \|amp\|\^2 = nan"):
        bell_output_row([0j, complex(np.nan, 0.0), 0j, 0j])
    matrix, max_off = bell_output_row([complex(np.sqrt(1 + 5e-13)), 0j, 0j, 0j])
    assert max_off == 0.0 and abs(matrix[0][0] - 1.0) < 1e-12


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _zeroed_diagonal_max(matrix):
    """The off-diagonal maximum over the whole matrix with its diagonal zeroed: the reference for the mask."""
    return np.abs(np.where(np.eye(4, dtype=bool), 0.0, matrix)).max(axis=(-2, -1))


def test_operands_built_once_give_the_per_call_bits():
    # the reference builds each operand from _BELL_MATRIX on the spot; the
    # module's adjoint must stay the transposed view, or @ takes another BLAS path
    rng = np.random.default_rng(18)
    joint = random_rows(rng.standard_normal((64, 32)))
    coeffs = random_rows(rng.standard_normal((64, 8)))
    for amps, c in ((joint, coeffs), (joint[5], coeffs[5])):
        per_call = _BELL_MATRIX.conj().T @ amps.reshape(amps.shape[:-1] + (4, 4)) @ _BELL_MATRIX.conj()
        assert _same_bits(decompose_rows(amps), per_call)
        network = tensor_rows(_BELL_MATRIX[:, 0], expand_rows(c))
        network = network.reshape(network.shape[:-1] + (2, 8))[..., _NETWORK_PERMUTATION].reshape(network.shape)
        assert _same_bits(network_rows(c), network)
        matrix, max_off = bell_output_rows(c)
        assert _same_bits(matrix, decompose_rows(network))
        assert _same_bits(max_off, _zeroed_diagonal_max(matrix))
    state = StateVector(coeffs[7], ("a1", "b1"))
    assert _same_bits(bell_components(state), _BELL_MATRIX.conj().T @ state.amplitudes)


def test_masked_off_diagonal_maximum_keeps_nan():
    rng = np.random.default_rng(19)
    matrices = rng.standard_normal((200, 4, 4)) + 1j * rng.standard_normal((200, 4, 4))
    # a NaN real part in each of the first 150 matrices, a NaN imaginary part
    # in the first 50, each on or off the diagonal
    rows, cols = rng.integers(0, 4, (2, 150))
    matrices.real[np.arange(150), rows, cols] = np.nan
    matrices.imag[np.arange(50), cols[:50], rows[:50]] = np.nan
    masked = np.abs(matrices[..., _OFF_DIAGONAL]).max(axis=-1)
    np.testing.assert_array_equal(masked, _zeroed_diagonal_max(matrices))
    assert np.isnan(masked).any() and not np.isnan(masked).all()
    for matrix in matrices[[0, 1, 160]]:
        np.testing.assert_array_equal(np.abs(matrix[_OFF_DIAGONAL]).max(), _zeroed_diagonal_max(matrix))
