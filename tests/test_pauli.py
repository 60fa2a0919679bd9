import numpy as np
import pytest

from asymclone.cloner import cloning_network
from asymclone.pauli import (
    BELL_DIAGONAL_TOL,
    BELL_NAMES,
    BellCoefficients,
    bell_basis,
    bell_components,
    bell_decompose,
    bell_expand,
    bell_output,
    run_pauli_cloner,
)
from asymclone.qstate import random_state, tensor

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
        state = bell_expand(coeffs)
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
    with pytest.raises(ValueError, match="does not cover"):
        bell_decompose(psi, pairing=(("r", "a0"), ("a1", "x")))


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
        direct = cloning_network(tensor(phi_p, bell_expand(coeffs)))
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
