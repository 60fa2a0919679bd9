import numpy as np
import pytest

from asymclone.gates import (
    CNOT,
    HADAMARD,
    RY,
    RZ,
    GateApplication,
    apply_circuit,
    apply_cnot,
    apply_gate,
    apply_hadamard,
    apply_ry,
    apply_rz,
    prepare_two_qubit,
    ry_matrix,
    rz_matrix,
    zyz_angles,
)
from asymclone.qstate import basis_state, named_state, overlap, random_state, tensor

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def test_cnot_truth_table():
    # control first, target second: 00->00, 01->01, 10->11, 11->10
    table = {"00": "00", "01": "01", "10": "11", "11": "10"}
    for source, image in table.items():
        got = apply_cnot(basis_state(source, ("k", "l")), "k", "l")
        assert np.array_equal(got.amplitudes, basis_state(image, ("k", "l")).amplitudes)


def test_cnot_addresses_by_label_not_position():
    # control is the second register qubit here
    got = apply_cnot(basis_state("01", ("a", "b")), "b", "a")
    assert np.array_equal(got.amplitudes, basis_state("11", ("a", "b")).amplitudes)


def test_cnot_linearity_prepares_bell_pair():
    plus_zero = tensor(named_state("+", "a"), named_state("0", "b"))
    bell = apply_cnot(plus_zero, "a", "b")
    assert np.allclose(bell.amplitudes, [INV_SQRT2, 0, 0, INV_SQRT2], atol=1e-15)


def test_cnot_is_an_involution():
    rng = np.random.default_rng(12)
    for _ in range(30):
        psi = random_state(("x", "y", "z"), rng)
        twice = apply_cnot(apply_cnot(psi, "y", "x"), "y", "x")
        assert np.allclose(twice.amplitudes, psi.amplitudes, atol=1e-12)


def test_cnot_errors():
    psi = basis_state("00", ("a", "b"))
    with pytest.raises(ValueError, match="distinct"):
        apply_cnot(psi, "a", "a")
    with pytest.raises(ValueError, match="unknown qubit label"):
        apply_cnot(psi, "a", "c")


def test_hadamard_action():
    plus = apply_hadamard(named_state("0", "q"), "q")
    assert np.allclose(plus.amplitudes, [INV_SQRT2, INV_SQRT2], atol=1e-15)
    minus = apply_hadamard(named_state("1", "q"), "q")
    assert np.allclose(minus.amplitudes, [INV_SQRT2, -INV_SQRT2], atol=1e-15)


def test_hadamard_is_an_involution():
    rng = np.random.default_rng(13)
    for _ in range(30):
        psi = random_state(("a", "b"), rng)
        assert np.allclose(
            apply_hadamard(apply_hadamard(psi, "b"), "b").amplitudes,
            psi.amplitudes,
            atol=1e-12,
        )


def test_hadamard_on_second_qubit_of_00():
    got = apply_hadamard(basis_state("00", ("a1", "b1")), "b1")
    assert np.allclose(got.amplitudes, [INV_SQRT2, INV_SQRT2, 0, 0], atol=1e-15)


def test_rotation_actions():
    flipped = apply_ry(named_state("0", "q"), "q", np.pi)
    assert np.allclose(flipped.amplitudes, [0, 1], atol=1e-15)
    phased = apply_rz(named_state("+", "q"), "q", np.pi / 2)
    expected = np.array([np.exp(-0.25j * np.pi), np.exp(0.25j * np.pi)]) * INV_SQRT2
    assert np.allclose(phased.amplitudes, expected, atol=1e-15)


def test_rotations_preserve_norm():
    rng = np.random.default_rng(14)
    for _ in range(30):
        psi = random_state(("a", "b"), rng)
        angle = float(rng.uniform(-2 * np.pi, 2 * np.pi))
        rotated = apply_rz(apply_ry(psi, "a", angle), "b", -angle)
        assert np.linalg.norm(rotated.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_gate_application_validation():
    with pytest.raises(ValueError, match="unknown gate kind"):
        GateApplication("swap", "a")
    with pytest.raises(ValueError, match="distinct control and target"):
        GateApplication(CNOT, "a", control="a")
    with pytest.raises(ValueError, match="takes no angle"):
        GateApplication(CNOT, "a", control="b", angle=1.0)
    with pytest.raises(ValueError, match="takes no control"):
        GateApplication(HADAMARD, "a", control="b")
    with pytest.raises(ValueError, match="needs an angle"):
        GateApplication(RY, "a")
    with pytest.raises(ValueError, match="takes no angle"):
        GateApplication(HADAMARD, "a", angle=0.3)


def test_apply_gate_matches_direct_calls():
    rng = np.random.default_rng(15)
    psi = random_state(("a", "b"), rng)
    angle = 0.7
    pairs = [
        (GateApplication(CNOT, "b", control="a"), apply_cnot(psi, "a", "b")),
        (GateApplication(HADAMARD, "a"), apply_hadamard(psi, "a")),
        (GateApplication(RY, "b", angle=angle), apply_ry(psi, "b", angle)),
        (GateApplication(RZ, "a", angle=angle), apply_rz(psi, "a", angle)),
    ]
    for gate, expected in pairs:
        assert np.allclose(apply_gate(psi, gate).amplitudes, expected.amplitudes, atol=1e-15)


def test_apply_circuit_composes_in_order():
    circuit = [
        GateApplication(HADAMARD, "a"),
        GateApplication(CNOT, "b", control="a"),
    ]
    bell = apply_circuit(basis_state("00", ("a", "b")), circuit)
    assert np.allclose(bell.amplitudes, [INV_SQRT2, 0, 0, INV_SQRT2], atol=1e-15)


def _random_unitary(rng):
    raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_zyz_angles_reproduce_unitaries_up_to_phase():
    rng = np.random.default_rng(16)
    for _ in range(100):
        u = _random_unitary(rng)
        alpha, beta, gamma = zyz_angles(u)
        rebuilt = rz_matrix(alpha) @ ry_matrix(beta) @ rz_matrix(gamma)
        anchor = np.unravel_index(np.argmax(np.abs(u)), u.shape)
        phase = rebuilt[anchor] / u[anchor]
        assert abs(abs(phase) - 1.0) < 1e-10
        assert np.max(np.abs(rebuilt - phase * u)) < 1e-10


def test_zyz_angles_handle_diagonal_and_antidiagonal():
    for u in (np.eye(2), np.diag([1, 1j]), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]])):
        alpha, beta, gamma = zyz_angles(np.asarray(u, dtype=complex))
        rebuilt = rz_matrix(alpha) @ ry_matrix(beta) @ rz_matrix(gamma)
        anchor = np.unravel_index(np.argmax(np.abs(u)), (2, 2))
        phase = rebuilt[anchor] / u[anchor]
        assert np.max(np.abs(rebuilt - phase * np.asarray(u))) < 1e-12


def _rebuild(circuit):
    return apply_circuit(basis_state("00", ("a1", "b1")), circuit)


def test_prepare_00_needs_no_gates():
    target, circuit = prepare_two_qubit([1, 0, 0, 0])
    assert circuit == []
    assert np.array_equal(target.amplitudes, [1, 0, 0, 0])


def test_prepare_bell_state_uses_one_entangler():
    target, circuit = prepare_two_qubit([INV_SQRT2, 0, 0, INV_SQRT2])
    kinds = [g.kind for g in circuit]
    assert kinds.count(CNOT) == 1
    assert abs(abs(overlap(target, _rebuild(circuit))) - 1.0) < 1e-10


def test_prepare_asymmetric_cloner_prep_state():
    amps = [np.sqrt(2.0 / 3.0), 1.0 / np.sqrt(6.0), 0.0, 1.0 / np.sqrt(6.0)]
    target, circuit = prepare_two_qubit(amps)
    assert np.allclose(target.amplitudes, amps, atol=1e-12)
    assert abs(abs(overlap(target, _rebuild(circuit))) - 1.0) < 1e-10


def test_prepare_product_states_skip_the_cnot():
    rng = np.random.default_rng(17)
    for _ in range(20):
        left = random_state(("a1",), rng)
        right = random_state(("b1",), rng)
        target, circuit = prepare_two_qubit(tensor(left, right).amplitudes)
        assert all(g.kind != CNOT for g in circuit)
        assert abs(abs(overlap(target, _rebuild(circuit))) - 1.0) < 1e-10


def test_prepare_random_roundtrip():
    rng = np.random.default_rng(18)
    for _ in range(60):
        raw = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        target, circuit = prepare_two_qubit(raw / np.linalg.norm(raw))
        assert len(circuit) <= 8
        assert sum(g.kind == CNOT for g in circuit) <= 1
        assert abs(abs(overlap(target, _rebuild(circuit))) - 1.0) < 1e-10


def test_prepare_accepts_custom_labels():
    target, circuit = prepare_two_qubit([0, INV_SQRT2, INV_SQRT2, 0], labels=("u", "v"))
    assert target.labels == ("u", "v")
    built = apply_circuit(basis_state("00", ("u", "v")), circuit)
    assert abs(abs(overlap(target, built)) - 1.0) < 1e-10


def test_prepare_rejects_bad_input():
    with pytest.raises(ValueError, match="not normalized"):
        prepare_two_qubit([1, 1, 0, 0])
    with pytest.raises(ValueError, match="exactly 4"):
        prepare_two_qubit([1, 0])


def test_prepare_rejects_nan_amplitudes():
    with pytest.raises(ValueError, match="not normalized"):
        prepare_two_qubit([np.nan, 0, 0, 0])
