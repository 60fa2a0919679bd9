import numpy as np
import pytest

from asymclone.qstate import (
    BlochVector,
    DensityMatrix,
    StateVector,
    basis_state,
    bloch_vector,
    check_bloch_length,
    check_density,
    check_unit_norm,
    fidelity_pure,
    from_bloch,
    named_state,
    overlap,
    partial_trace,
    random_state,
    reorder,
    single_qubit,
    tensor,
    to_density,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


class TestStateVector:
    def test_basic_construction(self):
        psi = StateVector([INV_SQRT2, 0, 0, INV_SQRT2], ("a", "b"))
        assert psi.n_qubits == 2
        assert psi.axis("a") == 0
        assert psi.axis("b") == 1

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector([1.0, 1.0], ("q",))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate"):
            StateVector([1, 0, 0, 0], ("q", "q"))

    def test_rejects_too_many_qubits(self):
        with pytest.raises(ValueError, match="1..4"):
            StateVector(np.eye(32)[0], ("a", "b", "c", "d", "e"))

    def test_rejects_wrong_amplitude_count(self):
        with pytest.raises(ValueError, match="needs 4 amplitudes"):
            StateVector([1, 0], ("a", "b"))

    def test_rejects_non_finite_amplitudes(self):
        for amps in ([np.nan, 0.0], [np.inf, 0.0]):
            with pytest.raises(ValueError, match="not normalized"):
                StateVector(amps, ("q",))

    def test_unknown_axis(self):
        psi = named_state("0", "q")
        with pytest.raises(ValueError, match="unknown qubit label"):
            psi.axis("r")

    def test_amplitudes_frozen(self):
        psi = named_state("+", "q")
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix([[0.5, 0.5], [0.0, 0.5]], ("q",))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix([[1.0, 0.0], [0.0, 1.0]], ("q",))

    def test_rejects_negative_eigenvalue(self):
        # hermitian with unit trace but an eigenvalue at -0.5
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix([[1.5, 0.0], [0.0, -0.5]], ("q",))

    def test_rejects_nan_entries(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix([[np.nan, 0.0], [0.0, 1.0]], ("q",))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="must be 4x4"):
            DensityMatrix(np.eye(2), ("a", "b"))


@pytest.mark.parametrize(
    "check, good, bad, match",
    [
        (check_unit_norm, [INV_SQRT2, 1j * INV_SQRT2], [1.0, 1.0], "not normalized"),
        (check_unit_norm, [INV_SQRT2, 1j * INV_SQRT2], [np.nan, 0.0], "not normalized"),
        (check_density, 0.5 * np.eye(2), [[np.nan, 0.0], [0.0, 1.0]], "Hermitian"),
        (check_density, 0.5 * np.eye(2), np.eye(2), "trace"),
        (check_density, 0.5 * np.eye(2), np.diag([1.5, -0.5]), "negative eigenvalue"),
        (check_bloch_length, [0.0, 0.6, 0.8], [0.8, 0.8, 0.0], "unit ball"),
        (check_bloch_length, [0.0, 0.6, 0.8], [np.nan, 0.0, 0.0], "unit ball"),
    ],
)
def test_stack_checks_fail_on_one_bad_item(check, good, bad, match):
    check(np.array([good] * 5))
    with pytest.raises(ValueError, match=match):
        check(np.array([good] * 3 + [bad, good]))


def test_tensor_orders_high_bits_first():
    joint = tensor(named_state("1", "a"), named_state("0", "b"))
    assert joint.labels == ("a", "b")
    assert np.array_equal(joint.amplitudes, [0, 0, 1, 0])


def test_tensor_rejects_label_collision():
    with pytest.raises(ValueError, match="collision"):
        tensor(named_state("0", "q"), named_state("0", "q"))


def test_tensor_respects_register_cap():
    a = random_state(("q0", "q1"), np.random.default_rng(0))
    b = random_state(("q2", "q3", "q4"), np.random.default_rng(1))
    with pytest.raises(ValueError, match="cap"):
        tensor(a, b)


def test_reorder_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        psi = random_state(("x", "y", "z"), rng)
        back = reorder(reorder(psi, ("z", "x", "y")), ("x", "y", "z"))
        assert np.allclose(back.amplitudes, psi.amplitudes, atol=1e-15)


def test_reorder_moves_amplitudes():
    psi = basis_state("01", ("a", "b"))
    flipped = reorder(psi, ("b", "a"))
    assert flipped.labels == ("b", "a")
    assert np.array_equal(flipped.amplitudes, [0, 0, 1, 0])


def test_reorder_rejects_non_permutation():
    with pytest.raises(ValueError, match="permutation"):
        reorder(basis_state("00", ("a", "b")), ("a", "c"))


def test_overlap_is_order_insensitive():
    rng = np.random.default_rng(5)
    psi = random_state(("a", "b", "c"), rng)
    assert overlap(psi, reorder(psi, ("c", "a", "b"))) == pytest.approx(1.0)


def test_overlap_rejects_different_registers():
    with pytest.raises(ValueError, match="registers differ"):
        overlap(named_state("0", "a"), named_state("0", "b"))


def test_partial_trace_of_bell_pair_is_maximally_mixed():
    bell = StateVector([INV_SQRT2, 0, 0, INV_SQRT2], ("a", "b"))
    reduced = partial_trace(to_density(bell), ["a"])
    assert np.allclose(reduced.entries, 0.5 * np.eye(2), atol=1e-15)


def test_partial_trace_factorizes_products():
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = random_state(("a",), rng)
        bc = random_state(("b", "c"), rng)
        rho = to_density(tensor(a, bc))
        assert np.allclose(
            partial_trace(rho, ["b", "c"]).entries, to_density(bc).entries, atol=1e-12
        )
        assert np.allclose(
            partial_trace(rho, ["a"]).entries, to_density(a).entries, atol=1e-12
        )


def test_partial_trace_keeps_register_order():
    rho = to_density(random_state(("a", "b", "c"), np.random.default_rng(2)))
    # requesting (c, a) still yields the register order (a, c)
    assert partial_trace(rho, ["c", "a"]).labels == ("a", "c")


def test_partial_trace_argument_errors():
    rho = to_density(named_state("0", "q"))
    with pytest.raises(ValueError, match="at least one"):
        partial_trace(rho, [])
    with pytest.raises(ValueError, match="unknown qubit labels"):
        partial_trace(rho, ["nope"])


def test_fidelity_of_projector_is_one():
    rng = np.random.default_rng(4)
    for _ in range(10):
        psi = random_state(("q",), rng)
        assert fidelity_pure(psi, to_density(psi)) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_of_orthogonal_states_is_zero():
    assert fidelity_pure(named_state("0", "q"), to_density(named_state("1", "q"))) == pytest.approx(
        0.0, abs=1e-15
    )


def test_fidelity_rejects_dimension_mismatch():
    two = random_state(("a", "b"), np.random.default_rng(0))
    with pytest.raises(ValueError, match="dimension mismatch"):
        fidelity_pure(two, to_density(named_state("0", "q")))


def test_bloch_vectors_of_named_states():
    expected = {
        "0": (0, 0, 1),
        "1": (0, 0, -1),
        "+": (1, 0, 0),
        "-": (-1, 0, 0),
        "+i": (0, 1, 0),
        "-i": (0, -1, 0),
    }
    for name, m in expected.items():
        got = bloch_vector(to_density(named_state(name, "q")))
        assert np.allclose(got.as_array(), m, atol=1e-15)
        assert got.norm() == pytest.approx(1.0)


def test_bloch_roundtrip():
    rng = np.random.default_rng(8)
    for _ in range(25):
        rho = to_density(random_state(("q",), rng))
        rebuilt = from_bloch(bloch_vector(rho), "q")
        assert np.allclose(rebuilt.entries, rho.entries, atol=1e-12)


def test_bloch_requires_single_qubit():
    rho = to_density(random_state(("a", "b"), np.random.default_rng(1)))
    with pytest.raises(ValueError, match="single-qubit"):
        bloch_vector(rho)


def test_bloch_vector_rejects_outside_unit_ball():
    with pytest.raises(ValueError, match="unit ball"):
        BlochVector(1.0, 1.0, 0.0)


def test_bloch_vector_rejects_nan():
    with pytest.raises(ValueError, match="unit ball"):
        BlochVector(np.nan, 0.0, 0.0)


def test_basis_state_patterns():
    assert np.array_equal(basis_state("10", ("a", "b")).amplitudes, [0, 0, 1, 0])
    assert np.array_equal(basis_state([1, 1], ("a", "b")).amplitudes, [0, 0, 0, 1])
    with pytest.raises(ValueError, match="bad bit pattern"):
        basis_state("2", ("a",))


def test_named_state_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown state name"):
        named_state("up", "q")


def test_single_qubit_must_be_normalized():
    with pytest.raises(ValueError, match="not normalized"):
        single_qubit(1.0, 1.0)


def test_random_state_is_normalized():
    rng = np.random.default_rng(6)
    for _ in range(25):
        psi = random_state(("a", "b"), rng)
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)
