import numpy as np
import pytest
import schmidt_rows

from asymclone.gates import (
    CNOT,
    HADAMARD,
    RY,
    RZ,
    GateApplication,
    _H,
    _cnot_index,
    _gate_rows,
    apply_circuit,
    apply_cnot,
    apply_gate,
    apply_hadamard,
    apply_ry,
    apply_rz,
    cnot_rows,
    gate_rows,
    prepare_two_qubit,
    ry_matrix,
    rz_matrix,
    synthesis_rows,
    synthesized_rows,
)
from asymclone.qstate import StateVector, basis_state, named_state, overlap, random_rows, random_state, tensor

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
    with pytest.raises(ValueError, match="cnot needs distinct control and target labels"):
        apply_cnot(psi, "a", "a")
    with pytest.raises(ValueError, match="unknown qubit label"):
        apply_cnot(psi, "a", "c")


@pytest.mark.parametrize("control, target", [(0, 0), (-1, 0), (0, 5)])
def test_cnot_rows_rejects_equal_axes_and_axes_outside_the_register(control, target):
    # before: [0 1 2 3 0 1 2 3] (amplitudes lost), the identity, and numpy's "negative shift count"
    match = rf"cnot needs distinct control and target axes in \[0, 3\), got {control} and {target}"
    for _ in range(2):
        with pytest.raises(ValueError, match=match):
            cnot_rows(np.arange(8), control, target)


@pytest.mark.parametrize("size", [0, 3, 6, 12])
def test_gate_rows_reject_a_row_length_that_is_not_a_power_of_two(size):
    # before: cnot_rows(np.arange(6), 0, 1) gave the 4 entries [0 1 3 2], and
    # gate_rows(np.arange(6.0), 0, _H) mixed entries 0-2 with 3-5
    rows = np.arange(2.0 * size).reshape(2, size)
    for run in (lambda: cnot_rows(rows, 0, 1), lambda: gate_rows(rows, 0, _H)):
        with pytest.raises(ValueError, match=rf"gate rows need a length 2\^n, got {size}$"):
            run()


@pytest.mark.parametrize("target", [-1, 3, 5])
def test_gate_rows_reject_a_target_outside_the_register(target):
    # before: numpy's "cannot reshape array of size 8 into shape (32,1,2,newaxis)" at 5 (and 3), a TypeError at -1
    with pytest.raises(ValueError, match=rf"gate needs a target axis in \[0, 3\), got {target}$"):
        gate_rows(np.arange(8.0), target, _H)
    assert np.allclose(gate_rows(gate_rows(np.arange(8.0), 2, _H), 2, _H), np.arange(8.0))


def test_the_shared_cnot_index_and_hadamard_are_read_only():
    index = _cnot_index(3, 0, 2)
    assert index.tolist() == [0, 1, 2, 3, 5, 4, 7, 6]
    assert _cnot_index(3, 0, 2) is index
    for shared in (index, _H):
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = shared[1]
    assert cnot_rows(np.arange(8), 0, 2).flags.writeable


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


@pytest.mark.parametrize("rotation, kind", [(apply_ry, RY), (apply_rz, RZ)])
def test_rotation_helpers_need_an_angle(rotation, kind):
    with pytest.raises(ValueError, match=f"{kind} needs an angle"):
        rotation(named_state("0", "q"), "q", None)


def _stacked_ry(angle):
    """ry_matrix as np.stack built it: the reference for its bits."""
    half = 0.5 * np.asarray(angle, dtype=float)
    c, s = np.cos(half), np.sin(half)
    return np.stack([c, -s, s, c], axis=-1).reshape(half.shape + (2, 2)).astype(complex)


def _stacked_rz(angle):
    """rz_matrix as np.stack built it: the reference for its bits."""
    half = 0.5 * np.asarray(angle, dtype=float)
    lower, upper = np.exp(-1j * half), np.exp(1j * half)
    zero = np.zeros_like(lower)
    return np.stack([lower, zero, zero, upper], axis=-1).reshape(half.shape + (2, 2))


@pytest.mark.parametrize("matrix, stacked", [(ry_matrix, _stacked_ry), (rz_matrix, _stacked_rz)], ids=["ry", "rz"])
def test_rotation_matrices_match_the_stacked_entries(matrix, stacked):
    # NaN, infinities and signed zeros included
    rng = np.random.default_rng(24)
    angles = rng.uniform(-10.0, 10.0, 60)
    angles[:7] = [np.nan, np.inf, -np.inf, -0.0, 0.0, np.pi, -np.pi]
    rng.shuffle(angles)
    for angle in (0.7, -0.0, np.nan, np.inf, -np.inf, angles, angles.reshape(6, 10), angles[:0]):
        with np.errstate(invalid="ignore"):
            got, want = matrix(angle), stacked(angle)
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert got.tobytes() == want.tobytes()


def test_rotations_preserve_norm():
    rng = np.random.default_rng(14)
    for _ in range(30):
        psi = random_state(("a", "b"), rng)
        angle = float(rng.uniform(-2 * np.pi, 2 * np.pi))
        rotated = apply_rz(apply_ry(psi, "a", angle), "b", -angle)
        assert np.linalg.norm(rotated.amplitudes) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf, np.float64("nan"), "x", 1j, [0.5]], ids=repr)
@pytest.mark.parametrize("kind, rotation", [(RY, apply_ry), (RZ, apply_rz)], ids=[RY, RZ])
def test_a_rotation_rejects_a_non_real_or_non_finite_angle(kind, rotation, angle):
    # one line naming the angle, before any numpy warning or a "not normalized" state error
    with pytest.raises(ValueError, match=f"^{kind} needs a finite angle, got [^\n]+$"):
        GateApplication(kind, "a", angle=angle)
    with pytest.raises(ValueError, match=f"^{kind} needs a finite angle, got "):
        rotation(named_state("+", "a"), "a", angle)


# RZ runs as two phases, not through rz_matrix: these angles pin its bits to gate_rows with rz_matrix
EDGE_ANGLES = (0.0, -0.0, np.pi, -np.pi, 4 * np.pi, 1e-300, 1e300)


@pytest.mark.parametrize("angle", [0, 2.5, np.float32(0.5), np.int64(3), *EDGE_ANGLES])
def test_a_rotation_takes_any_finite_real_angle(angle):
    state = named_state("+", "a")
    assert np.array_equal(apply_ry(state, "a", angle).amplitudes, gate_rows(state.amplitudes, 0, ry_matrix(angle)))
    assert np.array_equal(apply_rz(state, "a", angle).amplitudes, gate_rows(state.amplitudes, 0, rz_matrix(angle)))


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


# Each stack function against its object wrapper, row by row and bit for bit,
# on stacks of N rows: a row's result must not depend on the stack around it.
STACK_SIZES = [1, 2, 7, 64]
LABELS = ("a", "b", "c", "d")


@pytest.mark.parametrize("n", STACK_SIZES)
def test_gate_rows_match_the_wrappers(n):
    rng = np.random.default_rng(43)
    for qubits in (1, 2, 3, 4):
        labels = LABELS[:qubits]
        stack = random_rows(rng.standard_normal((n, 2 ** (qubits + 1))))
        angles = rng.uniform(-np.pi, np.pi, size=n)
        edges = np.resize(np.roll(EDGE_ANGLES, qubits), n)  # a different edge first for each register size
        states = [StateVector(row, labels) for row in stack]
        for target in range(qubits):
            rows = {
                "h": gate_rows(stack, target, _H),
                "ry": gate_rows(stack, target, ry_matrix(angles)),
                "rz": gate_rows(stack, target, rz_matrix(angles)),
                "rz edges": gate_rows(stack, target, rz_matrix(edges)),
            }
            assert np.array_equal(_gate_rows(stack, RZ, target, None, angles), rows["rz"])
            assert np.array_equal(_gate_rows(stack, RZ, target, None, edges), rows["rz edges"])
            for k, state in enumerate(states):
                label = labels[target]
                assert np.array_equal(rows["h"][k], apply_hadamard(state, label).amplitudes)
                assert np.array_equal(rows["ry"][k], apply_ry(state, label, angles[k]).amplitudes)
                assert np.array_equal(rows["rz"][k], apply_rz(state, label, angles[k]).amplitudes)
                assert np.array_equal(rows["rz edges"][k], apply_rz(state, label, edges[k]).amplitudes)
            for control in range(qubits):
                if control == target:
                    continue
                flipped = cnot_rows(stack, control, target)
                for k, state in enumerate(states):
                    want = apply_cnot(state, labels[control], labels[target]).amplitudes
                    assert np.array_equal(flipped[k], want)


@pytest.mark.parametrize("n", STACK_SIZES)
def test_synthesis_rows_match_prepare_two_qubit(n):
    rng = np.random.default_rng(45)
    raw = random_rows(rng.standard_normal((n, 8)))
    # a product state and |00>, whose circuits leave gates out
    raw[0] = tensor(random_state(("a",), rng), random_state(("b",), rng)).amplitudes
    if n > 1:
        raw[1] = [1, 0, 0, 0]
    _assert_each_row_matches_prepare_two_qubit(raw)


def _assert_each_row_matches_prepare_two_qubit(raw):
    targets, angles = synthesis_rows(raw)
    built = synthesized_rows(angles)
    for k in range(len(raw)):
        target, circuit = prepare_two_qubit(raw[k])
        assert np.array_equal(targets[k], target.amplitudes)
        assert [g.angle for g in circuit if g.kind != CNOT] == [a for a in angles[k] if a != 0]
        assert any(g.kind == CNOT for g in circuit) == (angles[k, 0] != 0)
        assert np.array_equal(built[k], apply_circuit(basis_state("00", ("a1", "b1")), circuit).amplitudes)


@pytest.mark.parametrize("name", list(schmidt_rows.families()))
def test_synthesis_rows_match_prepare_two_qubit_on_the_schmidt_edges(name):
    # each edge row inside a stack of seeded rows, on either side of them
    rng = np.random.default_rng(46)
    seeded = random_rows(rng.standard_normal((3, 8)))
    _assert_each_row_matches_prepare_two_qubit(np.concatenate([seeded, schmidt_rows.families()[name], seeded]))


def test_synthesis_rows_keep_the_leading_shape():
    rng = np.random.default_rng(47)
    raw = random_rows(rng.standard_normal((6, 8)))
    targets, angles = synthesis_rows(raw)
    shaped_targets, shaped_angles = synthesis_rows(raw.reshape(2, 3, 4))
    assert (shaped_targets.shape, shaped_angles.shape) == ((2, 3, 4), (2, 3, 7))
    assert np.array_equal(shaped_targets.reshape(6, 4), targets)
    assert np.array_equal(shaped_angles.reshape(6, 7), angles)
    empty_targets, empty_angles = synthesis_rows(np.zeros((0, 4), dtype=complex))
    assert (empty_targets.shape, empty_angles.shape) == ((0, 4), (0, 7))
