import math

import numpy as np
import pytest

from asymclone.cloner import preparation_rule
from asymclone.gates import synthesis_rows
from asymclone.qstate import (
    ACCUMULATED_TOL,
    ROUNDOFF_TOL,
    BlochVector,
    DensityMatrix,
    StateVector,
    _every,
    _offender,
    basis_state,
    bloch_rows,
    bloch_vector,
    check_bloch_length,
    check_density,
    check_unit_norm,
    fidelity_pure,
    fidelity_rows,
    from_bloch_rows,
    max_rows,
    named_state,
    norm_rows,
    overlap,
    overlap_rows,
    partial_trace,
    partial_trace_rows,
    projector_rows,
    random_rows,
    random_state,
    reorder,
    reorder_rows,
    single_qubit,
    tensor,
    tensor_rows,
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
        "entries, labels", [(np.eye(1), ()), (np.eye(32) / 32, ("a", "b", "c", "d", "e"))], ids=["0-qubit", "5-qubit"]
    )
    def test_rejects_a_register_outside_the_cap(self, entries, labels):
        # the register rule StateVector keeps: 1..MAX_QUBITS qubits
        with pytest.raises(ValueError, match="1..4"):
            DensityMatrix(entries, labels)


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
        # a positive diagonal with an off-diagonal that drives an eigenvalue to -0.1
        (check_density, 0.5 * np.eye(2), [[0.5, 0.6], [0.6, 0.5]], "negative eigenvalue"),
        (check_density, 0.25 * np.eye(4), np.diag([0.5, 0.5, 0.5, -0.5]), "negative eigenvalue"),
    ],
)
def test_stack_checks_fail_on_one_bad_item(check, good, bad, match):
    check(np.array([good] * 5))
    with pytest.raises(ValueError, match=match):
        check(np.array([good] * 3 + [bad, good]))


def _passes_density(entries):
    """True if check_density accepts, False if it finds a negative eigenvalue."""
    try:
        check_density(entries)
    except ValueError as exc:
        assert "negative eigenvalue" in str(exc)
        return False
    return True


def _unit_vectors(rng, n):
    raw = rng.standard_normal((n, 3))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def test_two_by_two_eigenvalue_rule_agrees_with_eigvalsh():
    rng = np.random.default_rng(43)
    tol = ACCUMULATED_TOL
    # |m| = 1 + 2 tol -+ 2e-15 puts the smallest eigenvalue (1 - |m|)/2 at -tol +- 1e-15
    lengths = {
        "random": rng.uniform(0.0, 1.2, 300),
        "rank-deficient": np.ones(100),
        "above -tol": np.full(100, 1.0 + 2.0 * tol - 2e-15),
        "below -tol": np.full(100, 1.0 + 2.0 * tol + 2e-15),
    }
    stacks = {name: from_bloch_rows(r[:, None] * _unit_vectors(rng, len(r))) for name, r in lengths.items()}
    # arbitrary Hermitian unit-trace matrices, off the Bloch form's arithmetic
    a = rng.uniform(-0.5, 1.5, 300)
    b = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    stacks["random entries"] = np.stack([a, b.conj(), b, 1.0 - a], axis=-1).reshape(-1, 2, 2)
    stacks["by hand"] = np.array(
        [
            [[1.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.0, 1.0]],
            [[0.5, 0.5], [0.5, 0.5]],
            [[0.5, -0.5j], [0.5j, 0.5]],
            [[0.5, 0.6], [0.6, 0.5]],
            [[0.5, -0.6], [-0.6, 0.5]],
            [[0.5, 0.6j], [-0.6j, 0.5]],
            np.diag([-tol + 1e-15, 1.0 + tol - 1e-15]),
            np.diag([-tol - 1e-15, 1.0 + tol + 1e-15]),
        ],
        dtype=complex,
    )
    for name, stack in stacks.items():
        want = np.linalg.eigvalsh(stack)[:, 0] >= -tol
        got = [_passes_density(entries) for entries in stack]
        assert got == want.tolist(), name
        assert _passes_density(stack) == want.all(), name
    # the stacks hold both verdicts, and both rules resolve 1e-15 around -tol
    assert _passes_density(stacks["rank-deficient"]) and _passes_density(stacks["above -tol"])
    assert not any(_passes_density(entries) for entries in stacks["below -tol"])
    assert [_passes_density(entries) for entries in stacks["by hand"]] == [True] * 4 + [False] * 3 + [True, False]
    assert 0 < sum(map(_passes_density, stacks["random"])) < 300


def _density_stack(rng, lowest, dim):
    """Random Hermitian unit-trace dim x dim matrices, one per value of lowest, with that smallest eigenvalue."""
    z = rng.standard_normal((len(lowest), dim, dim)) + 1j * rng.standard_normal((len(lowest), dim, dim))
    u, _ = np.linalg.qr(z)
    rest = rng.uniform(0.1, 1.0, (len(lowest), dim - 1))
    rest *= ((1.0 - lowest) / rest.sum(axis=-1))[:, None]
    spectrum = np.concatenate([lowest[:, None], rest], axis=-1)
    m = (u * spectrum[:, None, :]) @ np.swapaxes(u, -1, -2).conj()
    return 0.5 * (m + np.swapaxes(m, -1, -2).conj())


@pytest.mark.parametrize("dim", [4, 8, 16])
def test_cholesky_density_rule_matches_the_smallest_eigenvalue(dim):
    # the smallest eigenvalue at 0 and 1e-13 on either side of -tol: the
    # Cholesky rule must give eigvalsh's verdict on each matrix and each stack
    rng = np.random.default_rng(dim)
    tol = ACCUMULATED_TOL
    lowest = np.repeat([0.0, -tol * (1.0 - 1e-3), -tol * (1.0 + 1e-3)], 30)
    stack = _density_stack(rng, lowest, dim)
    want = np.linalg.eigvalsh(stack)[:, 0] >= -tol
    assert want.tolist() == [True] * 60 + [False] * 30
    assert [_passes_density(entries) for entries in stack] == want.tolist()
    good = stack[:60]
    assert _passes_density(good)
    assert _passes_density(good.reshape(6, 10, dim, dim))
    # one bad row fails the whole stack, wherever it sits
    for k in (0, 31, 59):
        assert not _passes_density(np.concatenate([good[:k], stack[60:61], good[k:]]))
    # an empty stack holds no bad matrix
    check_density(np.zeros((0, dim, dim), dtype=complex))
    check_density(np.zeros((3, 0, dim, dim), dtype=complex))


@pytest.mark.parametrize("dim", [4, 8, 16])
def test_a_huge_off_diagonal_entry_fails_the_density_rule(dim):
    # Hermitian with unit trace, eigenvalues near -1e308: the factor's
    # first column overflows and later pivots come out NaN, not an error
    entries = np.eye(dim, dtype=complex) / dim
    entries[dim - 1, 0] = entries[0, dim - 1] = 1e308
    assert np.linalg.eigvalsh(entries)[0] < 0.0
    assert not _passes_density(entries)
    assert not _passes_density(np.array([np.eye(dim) / dim, entries]))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_two_by_two_entries_fail_the_density_rule(value):
    good = 0.5 * np.eye(2, dtype=complex)
    for row in range(2):
        for col in range(2):
            z = good[row, col]
            for entry in (complex(value, z.imag), complex(z.real, value)):
                bad = good.copy()
                bad[row, col] = entry
                with np.errstate(invalid="ignore"), pytest.raises(ValueError):
                    check_density(bad)
                with np.errstate(invalid="ignore"), pytest.raises(ValueError):
                    check_density(np.array([good, bad, good]))


def _full_matrix_density_rule(entries):
    """check_density on 2x2 matrices as it was before its closed-form skew and trace: the reference."""
    skew = np.abs(entries - np.swapaxes(entries, -1, -2).conj()).max(axis=(-2, -1))
    if not (skew <= ROUNDOFF_TOL).all():
        raise ValueError("density matrix is not Hermitian")
    trace = entries.trace(axis1=-2, axis2=-1)
    ok = np.abs(trace - 1.0) <= ROUNDOFF_TOL
    if not ok.all():
        raise ValueError(f"density matrix trace is {_offender(trace, ok)!r}, expected 1")
    a, d = entries[..., 0, 0].real, entries[..., 1, 1].real
    lowest = 0.5 * (a + d) - np.hypot(0.5 * (a - d), np.abs(entries[..., 1, 0]))
    if not (lowest >= -ACCUMULATED_TOL).all():
        raise ValueError("density matrix has a negative eigenvalue")


def _verdict(rule, entries):
    try:
        with np.errstate(invalid="ignore"):
            rule(entries)
    except ValueError as exc:
        return str(exc)
    return "ok"


def _two_by_two_cases():
    rng = np.random.default_rng(44)
    good = 0.5 * np.eye(2, dtype=complex)
    mixed = from_bloch_rows(np.array([0.3, -0.4, 0.5]))
    cases = []
    # a non-finite value in each of the 8 real parts, alone and inside a stack
    for base in (good, mixed):
        for part in range(8):
            for value in (np.nan, np.inf, -np.inf):
                bad = base.copy()
                bad.view(float).reshape(8)[part] = value
                cases += [bad, np.array([good, bad, good])]
    # signed zeros on the diagonal: a zero trace whose sign np.trace decides
    signs = (0.0, -0.0)
    for ar, ai, dr, di in np.array(np.meshgrid(signs, signs, signs, signs)).reshape(4, -1).T:
        cases.append(np.array([[complex(ar, ai), 0.0], [0.0, complex(dr, di)]]))
    # skew at the tolerance and one ulp past it, on the diagonal and off it
    for skew in (ROUNDOFF_TOL, np.nextafter(ROUNDOFF_TOL, 1.0)):
        for row, col in ((0, 0), (1, 1), (0, 1), (1, 0)):
            bad = good.copy()
            bad[row, col] += 0.5j * skew if row == col else skew
            cases.append(bad)
    # random stacks, Hermitian or not, with unit trace or not
    for n in (1, 3, 16):
        for _ in range(40):
            entries = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
            if rng.random() < 0.5:
                entries = 0.5 * (entries + np.swapaxes(entries, -1, -2).conj())
            if rng.random() < 0.5:
                entries = entries / entries.trace(axis1=-2, axis2=-1).real[:, None, None]
            cases.append(entries)
    return cases


def test_two_by_two_density_rule_matches_the_full_matrix_rule():
    # the closed-form skew and trace must give the full-matrix rule's verdict
    # and message on every input, signed zeros and non-finite parts included
    kinds = set()
    for entries in _two_by_two_cases():
        want = _verdict(_full_matrix_density_rule, entries)
        assert _verdict(check_density, entries) == want, entries
        kinds.add(next((kind for kind in ("Hermitian", "trace", "negative") if kind in want), want))
    assert kinds == {"ok", "Hermitian", "trace", "negative"}


def _reduced_bloch_length_rule(vectors):
    """check_bloch_length as it was before its column sum: the reference."""
    norm_sq = (vectors**2).sum(axis=-1)
    ok = norm_sq <= 1.0 + ACCUMULATED_TOL
    if not ok.all():
        raise ValueError(f"Bloch vector leaves the unit ball: |m|^2 = {_offender(norm_sq, ok)!r}")


def test_bloch_length_column_sum_matches_the_reduction():
    # (x*x + y*y) + z*z on the columns must keep the bits of the length-3
    # reduction, and so the rule's verdict and message, NaN failing it
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    component = st.one_of(
        st.floats(-1.5, 1.5),
        st.floats(-1e-300, 1e-300),  # subnormals included
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e200, np.nan, np.inf, -np.inf]),
        st.floats(),
    )
    stacks = st.lists(st.tuples(component, component, component), min_size=1, max_size=6)

    @hypothesis.settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @hypothesis.given(stacks)
    def check(rows):
        vectors = np.array(rows)
        with np.errstate(over="ignore"):
            x, y, z = vectors[:, 0], vectors[:, 1], vectors[:, 2]
            assert ((x * x + y * y) + z * z).tobytes() == (vectors**2).sum(axis=-1).tobytes()
            for stack in [vectors, vectors.reshape(1, -1, 3)] + list(vectors):
                assert _verdict(check_bloch_length, stack) == _verdict(_reduced_bloch_length_rule, stack)
            for row in vectors[np.isnan(vectors).any(axis=-1)]:
                with pytest.raises(ValueError, match="unit ball"):
                    check_bloch_length(row)

    check()


def test_tensor_orders_high_bits_first():
    joint = tensor(named_state("1", "a"), named_state("0", "b"))
    assert joint.labels == ("a", "b")
    assert np.array_equal(joint.amplitudes, [0, 0, 1, 0])


def test_tensor_rejects_label_collision():
    with pytest.raises(ValueError, match=r"duplicate qubit labels in \('q', 'q'\)"):
        tensor(named_state("0", "q"), named_state("0", "q"))


def test_tensor_respects_register_cap():
    a = random_state(("q0", "q1"), np.random.default_rng(0))
    b = random_state(("q2", "q3", "q4"), np.random.default_rng(1))
    with pytest.raises(ValueError, match=r"register must hold 1\.\.4 qubits, got 5"):
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
    with pytest.raises(ValueError, match=r"\('a',\) is not a permutation of \('b',\)"):
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


def test_bloch_roundtrip():
    rng = np.random.default_rng(8)
    for _ in range(25):
        rho = to_density(random_state(("q",), rng))
        rebuilt = DensityMatrix(from_bloch_rows(bloch_vector(rho).as_array()), ("q",))
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


class _NoDraws:
    def standard_normal(self, size):
        pytest.fail(f"drew {size} normals for a register the rule refuses")


@pytest.mark.parametrize(
    "labels, match",
    [((), "1..4"), (("q", "q"), "duplicate"), (tuple("abcde"), "1..4"), (tuple(f"q{k}" for k in range(40)), "1..4")],
    ids=["0-qubit", "duplicate", "5-qubit", "40-qubit"],
)
def test_random_state_checks_the_register_before_drawing(labels, match):
    with pytest.raises(ValueError, match=match):
        random_state(labels, _NoDraws())


def test_basis_state_checks_the_register_before_allocating():
    # 2**64 amplitudes: numpy refuses the shape itself, so nothing is allocated either way
    with pytest.raises(ValueError, match="register must hold 1..4 qubits, got 64"):
        basis_state("0" * 64, [f"q{k}" for k in range(64)])
    with pytest.raises(ValueError, match="duplicate"):
        basis_state("00", ("q", "q"))


# Each stack function against its object wrapper, row by row and bit for bit,
# on stacks of N rows: a row's result must not depend on the stack around it.
# The empty stack holds the row length spelled out, which numpy cannot infer.
STACK_SIZES = [0, 1, 2, 7, 64]
LABELS = ("a", "b", "c", "d")


def _random_stack(rng, n, qubits):
    return random_rows(rng.standard_normal((n, 2 ** (qubits + 1))))


def _states(stack, labels):
    return [StateVector(row, labels) for row in stack]


@pytest.mark.parametrize("n", STACK_SIZES)
def test_random_rows_replay_random_state(n):
    normals = np.random.default_rng(40).standard_normal((n, 8))
    replay = np.random.default_rng(40)
    stack = random_rows(normals)
    for row in stack:
        assert np.array_equal(row, random_state(("a", "b"), replay).amplitudes)
    assert np.array_equal(norm_rows(stack), [np.linalg.norm(row) for row in stack])


@pytest.mark.parametrize("n", STACK_SIZES)
def test_max_rows_is_max_over_the_last_axis(n):
    rng = np.random.default_rng(45)
    for width in (1, 2, 3, 4, 12):
        values = rng.standard_normal((n, 3, width))
        values[rng.random(values.shape) < 0.05] = np.nan
        assert np.array_equal(max_rows(values), values.max(axis=-1), equal_nan=True)


@pytest.mark.parametrize("n", STACK_SIZES)
def test_tensor_reorder_and_overlap_rows_match_the_wrappers(n):
    rng = np.random.default_rng(41)
    for high, low in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3)):
        a, b = _random_stack(rng, n, high), _random_stack(rng, n, low)
        joint = tensor_rows(a, b)
        labels = LABELS[: high + low]
        axes = rng.permutation(high + low)
        shuffled = reorder_rows(joint, axes)
        phases = overlap_rows(joint, shuffled)
        for k in range(n):
            obj = tensor(StateVector(a[k], labels[:high]), StateVector(b[k], labels[high:]))
            assert np.array_equal(joint[k], obj.amplitudes)
            moved = reorder(obj, [labels[ax] for ax in axes])
            assert np.array_equal(shuffled[k], moved.amplitudes)
            assert phases[k] == overlap(obj, StateVector(shuffled[k], labels))


@pytest.mark.parametrize("n", STACK_SIZES)
def test_density_rows_match_the_wrappers(n):
    rng = np.random.default_rng(42)
    for qubits in (1, 2, 3, 4):
        stack = _random_stack(rng, n, qubits)
        labels = LABELS[:qubits]
        rho = projector_rows(stack)
        keeps = sorted({(0,), (qubits - 1,), tuple(sorted({0, qubits - 1})), tuple(range(1, qubits))} - {()})
        reduced = [partial_trace_rows(rho, keep) for keep in keeps]
        one = rho if qubits == 1 else partial_trace_rows(rho, [qubits - 1])
        fidelity = fidelity_rows(stack, rho)
        for k in range(n):
            obj = to_density(StateVector(stack[k], labels))
            assert np.array_equal(rho[k], obj.entries)
            for keep, rows in zip(keeps, reduced):
                assert np.array_equal(rows[k], partial_trace(obj, [labels[ax] for ax in keep]).entries)
            assert fidelity[k] == fidelity_pure(StateVector(stack[k], labels), obj)
        m = bloch_rows(one)
        rebuilt = from_bloch_rows(m)
        for k in range(n):
            vector = bloch_vector(DensityMatrix(one[k], ("q",)))
            assert np.array_equal(m[k], vector.as_array())
            assert np.array_equal(rebuilt[k], from_bloch_rows(vector.as_array()))


FLAG_SHAPES = [(), (0,), (1,), (3,), (6,), (512, 2), (2, 3, 4)]


def test_every_is_all_on_every_flag_shape():
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis.extra.numpy import arrays

    st = hypothesis.strategies
    # values on both sides of the tolerances, NaN and infinities among them
    value = st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.0 + 2e-12, 1.0 - 2e-12, np.nan, np.inf, -np.inf])
    shape = st.sampled_from(FLAG_SHAPES)
    values = shape.flatmap(lambda s: arrays(np.float64, s, elements=value))
    flags = shape.flatmap(lambda s: arrays(np.bool_, s))

    @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @hypothesis.given(values, flags)
    def check(values, flags):
        with np.errstate(invalid="ignore"):
            derived = [
                np.abs(values - 1.0) <= ROUNDOFF_TOL,
                values >= -ACCUMULATED_TOL,
                ~np.isnan(values),
                np.abs(values.sum(axis=-1) - 1.0) <= ROUNDOFF_TOL if values.ndim else values <= 1.0,
            ]
        for ok in derived + [flags]:
            assert _every(ok) == bool(ok.all())

    check()


_U = 1.0 / math.sqrt(2.0)
_HALF = 0.5 * np.eye(2, dtype=complex)
_QUARTER = 0.25 * np.eye(4, dtype=complex)
_PREP = [math.sqrt(0.5), 0.5, 0.5, 0.0, -1.0, -2.0]


def check_preparation(values):
    """preparation_rule on the columns (c1, c2, c4, theta1, theta2, theta4) of (..., 6) rows, as solve_rows calls it."""
    preparation_rule(*np.moveaxis(np.asarray(values), -1, 0))


def _with(base, index, value):
    out = np.array(base)
    out[index] = value
    return out


_NORM = "state is not normalized: sum |amp|^2 = "
_TRACE_OFF = "density matrix trace is (1.000000000002+0j), expected 1"
# (rule, a valid row, a row with one NaN, infinite, -0 or just out-of-tolerance
# value, and the rule's outcome on it, as each rule gave it with ok.all())
_VALIDATOR_CASES = [
    (check_unit_norm, [_U, _U], [np.nan, _U], _NORM + "nan"),
    (check_unit_norm, [_U, _U], [_U, complex(0.0, np.inf)], _NORM + "inf"),
    (check_unit_norm, [_U, _U], [-np.inf, _U], _NORM + "inf"),
    (check_unit_norm, [_U, _U], [-0.0, complex(-0.0, -1.0)], None),
    (check_unit_norm, [_U, _U], [math.sqrt(1.0 + 2e-12), 0.0], _NORM + "1.0000000000019997"),
    (check_unit_norm, [_U, _U], [math.sqrt(1.0 - 2e-12), -0.0], _NORM + "0.999999999998"),
    (check_density, _HALF, _with(_HALF, (0, 1), np.nan), "density matrix is not Hermitian"),
    (check_density, _HALF, _with(_HALF, (1, 1), np.inf), "density matrix is not Hermitian"),
    (check_density, _HALF, _with(_HALF, (1, 0), -np.inf), "density matrix is not Hermitian"),
    (check_density, _HALF, [[0.5, -0.0], [-0.0, 0.5]], None),
    (check_density, _HALF, _with(_HALF, (0, 0), 0.5 + 2e-12), _TRACE_OFF),
    (check_density, _HALF, _with(_HALF, (1, 0), 2e-12j), "density matrix is not Hermitian"),
    (check_density, _HALF, np.diag([1.0 + 2e-12, -2e-12]), None),
    (check_density, _HALF, np.diag([1.0 + 2e-10, -2e-10]), "density matrix has a negative eigenvalue"),
    (check_density, _QUARTER, _with(_QUARTER, (2, 3), np.nan), "density matrix is not Hermitian"),
    (check_density, _QUARTER, _with(_QUARTER, (3, 3), -np.inf), "density matrix is not Hermitian"),
    (check_density, _QUARTER, _with(_QUARTER, (0, 0), 0.25 + 2e-12), _TRACE_OFF),
    (check_density, _QUARTER, np.diag([0.5, 0.25, 0.25 + 2e-10, -2e-10]), "density matrix has a negative eigenvalue"),
    (check_bloch_length, [0.0, 0.6, 0.8], [np.nan, 0.0, 0.0], "Bloch vector leaves the unit ball: |m|^2 = nan"),
    (check_bloch_length, [0.0, 0.6, 0.8], [0.0, np.inf, 0.0], "Bloch vector leaves the unit ball: |m|^2 = inf"),
    (check_bloch_length, [0.0, 0.6, 0.8], [0.0, 0.0, -np.inf], "Bloch vector leaves the unit ball: |m|^2 = inf"),
    (check_bloch_length, [0.0, 0.6, 0.8], [-0.0, -0.6, -0.8], None),
    (
        check_bloch_length,
        [0.0, 0.6, 0.8],
        [math.sqrt(1.0 + 1e-10 + 2e-12), 0.0, 0.0],
        "Bloch vector leaves the unit ball: |m|^2 = 1.0000000001019997",
    ),
    (check_preparation, _PREP, _with(_PREP, 0, np.nan), "modulus c1 = nan outside [0, 1]"),
    (check_preparation, _PREP, _with(_PREP, 2, np.inf), "modulus c4 = inf outside [0, 1]"),
    (check_preparation, _PREP, _with(_PREP, 4, -np.inf), "phases must be finite"),
    (check_preparation, _PREP, _with(_PREP, 5, np.nan), "phases must be finite"),
    (check_preparation, _PREP, _with(_with(_PREP, 1, -0.0), 3, -0.0), None),
    (check_preparation, _PREP, _with(_PREP, 0, 1.0 + 2e-12), "modulus c1 = 1.000000000002 outside [0, 1]"),
    (check_preparation, _PREP, _with(_PREP, 1, -2e-12), "modulus c2 = -2e-12 outside [0, 1]"),
    (synthesis_rows, [0.5] * 4, [0.5, np.nan, 0.5, 0.5], "amplitudes are not normalized: norm = nan"),
    (synthesis_rows, [0.5] * 4, [0.5, 0.5, np.inf, 0.5], "amplitudes are not normalized: norm = inf"),
    (synthesis_rows, [0.5] * 4, [0.5, 0.5, 0.5, -np.inf], "amplitudes are not normalized: norm = inf"),
    (synthesis_rows, [0.5] * 4, [-0.0, 1.0, -0.0, -0.0], None),
    (synthesis_rows, [0.5] * 4, [0.5 + 1e-12, 0.5, 0.5, 0.5], None),
    (synthesis_rows, [0.5] * 4, [0.5 + 2e-10, 0.5, 0.5, 0.5], "amplitudes are not normalized: norm = 1.0000000001"),
]


@pytest.mark.parametrize("rule, good, bad, message", _VALIDATOR_CASES)
def test_validators_keep_their_verdicts_and_messages(rule, good, bad, message):
    good, bad = np.asarray(good), np.asarray(bad)
    # the bad row alone (a 0-d flag for a one-row rule), in a stack, and in a stack of stacks
    stacks = [bad, np.stack([good, good, good, bad, good])]
    stacks.append(np.stack([good, bad, good, good]).reshape((2, 2) + bad.shape))
    for values in stacks:
        if message is None:
            rule(values)
            continue
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(ValueError) as info:
            rule(values)
        assert type(info.value) is ValueError
        assert str(info.value) == message
    rule(np.stack([good] * 3))


def test_from_bloch_rows_match_the_stacked_entries():
    # the values np.stack of the four entries gave, NaN, infinities and signed zeros included
    rng = np.random.default_rng(22)
    vectors = rng.standard_normal((300, 3))
    vectors.reshape(-1)[rng.choice(vectors.size, 90, replace=False)] = rng.choice([np.nan, np.inf, -np.inf, -0.0, 0.0], 90)
    for stack in (vectors, vectors[7], vectors.reshape(30, 10, 3), vectors[:0]):
        mx, my, mz = stack[..., 0], stack[..., 1], stack[..., 2]
        with np.errstate(invalid="ignore"):
            entries = np.stack([1.0 + mz, mx - 1j * my, mx + 1j * my, 1.0 - mz], axis=-1)
            want = 0.5 * entries.reshape(stack.shape[:-1] + (2, 2))
            got = from_bloch_rows(stack)
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert got.tobytes() == want.tobytes()


def test_bloch_rows_match_the_stacked_columns():
    # the values np.stack of the three columns gave, NaN and signed zeros included
    rng = np.random.default_rng(21)
    entries = rng.standard_normal((300, 2, 2)) + 1j * rng.standard_normal((300, 2, 2))
    entries.reshape(-1)[rng.choice(entries.size, 60, replace=False)] = rng.choice([np.nan, np.inf, -0.0, 0.0], 60)
    for stack in (entries, entries[7], entries.reshape(30, 10, 2, 2)):
        lower = stack[..., 1, 0]
        columns = [2.0 * lower.real, 2.0 * lower.imag, (stack[..., 0, 0] - stack[..., 1, 1]).real]
        with np.errstate(invalid="ignore"):
            assert bloch_rows(stack).tobytes() == np.stack(columns, axis=-1).tobytes()
