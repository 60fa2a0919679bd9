"""clone_row, clone_batch and the Bell output against tests/reference.py, a 50-digit reference sharing no code with them."""
import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

import reference  # noqa: E402

from asymclone import cli, cloner, pauli, qstate  # noqa: E402

# the largest absolute error against the reference, (clone_row, clone_batch), of every number clone prints;
# its round-off columns are the clones' imaginary diagonals and residual0/1, where the row is bounded no
# worse than the stack: Python's complex products are never fused, so its diagonals come out real
BOUNDS = {
    "joint": (2.2e-16, 2.2e-16),
    "rho": (4.4e-16, 4.4e-16),
    "imaginary diagonal": (0.0, 1.1e-16),
    "s_est": (6.7e-16, 6.7e-16),
    "residual": (4.4e-16, 4.4e-16),
    "fidelity": (6.7e-16, 6.7e-16),
}
CORNERS = [(1.0, 0.0), (0.0, 1.0), (2.0 / 3.0, 2.0 / 3.0), (0.0, 0.0)]


def _pairs():
    """The region's corners, then seeded feasible pairs."""
    rng = np.random.default_rng(31)
    pairs = list(CORNERS)
    while len(pairs) < 24:
        s0, s1 = rng.uniform(0.0, 1.0, 2).tolist()
        if cloner.feasibility(s0, s1).feasible:
            pairs.append((s0, s1))
    return pairs


def _cases():
    """(input, preparation) rows: the named and random inputs under solved and random preparations.

    A random preparation has a nonzero |10> amplitude, so every entry of the network's permutation shows.
    """
    rng = np.random.default_rng(32)
    inputs = [np.array(amplitudes, dtype=complex) for amplitudes in qstate._NAMED_AMPLITUDES.values()]
    inputs += list(qstate.random_rows(rng.standard_normal((6, 4))))
    preps = [cloner.solve_prep(cloner.feasibility(s0, s1)).as_amplitudes for s0, s1 in _pairs()]
    preps += list(qstate.random_rows(rng.standard_normal((8, 8))))
    return [(psi, prep) for prep in preps for psi in inputs]


def _errors(exact, got) -> dict:
    """The largest absolute error of each kind of number in got, a (joint, rho, s_est, residual, fidelity) row."""
    with mpmath.workdps(50):

        def worst(pairs):
            return max(float(abs(mpmath.mpc(want) - mpmath.mpc(complex(value)))) for want, value in pairs)

        cells = [(k, x, y) for k in (0, 1) for x in (0, 1) for y in (0, 1)]
        return {
            "joint": worst(zip(exact[0], got[0])),
            "rho": worst((exact[1][k][x][y], got[1][k][x][y]) for k, x, y in cells),
            "imaginary diagonal": worst((mpmath.im(exact[1][k][x][x]), got[1][k][x][x].imag) for k, x, _ in cells),
            "s_est": worst(zip(exact[2], got[2])),
            "residual": worst(zip(exact[3], got[3])),
            "fidelity": worst(zip(exact[4], got[4])),
        }


def test_one_row_and_the_stack_meet_the_reference_bounds():
    cases = _cases()
    batch = cloner.clone_batch(np.array([psi for psi, _ in cases]), np.array([prep for _, prep in cases]))
    row_worst, stack_worst = dict.fromkeys(BOUNDS, 0.0), dict.fromkeys(BOUNDS, 0.0)
    for n, (psi, prep) in enumerate(cases):
        exact = reference.clone(psi.tolist(), prep.tolist())
        stack = (batch.joint[n], batch.rho[n], batch.s_est[n], batch.residual[n], batch.fidelity[n])
        for worst, got in ((row_worst, cloner.clone_row(psi.tolist(), prep.tolist())), (stack_worst, stack)):
            for kind, error in _errors(exact, got).items():
                worst[kind] = max(worst[kind], error)
    for kind, (row_bound, stack_bound) in BOUNDS.items():
        assert row_bound <= stack_bound, kind
        assert row_worst[kind] <= row_bound, (kind, row_worst[kind])
        assert stack_worst[kind] <= stack_bound, (kind, stack_worst[kind])


def test_solved_preparations_clone_in_the_papers_form_at_50_digits():
    # rho_out = s rho_in + (1 - s)/2 I with s the target, for every input: the paper and the solver, not only the
    # simulator; the solved preparation's amplitudes are rounded to doubles, so the form holds to round-off
    rng = np.random.default_rng(33)
    inputs = [np.array(amplitudes, dtype=complex) for amplitudes in qstate._NAMED_AMPLITUDES.values()]
    inputs += list(qstate.random_rows(rng.standard_normal((4, 4))))
    for s0, s1 in _pairs():
        prep = cloner.solve_prep(cloner.feasibility(s0, s1)).as_amplitudes.tolist()
        for psi in inputs:
            _, _, s_est, residual, _ = reference.clone(psi.tolist(), prep)
            assert abs(s_est[0] - s0) <= 1e-15 and abs(s_est[1] - s1) <= 1e-15, (s0, s1, psi)
            assert max(residual) <= 1e-15, (s0, s1, psi)


# the largest absolute error of a Bell output's coefficients against the reference, (bell_output_row,
# bell_output_rows); the row's sums and differences on the integer Bell matrix cancel its off-diagonals to
# exactly 0, and they round its diagonal no worse than the stack's products with the scaled matrix
BELL_BOUNDS = {"diagonal": (3.3e-16, 5.6e-16), "off-diagonal": (0.0, 1.1e-16)}


def _bell_cases():
    """Rows of 4 Python complex Bell coefficients: seeded random, corners and off-norm rows.

    The corners are each Bell state with a phase, even mixes and a subnormal
    entry. The off-norm rows are raw coefficients of norm 2e-9 to 1e200 as
    pauli normalizes them, and unit rows moved within the norm tolerance.
    """
    rng = np.random.default_rng(34)
    cases = qstate.random_rows(rng.standard_normal((40, 8))).tolist()
    for k in range(4):
        cases += [[phase if j == k else 0j for j in range(4)] for phase in (1, -1, 1j, -1j, complex(0.6, -0.8))]
    cases += [[0.5] * 4, [0.5, -0.5j, 0.5, 0.5j], cli._unit([0j, 1e-320, 1.0, 0.5j])[0]]
    for scale in (2e-9, 1e-3, 1e3, 1e200):
        cases += [cli._unit(row)[0] for row in (qstate.random_rows(rng.standard_normal((3, 8))) * scale).tolist()]
    cases += [[z * factor for z in row] for row in cases[:4] for factor in (1.0 - 4e-13, 1.0 + 4e-13)]
    return [[complex(z) for z in row] for row in cases]


def test_the_purified_network_is_bell_diagonal_at_50_digits():
    # Cerf's Pauli cloner view: the output is sum_j x_j |B_j>|B_j>, the input's coefficients on the diagonal
    for coeffs in _bell_cases():
        exact = reference.bell_output(coeffs)
        with mpmath.workdps(50):
            for j in range(4):
                for k in range(4):
                    want = mpmath.mpc(coeffs[j]) if j == k else 0
                    assert abs(exact[j][k] - want) <= 1e-45, (coeffs, j, k)


def test_the_bell_output_row_and_stack_meet_the_reference_bounds():
    cases = _bell_cases()
    stack, stack_off = pauli.bell_output_rows(np.array(cases))
    worst = {kind: [0.0, 0.0] for kind in BELL_BOUNDS}
    with mpmath.workdps(50):
        for n, coeffs in enumerate(cases):
            exact = reference.bell_output(coeffs)
            row, row_off = pauli.bell_output_row(coeffs)
            assert row_off == 0.0 and stack_off[n] <= BELL_BOUNDS["off-diagonal"][1], coeffs
            for side, got in enumerate((row, stack[n].tolist())):
                for j in range(4):
                    for k in range(4):
                        # an off-diagonal is 0 exactly (test_the_purified_network_is_bell_diagonal_at_50_digits)
                        want = exact[j][k] if j == k else 0
                        error = float(abs(want - mpmath.mpc(got[j][k])))
                        kind = "diagonal" if j == k else "off-diagonal"
                        worst[kind][side] = max(worst[kind][side], error)
    for kind, (row_bound, stack_bound) in BELL_BOUNDS.items():
        assert row_bound <= stack_bound, kind
        assert worst[kind][0] <= row_bound, (kind, worst[kind])
        assert worst[kind][1] <= stack_bound, (kind, worst[kind])
