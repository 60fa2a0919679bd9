"""The package against tests/reference.py, a 50-digit reference sharing no code with it.

clone_row, clone_batch, sweep's residual_max column, the Bell output and the
synthesis circuit meet stated absolute bounds; solved preparations clone in
the paper's form and meet Cerf's no-cloning inequality, with equality on the
boundary.
"""
import io
import itertools
from contextlib import redirect_stdout

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

import reference  # noqa: E402
import schmidt_rows  # noqa: E402

from asymclone import cli, cloner, gates, pauli, qstate  # noqa: E402

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


def _arc(count):
    """count points on the arc margin = 0 between (1, 0) and (0, 1), the corners left out, as a (count, 2) array."""
    t = np.linspace(-np.pi / 3, np.pi / 3, count + 2)[1:-1]
    base, shift = (1.0 + np.cos(t)) / 3.0, np.sin(t) / np.sqrt(3.0)
    return np.stack([base - shift, base + shift], axis=-1)


def _pairs():
    """The region's corners, seeded feasible pairs, then pairs at the boundary.

    Points on the arc margin = 0 go out and in by 1e-13 and 4e-13 of their
    length (margins within ROUNDOFF_TOL either way) and 1 to 3 ulps in; the
    clamped ends lie 1e-13 outside [0, 1].
    """
    rng = np.random.default_rng(31)
    pairs = list(CORNERS)
    while len(pairs) < 24:
        s0, s1 = rng.uniform(0.0, 1.0, 2).tolist()
        if cloner.feasibility(s0, s1).feasible:
            pairs.append((s0, s1))
    arc = _arc(5)
    for nudge in (1e-13, -1e-13, 4e-13, -4e-13):
        pairs += [tuple(pair) for pair in (arc * (1.0 + nudge)).tolist()]
    for _ in range(3):
        arc = np.nextafter(arc, 0.0)
        pairs += [tuple(pair) for pair in arc.tolist()]
    low, high = -1e-13, 1.0 + 1e-13
    pairs += [(low, 0.0), (0.0, low), (high, 0.0), (0.0, high), (low, 1.0), (1.0, low), (low, low), (high, low)]
    assert all(cloner.feasibility(s0, s1).feasible for s0, s1 in pairs)
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
        pair = cloner.feasibility(s0, s1)
        prep = cloner.solve_prep(pair).as_amplitudes.tolist()
        # a pair outside the ellipse by its margin (up to ROUNDOFF_TOL) or past [0, 1] is solved as a boundary one:
        # its shrinks miss the target by up to 2.5 margins plus the distance past [0, 1], and the form half a margin
        # (measured: 2.3 margins and 0.44 margins)
        outside, past = max(pair.margin, 0.0), max(-s0, s0 - 1.0, -s1, s1 - 1.0, 0.0)
        for psi in inputs:
            _, _, s_est, residual, _ = reference.clone(psi.tolist(), prep)
            shrink_bound = 1e-15 + 2.5 * outside + past
            assert abs(s_est[0] - s0) <= shrink_bound and abs(s_est[1] - s1) <= shrink_bound, (s0, s1, psi)
            assert max(residual) <= 1e-15 + 0.5 * outside, (s0, s1, psi)


# the largest absolute error of a Bell output's diagonal coefficients against the reference; bell_output_row
# and bell_output_rows run the same sums and differences on the integer Bell matrix, so they agree bit for bit
# and cancel the off-diagonals to exactly 0
BELL_BOUND = 3.3e-16


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
    worst = 0.0
    with mpmath.workdps(50):
        for n, coeffs in enumerate(cases):
            exact = reference.bell_output(coeffs)
            row, row_off = pauli.bell_output_row(coeffs)
            assert np.array(row).tobytes() == stack[n].tobytes() and row_off == stack_off[n] == 0.0, coeffs
            for j in range(4):
                for k in range(4):
                    # an off-diagonal is 0 exactly (test_the_purified_network_is_bell_diagonal_at_50_digits)
                    want = exact[j][k] if j == k else 0
                    assert j == k or row[j][k] == 0, (coeffs, j, k)
                    worst = max(worst, float(abs(want - mpmath.mpc(row[j][k]))))
    assert worst <= BELL_BOUND, worst


# the largest absolute error of synthesized_rows' amplitudes against the reference run of the same angles, and
# of the reference's overlap modulus with synthesis_rows' target against 1 (measured with the closed-form Schmidt
# form on these rows: 2.9e-16 and 2.4e-16; on the Schmidt edges 3.8e-16 and 1.5e-16; on 3000 more seeded rows
# 4.2e-16 and 3.0e-16, where LAPACK's SVD gave 2.6e-16, 2.8e-16 and 3.6e-16 for the amplitude; the amplitude
# error is a chain of seven rounded gates, and on 800-row samples near s1 = 0 both reach 3.3e-16 to 3.9e-16)
SYNTHESIS_BOUNDS = {"amplitude": 4.4e-16, "overlap": 4.4e-16}


def _synthesis_cases():
    """Rows of 4 amplitudes: seeded random, then product states, Bell states and rows with zero angles."""
    rng = np.random.default_rng(35)
    h = 2.0**-0.5
    corners = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0.5, 0.5, 0.5, 0.5], [0.5, 0.5j, 0.5, 0.5j]]
    corners += [[h, 0, 0, h], [h, 0, 0, -h], [0, h, h, 0], [0, h, -h, 0], [h, 0, h, 0], [0, 0, h, 1j * h]]
    corners += [[0.6, 0, 0.8j, 0], [0.6, 0, 0, 0.8j]]
    return np.concatenate([qstate.random_rows(rng.standard_normal((60, 8))), np.array(corners, dtype=complex)])


def _synthesis_errors(rows):
    """The largest error of each kind in SYNTHESIS_BOUNDS over the rows."""
    target, angles = gates.synthesis_rows(rows)
    built = gates.synthesized_rows(angles)
    worst = dict.fromkeys(SYNTHESIS_BOUNDS, 0.0)
    with mpmath.workdps(50):
        for n, row_angles in enumerate(angles.tolist()):
            exact = reference.synthesized(row_angles)
            errors = [abs(want - mpmath.mpc(got)) for want, got in zip(exact, built[n].tolist())]
            worst["amplitude"] = max(worst["amplitude"], float(max(errors)))
            overlap = abs(sum(mpmath.conj(mpmath.mpc(t)) * want for t, want in zip(target[n].tolist(), exact)))
            worst["overlap"] = max(worst["overlap"], float(abs(1 - overlap)))
    return worst


def test_the_synthesis_circuit_meets_the_reference_bounds():
    rows = _synthesis_cases()
    angles = gates.synthesis_rows(rows)[1]
    # the corners reach gates left out: a product state has no entangling angle, a Bell state no local rotation
    assert (angles[-14:] == 0.0).sum(axis=-1).min() >= 2 and (angles[-14:, 0] == 0.0).sum() >= 6
    worst = _synthesis_errors(rows)
    for kind, bound in SYNTHESIS_BOUNDS.items():
        assert worst[kind] <= bound, (kind, worst[kind])


@pytest.mark.parametrize("name", list(schmidt_rows.families()))
def test_the_synthesis_circuit_meets_the_reference_bounds_on_the_schmidt_edges(name):
    # s1 at or near 0 and s0 at or near s1, where the Schmidt form's vectors are least determined
    worst = _synthesis_errors(schmidt_rows.families()[name])
    for kind, bound in SYNTHESIS_BOUNDS.items():
        assert worst[kind] <= bound, (kind, worst[kind])


# the largest absolute error of sweep's printed residual_max token against the largest reference residual over the
# six probes and both clones of its point, beyond the %.9g rounding of the token (at most 5e-9 of it): a largest
# term moves no further than the terms do, so the stack's residual bound (measured: 1.5e-16 on both grids)
SWEEP_RESIDUAL_BOUND = BOUNDS["residual"][1]


def sweep_residual_error(step: str, csv: str, every: int = 1) -> float:
    """The largest error of the residual_max tokens in csv, sweep --step step's stdout, on every every-th grid point."""
    values = cli._sweep_values(cli._parse_real(step))
    rows = csv.splitlines()[1:]
    assert len(rows) == len(values) ** 2
    probes = list(qstate._NAMED_AMPLITUDES.values())
    worst, feasible = 0.0, 0
    with mpmath.workdps(50):
        for row, (s0, s1) in itertools.islice(zip(rows, itertools.product(values, values)), 0, None, every):
            fields = row.split(",")
            if fields[2] == "false":
                continue
            feasible += 1
            # sweep's preparation, solve_rows', is solve_prep's bit for bit (tests/test_solve_rows.py)
            prep = cloner.solve_prep(cloner.feasibility(s0, s1)).amplitudes
            exact = max(max(reference.clone(psi, prep)[3]) for psi in probes)
            token = float(fields[-1])
            worst = max(worst, float(abs(token - exact)) - 5e-9 * token)
    assert feasible > len(rows) // every // 2
    return worst


@pytest.mark.parametrize("step", ["1/10", "1/14"])
def test_sweep_residual_max_meets_the_reference_bound(step):
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["sweep", "--step", step]) == 0
    assert sweep_residual_error(step, out.getvalue()) <= SWEEP_RESIDUAL_BOUND


# the largest |sqrt(ab) - (1/2 - a - b)| over solved boundary pairs and inputs, a = 1 - F0 and b = 1 - F1 the
# clones' fidelities at 50 digits: Cerf's no-cloning inequality sqrt(ab) >= 1/2 - a - b holds with equality
# (measured: 3.3e-16 on the arc, 2.6e-26 at (1, 0) and (0, 1))
CERF_BOUND = 1e-15


def _cerf_gap(s0, s1, psi):
    """sqrt(ab) - (1/2 - a - b) for input psi under the solved preparation of (s0, s1), at 50 digits.

    The input and the preparation are normalized at 50 digits first: a
    float row's norm misses 1 by round-off, which would move a corner's
    fidelity of 1 by about 1e-16 and sqrt(ab) there by about 1e-8.
    """
    prep = cloner.solve_prep(cloner.feasibility(s0, s1)).amplitudes
    with mpmath.workdps(50):
        fidelity = reference.clone(_unit(psi), _unit(prep))[4]
        a, b = 1 - fidelity[0], 1 - fidelity[1]
        # a fidelity of 1 may come out past 1 by 50-digit round-off, and ab below 0 by as little
        return mpmath.sqrt(max(a * b, 0)) - (mpmath.mpf(1) / 2 - a - b)


def _unit(row):
    """row as 50-digit complex numbers scaled to norm 1; call it at 50 digits."""
    row = [mpmath.mpc(z) for z in row]
    norm = mpmath.sqrt(sum(abs(z) ** 2 for z in row))
    return [z / norm for z in row]


def _cerf_inputs():
    rng = np.random.default_rng(36)
    return list(qstate._NAMED_AMPLITUDES.values()) + qstate.random_rows(rng.standard_normal((2, 4))).tolist()


def test_solved_boundary_pairs_meet_cerfs_inequality_with_equality():
    pairs = [(1.0, 0.0), (0.0, 1.0), (2.0 / 3.0, 2.0 / 3.0)] + [tuple(pair) for pair in _arc(15).tolist()]
    worst = max(abs(_cerf_gap(s0, s1, psi)) for s0, s1 in pairs for psi in _cerf_inputs())
    assert worst <= CERF_BOUND, worst


def test_solved_pairs_inside_the_region_meet_cerfs_inequality_strictly():
    rng = np.random.default_rng(37)
    pairs = []
    while len(pairs) < 20:
        s0, s1 = rng.uniform(0.0, 1.0, 2).tolist()
        if cloner.feasibility(s0, s1).margin < 0.0:
            pairs.append((s0, s1))
    assert min(_cerf_gap(s0, s1, psi) for s0, s1 in pairs for psi in _cerf_inputs()) > CERF_BOUND
