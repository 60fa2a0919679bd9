"""Acceptance suite: one test per criterion, one [PASS]/[FAIL] line each.

Expected values were fixed against independent computations before the
package was built: the CNOT truth table and the three analytic channels
(identity, swap, symmetric), the boundary arc of the feasible region, the
Bell-diagonal structure of the purified network, and the hand-evaluated
step-0.5 feasibility grid.
"""
from fractions import Fraction

import numpy as np

from asymclone.cli import sweep_rows
from asymclone.cloner import feasibility, run_cloner, solve_prep
from asymclone.gates import apply_circuit, apply_cnot, prepare_two_qubit
from asymclone.pauli import BellCoefficients, bell_basis, bell_decompose, run_pauli_cloner
from asymclone.qstate import basis_state, named_state, overlap, random_state, tensor, to_density


def _report(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_cnot_truth_table():
    table = {"00": "00", "01": "01", "10": "11", "11": "10"}
    worst = 0.0
    for source, image in table.items():
        got = apply_cnot(basis_state(source, ("k", "l")), "k", "l")
        expected = basis_state(image, ("k", "l")).amplitudes
        worst = max(worst, float(np.max(np.abs(got.amplitudes - expected))))
    _report(1, worst == 0.0, f"CNOT truth table exact, error {worst}")


def test_criterion_2_identity_channel():
    prep = solve_prep(feasibility(1, 0))
    rng = np.random.default_rng(101)
    worst0 = worst1 = 0.0
    for _ in range(100):
        psi = random_state(("a0",), rng)
        out = run_cloner(psi, prep)
        worst0 = max(worst0, float(np.max(np.abs(out.rho[0] - to_density(psi).entries))))
        worst1 = max(worst1, float(np.max(np.abs(out.rho[1] - 0.5 * np.eye(2)))))
    ok = worst0 < 1e-12 and worst1 < 1e-12
    _report(2, ok, f"(s0,s1)=(1,0): original deviation {worst0:.2e}, copy from 1/2 {worst1:.2e}")


def test_criterion_3_swap_channel():
    prep = solve_prep(feasibility(0, 1))
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        psi = random_state(("a0",), rng)
        out = run_cloner(psi, prep)
        worst = max(worst, float(np.max(np.abs(out.rho[1] - to_density(psi).entries))))
    _report(3, worst < 1e-12, f"(s0,s1)=(0,1): copy deviation from input {worst:.2e}")


def test_criterion_4_symmetric_channel():
    prep = solve_prep(feasibility(2 / 3, 2 / 3))
    rng = np.random.default_rng(103)
    worst_s = worst_f = 0.0
    for _ in range(1000):
        out = run_cloner(random_state(("a0",), rng), prep)
        worst_s = max(worst_s, float(np.max(np.abs(out.s_est - 2 / 3))))
        worst_f = max(worst_f, float(np.max(np.abs(out.fidelity - 5 / 6))))
    ok = worst_s < 1e-8 and worst_f < 1e-8
    _report(4, ok, f"symmetric point: scaling error {worst_s:.2e}, fidelity error {worst_f:.2e}")


def test_criterion_5_solver_roundtrip():
    rng = np.random.default_rng(104)
    probes = [named_state(n, "a0") for n in ("0", "1", "+", "-", "+i", "-i")]
    worst_s = worst_r = 0.0
    for _ in range(500):
        while True:
            s0, s1 = rng.uniform(0.0, 1.0, size=2)
            pair = feasibility(float(s0), float(s1))
            if pair.feasible:
                break
        prep = solve_prep(pair)
        inputs = probes + [random_state(("a0",), rng) for _ in range(4)]
        for psi in inputs:
            out = run_cloner(psi, prep)
            worst_s = max(worst_s, float(np.max(np.abs(out.s_est - [pair.s0, pair.s1]))))
            worst_r = max(worst_r, float(np.max(out.residual)))
    ok = worst_s < 1e-8 and worst_r < 1e-8
    _report(5, ok, f"500 pairs x 10 probes: target error {worst_s:.2e}, residual {worst_r:.2e}")


def test_criterion_6_boundary_solvability():
    worst_margin = 0.0
    solved = 0
    for t in np.linspace(-np.pi / 3, np.pi / 3, 200):
        base = (1.0 + np.cos(t)) / 3.0
        shift = np.sin(t) / np.sqrt(3.0)
        pair = feasibility(base - shift, base + shift)
        worst_margin = max(worst_margin, abs(pair.margin))
        solved += pair.feasible and isinstance(solve_prep(pair), object)
    ok = worst_margin < 1e-9 and solved == 200
    _report(6, ok, f"200 boundary points: |margin| <= {worst_margin:.2e}, all solvable")


def test_criterion_7_pauli_cloner():
    first_pair = bell_basis(("r", "a0"))
    second_pair = bell_basis(("a1", "b1"))
    worst_unit = 0.0
    for j in range(4):
        unit = [0.0] * 4
        unit[j] = 1.0
        out = run_pauli_cloner(BellCoefficients(*unit))
        expected = tensor(first_pair[j], second_pair[j]).amplitudes
        worst_unit = max(worst_unit, float(np.max(np.abs(out.amplitudes - expected))))
    rng = np.random.default_rng(105)
    worst_off = worst_diag = 0.0
    for _ in range(500):
        raw = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        raw = raw / np.linalg.norm(raw)
        matrix = bell_decompose(run_pauli_cloner(BellCoefficients(*raw)))
        worst_off = max(worst_off, float(np.max(np.abs(matrix - np.diag(np.diag(matrix))))))
        worst_diag = max(worst_diag, float(np.max(np.abs(np.diag(matrix) - raw))))
    ok = worst_unit < 1e-12 and worst_off < 1e-10 and worst_diag < 1e-10
    _report(
        7,
        ok,
        f"unit deviation {worst_unit:.2e}, off-diagonal {worst_off:.2e}, diagonal {worst_diag:.2e}",
    )


def test_criterion_8_preparation_decomposition():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(200):
        raw = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        target, circuit = prepare_two_qubit(raw / np.linalg.norm(raw))
        built = apply_circuit(basis_state("00", ("a1", "b1")), circuit)
        worst = max(worst, 1.0 - abs(overlap(target, built)))
    _report(8, worst < 1e-10, f"200 random targets rebuilt, worst overlap defect {worst:.2e}")


def test_criterion_9_sweep_feasible_set():
    feasible = set()
    for row in sweep_rows(0.5):
        fields = row.split(",")
        if fields[2] == "true":
            feasible.add((float(fields[0]), float(fields[1])))
    expected = {(0, 0), (0, 0.5), (0.5, 0), (0.5, 0.5), (0, 1), (1, 0)}
    _report(9, feasible == expected, f"step-0.5 feasible set {sorted(feasible)}")


def _cerf_gap(s0: Fraction, s1: Fraction):
    """(a b, (1/2 - a - b)) with a = 1 - F0 = (1 - s0)/2 and b = 1 - F1: Cerf's sqrt(ab) >= 1/2 - a - b, exact."""
    a, b = (1 - s0) / 2, (1 - s1) / 2
    return a * b, Fraction(1, 2) - a - b


def _cerf_holds(s0: Fraction, s1: Fraction) -> bool:
    product, bound = _cerf_gap(s0, s1)
    return bound <= 0 or product >= bound * bound


def test_criterion_10_feasible_pairs_are_those_no_cloner_can_beat():
    # Cerf's no-cloning inequality (PRL 84, 4497 (2000)), decided in rationals, against feasibility's flag: the
    # network reaches exactly the pairs the inequality allows, and the boundary's three named points meet it with
    # equality, so the region is the optimal one
    grid = [Fraction(k, 60) for k in range(61)]
    disagree = [(s0, s1) for s0 in grid for s1 in grid if _cerf_holds(s0, s1) != feasibility(s0, s1).feasible]
    corners = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)), (Fraction(2, 3), Fraction(2, 3))]
    equal = all(product == bound * bound for product, bound in (_cerf_gap(s0, s1) for s0, s1 in corners))
    allowed = sum(_cerf_holds(s0, s1) for s0 in grid for s1 in grid)
    _report(10, not disagree and equal, f"61 x 61 grid: {allowed} pairs allowed, disagreements {disagree[:3]}")
