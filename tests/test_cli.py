import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from asymclone import cli, cloner, pauli, qstate
from asymclone.cli import CSV_HEADER, main
from asymclone.cloner import clone_batch, feasibility, probe_states, solve_prep
from asymclone.gates import apply_circuit, apply_cnot, apply_hadamard, apply_ry, apply_rz, prepare_two_qubit
from asymclone.qstate import (
    basis_state,
    bloch_vector,
    from_bloch,
    overlap,
    partial_trace,
    random_state,
    reorder,
    tensor,
    to_density,
)


def run_cli(*argv):
    """Invoke main() capturing output; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_solve_text_output():
    code, out, _ = run_cli("solve", "1", "0")
    assert code == 0
    assert "c1 = 0.707106781187" in out
    assert "margin = 0.0" in out


def test_solve_json_output():
    code, out, _ = run_cli("solve", "2/3", "2/3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["feasible"] is True
    assert payload["c1"] == pytest.approx(np.sqrt(2 / 3), abs=1e-9)
    assert payload["c2"] == pytest.approx(1 / np.sqrt(6), abs=1e-9)
    amps = [complex(re, im) for re, im in payload["amplitudes"]]
    assert amps[2] == 0
    # emitted JSON survives a parse/serialize cycle unchanged
    assert json.loads(json.dumps(payload)) == payload


def test_solve_infeasible_exits_2_with_margin():
    code, out, _ = run_cli("solve", "0.9", "0.9")
    assert code == 2
    assert "0.63" in out
    code, out, _ = run_cli("solve", "0.9", "0.9", "--format", "json")
    assert code == 2
    payload = json.loads(out)
    assert payload["feasible"] is False
    assert payload["margin"] == pytest.approx(0.63)


def test_solve_near_symmetric_decimal_is_infeasible():
    # 0.6667 overshoots the boundary; exact thirds stay inside
    code, _, _ = run_cli("solve", "0.6667", "0.6667")
    assert code == 2
    code, _, _ = run_cli("solve", "2/3", "2/3")
    assert code == 0


def test_solve_rejects_malformed_number():
    code, _, err = run_cli("solve", "abc", "0.5")
    assert code == 1
    assert "not a real number" in err


def test_solve_rejects_non_finite_numbers():
    for argv in (("solve", "nan", "0.5"), ("solve", "--", "0.5", "-inf")):
        code, _, err = run_cli(*argv)
        assert code == 1
        assert "not a real number" in err
        assert "Traceback" not in err


def test_solve_corner_pair_on_the_boundary():
    # margin 0.0, but the phase cosine rounds above 1 there
    code, out, _ = run_cli("solve", "2.467399070893439e-06", "0.999999999993912")
    assert code == 0
    assert "theta2 = 0.0" in out


def test_solve_out_of_range_exits_2():
    code, _, _ = run_cli("solve", "1.5", "0")
    assert code == 2


def test_clone_identity_channel():
    code, out, _ = run_cli("clone", "--state", "0", "--s0", "1", "--s1", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["rho_a0"] == [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    assert payload["rho_a1"][0][0][0] == pytest.approx(0.5)
    assert payload["fidelity0"] == pytest.approx(1.0)
    assert payload["joint_labels"] == ["a0", "a1", "b1"]


def test_clone_swap_channel_on_plus_state():
    code, out, _ = run_cli("clone", "--state", "+", "--s0", "0", "--s1", "1")
    assert code == 0
    payload = json.loads(out)
    rho_a1 = np.array([[complex(*z) for z in row] for row in payload["rho_a1"]])
    assert np.allclose(rho_a1, 0.5 * np.ones((2, 2)), atol=1e-9)


def test_clone_symmetric_channel_estimates():
    code, out, _ = run_cli("clone", "--state", "0", "--s0", "2/3", "--s1", "2/3")
    assert code == 0
    payload = json.loads(out)
    assert payload["s0_est"] == pytest.approx(2 / 3, abs=1e-9)
    assert payload["rho_a0"][0][0][0] == pytest.approx(5 / 6, abs=1e-9)
    assert payload["rho_a0"][1][1][0] == pytest.approx(1 / 6, abs=1e-9)


def test_clone_accepts_dash_leading_named_state():
    code, out, _ = run_cli("clone", "--state=-i", "--s0", "1", "--s1", "0")
    assert code == 0
    assert json.loads(out)["fidelity0"] == pytest.approx(1.0)


def test_clone_accepts_bloch_angles():
    theta = float(np.pi / 2)
    code, out, _ = run_cli("clone", "--state", f"{theta},0", "--s0", "1", "--s1", "0")
    assert code == 0
    payload = json.loads(out)
    rho_a0 = np.array([[complex(*z) for z in row] for row in payload["rho_a0"]])
    assert np.allclose(rho_a0, 0.5 * np.ones((2, 2)), atol=1e-9)


def test_clone_normalizes_amplitude_specs():
    code, out, _ = run_cli("clone", "--state", "3,0,4,0", "--s0", "1", "--s1", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["input"][0][0] == pytest.approx(0.6)
    assert payload["input"][1][0] == pytest.approx(0.8)


def test_clone_state_spec_errors():
    code, _, err = run_cli("clone", "--state", "1,2,3", "--s0", "1", "--s1", "0")
    assert code == 1
    assert "bad state spec" in err
    code, _, err = run_cli("clone", "--state", "0,0,0,0", "--s0", "1", "--s1", "0")
    assert code == 1
    assert "zero norm" in err


def test_clone_infeasible_exits_2():
    code, out, _ = run_cli("clone", "--state", "0", "--s0", "0.6667", "--s1", "0.6667")
    assert code == 2
    assert json.loads(out)["feasible"] is False


def test_clone_requires_flags():
    code, _, _ = run_cli("clone", "--state", "0", "--s0", "1")
    assert code == 1


def test_sweep_step_half_matches_hand_evaluation():
    code, out, _ = run_cli("sweep", "--step", "0.5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 10
    feasible = set()
    for line in lines[1:]:
        fields = line.split(",")
        if fields[2] == "true":
            feasible.add((float(fields[0]), float(fields[1])))
        else:
            assert fields[4:] == [""] * 8
    assert feasible == {(0, 0), (0, 0.5), (0, 1), (0.5, 0), (0.5, 0.5), (1, 0)}


def test_sweep_is_byte_deterministic():
    first = run_cli("sweep", "--step", "0.25")
    second = run_cli("sweep", "--step", "0.25")
    assert first == second


def test_sweep_third_step_hits_the_boundary_point():
    code, out, _ = run_cli("sweep", "--step", "1/3")
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    symmetric = [r for r in rows if r[0] == r[1] and abs(float(r[0]) - 2 / 3) < 1e-9]
    assert len(symmetric) == 1
    assert symmetric[0][2] == "true"
    assert abs(float(symmetric[0][3])) < 1e-10


def test_sweep_feasible_rows_meet_row_invariants():
    code, out, _ = run_cli("sweep", "--step", "0.25")
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        fields = line.split(",")
        if fields[2] != "true":
            continue
        s0, s1 = float(fields[0]), float(fields[1])
        fidelity0, fidelity1 = float(fields[9]), float(fields[10])
        assert fidelity0 == pytest.approx(0.5 * (1 + s0), abs=1e-8)
        assert fidelity1 == pytest.approx(0.5 * (1 + s1), abs=1e-8)
        assert float(fields[11]) < 1e-8


def test_sweep_writes_to_file(tmp_path):
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli("sweep", "--step", "0.5", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith(CSV_HEADER)


def test_sweep_rejects_bad_step_and_path(tmp_path):
    code, _, err = run_cli("sweep", "--step", "0.6")
    assert code == 1
    assert "step" in err
    code, _, _ = run_cli("sweep", "--step", "0")
    assert code == 1
    code, _, err = run_cli("sweep", "--step", "0.5", "--out", str(tmp_path / "no" / "dir.csv"))
    assert code == 1
    assert "cannot write" in err


def test_sweep_grid_fraction_tracks_region_area():
    # 314 of 441 grid points at step 0.05 lie in the region; the area of the
    # region itself is 0.7364 of the unit square (Monte Carlo, 1e6 samples)
    code, out, _ = run_cli("sweep", "--step", "0.05")
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 441
    feasible = sum(row.split(",")[2] == "true" for row in rows)
    assert feasible == 314
    assert abs(feasible / 441 - 0.7364) < 0.05


def test_pauli_unit_vector():
    code, out, _ = run_cli("pauli", "1", "0", "0", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["diagonal"][0] == [1.0, 0.0]
    assert payload["max_offdiagonal"] < 1e-10
    assert payload["bell_order"] == ["phi_plus", "phi_minus", "psi_plus", "psi_minus"]


def test_pauli_uniform_vector():
    code, out, _ = run_cli("pauli", "0.5", "0.5", "0.5", "0.5")
    assert code == 0
    payload = json.loads(out)
    for entry in payload["diagonal"]:
        assert entry[0] == pytest.approx(0.5, abs=1e-9)


def test_pauli_accepts_complex_literals():
    code, out, _ = run_cli("pauli", "0", "0,1", "0", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["diagonal"][1] == pytest.approx([0.0, 1.0], abs=1e-9)


def test_pauli_renormalizes_with_warning():
    code, out, err = run_cli("pauli", "1", "1", "0", "0")
    assert code == 0
    assert "renormalizing" in err
    payload = json.loads(out)
    assert payload["diagonal"][0][0] == pytest.approx(1 / np.sqrt(2), abs=1e-9)


def test_pauli_rejects_bad_literals_and_zero_norm():
    code, _, err = run_cli("pauli", "x", "0", "0", "0")
    assert code == 1
    assert "bad complex literal" in err
    code, _, err = run_cli("pauli", "0", "0", "0", "0")
    assert code == 1
    assert "zero norm" in err


def test_non_finite_state_and_coefficients_exit_1():
    for argv in (
        ("clone", "--state", "nan,0", "--s0", "0.5", "--s1", "0.5"),
        ("pauli", "nan", "0", "0", "0"),
        ("pauli", "0.3,nan", "0", "0", "0"),
    ):
        code, out, err = run_cli(*argv)
        assert code == 1, argv
        assert out == ""
        assert "Traceback" not in err


def test_verify_small_run_passes():
    code, out, _ = run_cli("verify", "--seed", "7", "--trials", "5")
    assert code == 0
    assert "suite state-algebra:" in out
    assert "suite gates:" in out
    assert "suite cloner:" in out
    assert "suite pauli:" in out
    assert "0 failures" in out.strip().split("\n")[-1]


def test_verify_is_deterministic():
    first = run_cli("verify", "--seed", "7", "--trials", "5")
    second = run_cli("verify", "--seed", "7", "--trials", "5")
    assert first == second


def test_verify_rejects_nonpositive_trials():
    for argv, message in (
        (("verify", "--trials", "0"), "at least 1"),
        (("verify", "--seed", "-1", "--trials", "1"), "verify: seed must be non-negative\n"),
        (("verify", "--trials", "100001"), "verify: trials must be at most 100000\n"),
    ):
        code, out, err = run_cli(*argv)
        assert (code, out) == (1, ""), argv
        assert message in err


def test_usage_errors_exit_1():
    code, _, _ = run_cli()
    assert code == 1
    code, _, _ = run_cli("frobnicate")
    assert code == 1
    code, _, _ = run_cli("solve", "0.5")
    assert code == 1


def test_stdout_is_byte_identical_to_the_reference():
    # sha256 of the reference outputs; a change here changes what users see
    expected = {
        ("sweep", "--step", "1/10"): "18574f6685fca2853cde195ff5f18b91ca025ea19b6eab6d69f03df731924116",
        ("verify", "--seed", "42", "--trials", "200"): (
            "04850bdf5f5794dcc8e92ce5d4b7609f80dbbd86b9138297425373ab064442e7"
        ),
        ("verify", "--seed", "42", "--trials", "1000"): (
            "8fd991a47a4fbefe28a4a90e6e5fa00bfb23d54c95133d7fe0585cfcc76dd655"
        ),
        # generic inputs print round-off noise that axis probes alone miss
        ("sweep", "--step", "0.05"): "24d216ab8a2130ddf9cc8fcee2582f579b569a10c83eac442f3c02160ee8f4f0",
        ("clone", "--state=1,0.5,-0.3,0.2", "--s0", "0.3", "--s1", "0.5"): (
            "ecd0a51001a4154023d9df7318749374de41d2ee7a24c06ee54bdae9ab85a101"
        ),
        ("clone", "--state=0.7,2.1", "--s0", "0.9", "--s1", "0.2"): (
            "e73d2c90efb81d70e66f490f3ffef8959cdb63c96caab2563b625ce0e2ab7524"
        ),
        # complex Bell coefficients print the network's off-diagonal round-off
        ("pauli", "0.3", "0.4", "0.1,0.5", "0.2"): (
            "ca9e8e21ff78c60b3bca917b2c5ff5566f76a24b0ca11087c78c86e30803deff"
        ),
        ("pauli", "0.3", "0.4,0.1", "0.5", "0.2"): (
            "98984a1bf0614417499e939affff12be8fbd9dc66eb3b3d6bc6bce200f6c2ecd"
        ),
        ("solve", "0.8", "0.4"): "121d0cd79a45924425386b50cb7b8623c6a3f562583b2ad9a7894bb915013ad3",
        ("solve", "0.8", "0.4", "--format", "json"): (
            "bfd6d84019c26155deb6d5c9a5e8e8c339e5210a375197c19638ef644f074f35"
        ),
    }
    for argv, digest in expected.items():
        code, out, _ = run_cli(*argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def test_verify_counts_nan_errors_as_failures(monkeypatch):
    monkeypatch.setattr(
        "asymclone.cli.overlap_rows",
        lambda a, b: np.full(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]), complex("nan")),
    )
    code, out, _ = run_cli("verify", "--trials", "3")
    assert code == 1
    assert "suite state-algebra: 15 checks, 3 failures" in out
    assert "suite gates: 12 checks, 3 failures" in out
    assert "verify: 51 checks, 6 failures" in out


def test_non_finite_margin_is_null_in_json():
    for argv in (
        ("solve", "--format", "json", "--", "1e200", "-1e200"),
        ("solve", "1e200", "0", "--format", "json"),
        ("clone", "--state", "0", "--s0", "1e308", "--s1", "1e308"),
    ):
        code, out, _ = run_cli(*argv)
        assert code == 2, argv
        payload = _strict_json(out)
        assert payload["feasible"] is False
        assert payload["margin"] is None


def test_non_finite_margin_is_null_in_text():
    for argv in (("solve", "1e200", "0"), ("solve", "--", "1e200", "-1e200")):
        code, out, _ = run_cli(*argv)
        assert code == 2, argv
        assert "margin = null (scaling factors must lie in [0, 1])" in out


def test_large_coefficients_renormalize():
    code, out, err = run_cli("pauli", "1e200", "0", "0", "0")
    assert code == 0
    assert err == "pauli: renormalizing input of norm 1e+200\n"
    assert _strict_json(out)["diagonal"][0] == [1.0, 0.0]
    code, out, err = run_cli("clone", "--state", "1e308,0,1e308,0", "--s0", "2/3", "--s1", "2/3")
    assert code == 0
    assert err == ""
    assert _strict_json(out)["input"][0][0] == pytest.approx(1 / np.sqrt(2))


def test_norm_past_the_float_range_exits_1():
    code, out, err = run_cli("pauli", "1e308", "1e308", "1e308", "1e308")
    assert (code, out) == (1, "")
    assert err == "pauli: coefficients have a norm past the float range\n"
    code, out, err = run_cli("clone", "--state", "1e308,1e308,1e308,1e308", "--s0", "1", "--s1", "0")
    assert (code, out) == (1, "")
    assert "has a norm past the float range" in err


def test_sweep_rejects_steps_below_the_grid_bound():
    # 0.001, the smallest accepted step, builds a 1001 x 1001 grid and is not run here
    for step in ("1e-300", "0.0009"):
        code, out, err = run_cli("sweep", "--step", step)
        assert (code, out) == (1, "")
        assert "step must lie in [0.001, 0.5]" in err


def _run_cleanly(argv):
    """run_cli, asserting an exit code in 0..2, no traceback or warning, and no NaN/inf in stdout."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(*argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not re.search(r"\b(nan|inf)\b", out, re.IGNORECASE)
    return code, out, err


def test_number_arguments_always_end_cleanly():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    number = st.one_of(
        st.floats().map(repr),
        st.sampled_from(
            ["nan", "-inf", "1e308", "-1e308", "1e200", "1e-300", "5e-324", "2/3", "1/0", "1e308/1e-308"]
        ),
    )
    state = st.one_of(
        st.lists(number, min_size=2, max_size=2), st.lists(number, min_size=4, max_size=4)
    ).map(",".join)
    literal = st.one_of(number, st.tuples(number, number).map(",".join))
    argv = st.one_of(
        st.tuples(number, number).map(lambda p: ("solve", "--", *p)),
        st.tuples(number, number).map(lambda p: ("solve", "--format", "json", "--", *p)),
        st.tuples(state, number, number).map(
            lambda p: ("clone", f"--state={p[0]}", f"--s0={p[1]}", f"--s1={p[2]}")
        ),
        st.tuples(literal, literal, literal, literal).map(lambda p: ("pauli", "--", *p)),
    )

    @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @hypothesis.given(argv)
    def check(argv):
        _, out, _ = _run_cleanly(argv)
        if out and (argv[0] != "solve" or "json" in argv):
            _strict_json(out)

    check()


def test_sweep_and_verify_arguments_always_end_cleanly():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # valid steps below 0.1 build grids too large for a unit test
    step = st.one_of(
        st.floats(0.1, 0.5).map(repr),
        st.floats().filter(lambda x: not 0.001 <= x < 0.1).map(repr),
        st.sampled_from(["nan", "-inf", "1/0", "1/3", "1/10", "0", "-0.0", "1e-300", "0.5000001", "x"]),
    )
    count = st.one_of(st.integers(-2, 2).map(str), st.sampled_from(["1.5", "nan", ""]))
    seed = st.one_of(st.integers(-2, 2).map(str), st.integers().map(str), st.sampled_from([str(2**200), "1e3", "x"]))
    argv = st.one_of(
        step.map(lambda s: ("sweep", f"--step={s}")),
        st.tuples(seed, count).map(lambda p: ("verify", f"--seed={p[0]}", f"--trials={p[1]}")),
    )

    @hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @hypothesis.given(argv)
    def check(argv):
        code, out, _ = _run_cleanly(argv)
        if code == 0 and argv[0] == "sweep":
            assert out.startswith(CSV_HEADER + "\n")

    check()


def _sweep_rows_one_call_per_row(step):
    """sweep_rows with one clone_batch call on the six probes per feasible row."""
    probes = np.array([p.amplitudes for p in probe_states()])
    num = cli._csv_num
    rows = []
    for s0 in cli._sweep_values(step):
        for s1 in cli._sweep_values(step):
            pair = feasibility(s0, s1)
            lead = [num(s0), num(s1), "true" if pair.feasible else "false", num(pair.margin)]
            if not pair.feasible:
                rows.append(",".join(lead + [""] * 8))
                continue
            prep = solve_prep(pair)
            batch = clone_batch(probes, prep.as_amplitudes)
            fidelity0, fidelity1 = batch.fidelity[0]
            columns = (prep.c1, prep.c2, prep.c4, prep.theta2, prep.theta4, fidelity0, fidelity1)
            rows.append(",".join(lead + [num(x) for x in columns] + [num(batch.residual.max())]))
    return rows


@pytest.mark.parametrize("block", [1, 7, 157, 256, 314, 1000])
def test_sweep_blocks_match_one_kernel_call_per_row(monkeypatch, block):
    # step 0.05 has 314 feasible rows: blocks of 157 and 314 leave no partial
    # block, 7 and 256 leave one, and 1000 is never filled
    reference = _sweep_rows_one_call_per_row(0.05)
    assert sum(",true," in row for row in reference) == 314
    monkeypatch.setattr(cli, "_SWEEP_BLOCK", block)
    assert cli.sweep_rows(0.05) == reference


def _run_on_a_fresh_parser(argv):
    """run_cli's (exit code, stdout, stderr) with a newly built parser."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args = cli.build_parser().parse_args(list(argv))
            code = args.func(args)
    except SystemExit as exc:
        code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_kept_parser_answers_like_a_fresh_one():
    rng = random.Random(6)

    def number():
        return rng.choice([f"{rng.random():.4f}", f"{rng.randint(0, 3)}/3", "-0.5", "2", "x", "nan", "1/0"])

    def state():
        return rng.choice(["0", "+i", "-", "1,2", "0.3,0.1,-0.2,0.4", "0,0,0,0", "zz", "nan,1"])

    makers = [
        lambda: ["solve", number(), number()],
        lambda: ["solve", number(), number(), "--format", rng.choice(["text", "json", "xml"])],
        lambda: ["clone", f"--state={state()}", "--s0", number(), "--s1", number()],
        lambda: ["clone", "--s0", number(), "--s1", number()],
        lambda: ["pauli", "--"] + [rng.choice(["1", "0", "0.5,0.5", "2,-1", "x", "nan"]) for _ in range(4)],
        lambda: ["sweep", "--step", rng.choice(["0.5", "1/3", "0.25", "0.0001", "x"])],
        lambda: ["verify", "--trials", rng.choice(["1", "2", "0", "x"]), "--seed", rng.choice(["3", "-1"])],
        lambda: rng.choice([["-h"], ["solve", "-h"], ["sweep", "--help"], [], ["bogus"], ["solve", "1"]]),
    ]
    codes = set()
    for _ in range(300):
        argv = rng.choice(makers)()
        kept = run_cli(*argv)
        assert kept == _run_on_a_fresh_parser(argv), argv
        codes.add(kept[0])
    assert codes == {0, 1, 2}


# verify's suites one trial at a time on the object API, as they ran before
# the stacked passes: the reference for their draws and their errors


def _trial_state_algebra(rng):
    single = random_state(("q0",), rng)
    double = random_state(("q1", "q2"), rng)
    joint = tensor(single, double)
    yield abs(float(np.linalg.norm(joint.amplitudes)) - 1.0), qstate.ROUNDOFF_TOL
    back = reorder(reorder(joint, ("q2", "q0", "q1")), joint.labels)
    yield float(np.max(np.abs(back.amplitudes - joint.amplitudes))), qstate.ROUNDOFF_TOL
    yield abs(abs(overlap(joint, back)) - 1.0), qstate.ROUNDOFF_TOL
    rho = to_density(single)
    rebuilt = from_bloch(bloch_vector(rho), "q0")
    yield float(np.max(np.abs(rebuilt.entries - rho.entries))), qstate.ROUNDOFF_TOL
    reduced = partial_trace(to_density(joint), ["q0", "q2"])
    yield float(reduced.labels != ("q0", "q2")), 0.0


def _trial_gates(rng):
    psi = random_state(("x", "y", "z"), rng)
    twice = apply_cnot(apply_cnot(psi, "x", "z"), "x", "z")
    yield float(np.max(np.abs(twice.amplitudes - psi.amplitudes))), qstate.ROUNDOFF_TOL
    squared = apply_hadamard(apply_hadamard(psi, "y"), "y")
    yield float(np.max(np.abs(squared.amplitudes - psi.amplitudes))), qstate.ROUNDOFF_TOL
    rotated = apply_ry(psi, "x", float(rng.uniform(-np.pi, np.pi)))
    rotated = apply_rz(rotated, "z", float(rng.uniform(-np.pi, np.pi)))
    yield abs(float(np.linalg.norm(rotated.amplitudes)) - 1.0), qstate.ROUNDOFF_TOL
    raw = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    target, circuit = prepare_two_qubit(raw / np.linalg.norm(raw))
    built = apply_circuit(basis_state("00", ("a1", "b1")), circuit)
    yield abs(abs(overlap(target, built)) - 1.0), qstate.ACCUMULATED_TOL


def _trial_cloner(rng):
    while True:
        s0, s1 = rng.uniform(0.0, 1.0, size=2)
        pair = cloner.feasibility(float(s0), float(s1))
        if pair.feasible:
            break
    prep = cloner.solve_prep(pair)
    inputs = [random_state(("a0",), rng).amplitudes for _ in range(2)]
    batch = cloner.clone_batch(np.array(inputs), prep.as_amplitudes)
    target = np.array([pair.s0, pair.s1])
    for k in range(2):
        yield float(np.max([batch.residual[k], batch.isotropy[k]])), qstate.ESTIMATE_TOL
        yield float(np.max(np.abs(batch.s_est[k] - target))), qstate.ESTIMATE_TOL
        yield float(np.max(np.abs(batch.fidelity[k] - 0.5 * (1.0 + batch.s_est[k])))), qstate.ESTIMATE_TOL


def _trial_pauli(rng):
    raw = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    raw = raw / np.linalg.norm(raw)
    matrix, max_off = pauli.bell_output(pauli.BellCoefficients(*raw))
    yield max_off, pauli.BELL_DIAGONAL_TOL
    yield float(np.max(np.abs(np.diag(matrix) - raw))), qstate.ACCUMULATED_TOL


_TRIALS = {
    "state-algebra": _trial_state_algebra,
    "gates": _trial_gates,
    "cloner": _trial_cloner,
    "pauli": _trial_pauli,
}


def _replayed_draws(name, rng, n):
    """The random inputs of n trials, drawn with the per-trial calls the reference makes."""
    if name == "state-algebra":
        draws = [
            (random_state(("q0",), rng).amplitudes, random_state(("q1", "q2"), rng).amplitudes) for _ in range(n)
        ]
    elif name == "gates":
        draws = []
        for _ in range(n):
            psi = random_state(("x", "y", "z"), rng).amplitudes
            angles = [float(rng.uniform(-np.pi, np.pi)) for _ in range(2)]
            raw = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            draws.append((psi, angles, raw / np.linalg.norm(raw)))
    elif name == "cloner":
        draws = []
        for _ in range(n):
            while True:
                s0, s1 = rng.uniform(0.0, 1.0, size=2)
                if feasibility(float(s0), float(s1)).feasible:
                    break
            draws.append(([s0, s1], [random_state(("a0",), rng).amplitudes for _ in range(2)]))
    else:
        draws = []
        for _ in range(n):
            raw = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            draws.append((raw / np.linalg.norm(raw),))
    return [np.array(column) for column in zip(*draws)]


@pytest.mark.parametrize("name, draw", [(name, draw) for name, draw, _ in cli._SUITES])
def test_stacked_draws_replay_the_per_trial_calls(name, draw):
    rng, replay = np.random.default_rng(47), np.random.default_rng(47)
    for n in (1, 5, 30):
        stacked = draw(rng, n)
        if name == "cloner":
            stacked = ([[pair.s0, pair.s1] for pair in stacked[0]], stacked[1])
        for got, want in zip(stacked, _replayed_draws(name, replay, n), strict=True):
            assert np.array_equal(got, want), name
    # the generators end in the same state
    assert rng.standard_normal() == replay.standard_normal()


@pytest.mark.parametrize("chunk", [1, 7, 40, 64])
def test_verify_chunks_match_one_trial_at_a_time(monkeypatch, chunk):
    # 40 trials: chunks of 1 and 40 leave no partial chunk, 7 leaves one,
    # and 64 is never filled
    trials, seed = 40, 48
    whole = run_cli("verify", "--seed", str(seed), "--trials", str(trials))
    monkeypatch.setattr(cli, "_VERIFY_CHUNK", chunk)
    assert run_cli("verify", "--seed", str(seed), "--trials", str(trials)) == whole
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    for name, draw, check in cli._SUITES:
        want = [list(_TRIALS[name](reference)) for _ in range(trials)]
        per_check = len(want[0])
        pieces = list(cli._suite_errors(rng, trials, draw, check))
        assert len(pieces) == per_check * -(-trials // chunk), name
        got = [
            np.stack([errors for errors, _ in pieces[start : start + per_check]], axis=1)
            for start in range(0, len(pieces), per_check)
        ]
        assert np.array_equal(np.concatenate(got), [[err for err, _ in trial] for trial in want]), name
        assert [tol for _, tol in pieces[:per_check]] == [tol for _, tol in want[0]], name


def test_sweep_writes_each_block_as_the_kernel_completes_it(monkeypatch):
    kernel_calls, writes = [], []
    real = cloner.clone_batch
    monkeypatch.setattr(cloner, "clone_batch", lambda *args: kernel_calls.append(1) or real(*args))
    # step 0.05 has 314 feasible rows: 45 blocks of 7, the last one partial
    monkeypatch.setattr(cli, "_SWEEP_BLOCK", 7)

    class Sink(io.StringIO):
        def write(self, text):
            writes.append(len(kernel_calls))
            return super().write(text)

    sink = Sink()
    with redirect_stdout(sink):
        assert main(["sweep", "--step", "0.05"]) == 0
    assert writes == list(range(46))
    assert sink.getvalue() == "\n".join([CSV_HEADER] + cli.sweep_rows(0.05)) + "\n"


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize(
    "argv, lines",
    [(["sweep", "--step", "0.01"], 1), (["pauli", "1", "0", "0", "0"], 0)],
)
def test_a_reader_closing_early_gets_no_traceback(argv, lines, unbuffered):
    # the sweep writes ~1 MB, far past any pipe buffer, after the reader
    # left; pauli's reader closes before the child has imported numpy, and
    # with stdout buffered its output reaches the pipe only at the flush
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    child = subprocess.Popen(
        [sys.executable, "-m", "asymclone.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    for _ in range(lines):
        child.stdout.readline()
    child.stdout.close()
    _, err = child.communicate(timeout=60)
    text = err.decode()
    assert child.returncode == 1, text
    assert "Traceback" not in text and "Exception ignored" not in text
    assert text.count("\n") <= 1
