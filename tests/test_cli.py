import argparse
import functools
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import types
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from asymclone import cli, cloner, pauli, qstate
from asymclone.cli import CSV_HEADER, main
from asymclone.cloner import clone_batch, feasibility, solve_prep
from asymclone.gates import apply_circuit, apply_cnot, apply_hadamard, apply_ry, apply_rz, prepare_two_qubit
from asymclone.qstate import (
    _NAMED_AMPLITUDES,
    DensityMatrix,
    StateVector,
    basis_state,
    bloch_vector,
    from_bloch_rows,
    overlap,
    partial_trace,
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
            "e6997a4a2b977c3df8839bf1407424afb2213d553a940f072983b0c7f8f7805e"
        ),
        ("clone", "--state=0.7,2.1", "--s0", "0.9", "--s1", "0.2"): (
            "d835222030e8fb75617852539cd36b282b3e180a82339ca94a7398c62323b2b3"
        ),
        # complex Bell coefficients print the network's off-diagonal round-off
        ("pauli", "0.3", "0.4", "0.1,0.5", "0.2"): (
            "28e0c1b4e5787e439d1f2680c6f72675b152f8547e5a98a075ceba3e0a4684a3"
        ),
        ("pauli", "0.3", "0.4,0.1", "0.5", "0.2"): (
            "42e64a757e4d59652c88276c2ac00209b4028e2edaa587d5f945a16061279122"
        ),
        ("solve", "0.8", "0.4"): "121d0cd79a45924425386b50cb7b8623c6a3f562583b2ad9a7894bb915013ad3",
        ("solve", "0.8", "0.4", "--format", "json"): (
            "bfd6d84019c26155deb6d5c9a5e8e8c339e5210a375197c19638ef644f074f35"
        ),
        # the infeasible JSON with its reason, from solve and from clone
        ("solve", "0.9", "0.9", "--format", "json"): (
            "1d49e362c294a3933e61e91d786158b54c85422c206f2276bbf08ea71f5c95cb"
        ),
        ("clone", "--state=0", "--s0", "0.9", "--s1", "0.9"): (
            "1d49e362c294a3933e61e91d786158b54c85422c206f2276bbf08ea71f5c95cb"
        ),
        # renormalized from coefficients near the float range
        ("pauli", "1e300", "1e300", "0", "0"): (
            "5beabf5e010528c7e773eb2ace849743d9ea502727add27109d24598bc8e4f75"
        ),
        # each kind of token _rounded rewrites: integral, e-3xx and -0
        ("pauli", "1", "0", "0", "0"): "10a0cf10715b6d35610854ff0f31caba56936ff2314353d35c3597a3f306ac6f",
        ("pauli", "1", "1", "1", "0"): "cfaf8d8c71e47a3abf98131588a46c73443c0befb5ddf589f714c21ffc082935",
        ("pauli", "0", "1e-320", "1", "0.5"): "baf3b1131c90c40bd69e9af3478328345d854efc696a15de478130926fcd283b",
        # a boundary pair on an input with an imaginary amplitude
        ("clone", "--state=+i", "--s0", "1", "--s1", "0"): (
            "24b3bb5f8eee342e66217b7f23b273a6b953e03555b913024265661b210f2971"
        ),
        # grids solved in blocks of whole s0 rows: one block at step 1/3 (the
        # corners and (2/3, 2/3) on the margin's zero), 1/14, 1/21, 1/22 and
        # 1/31, the largest one-block grid; two blocks at 1/32; 6 blocks at
        # 0.013
        ("sweep", "--step", "1/14"): "5bd8394a0b905efd77b9c34ace26e968caef60b090dd4d3b993cc2da57ec8881",
        ("sweep", "--step", "1/3"): "2fa85fa9d8065b07811fabe34988a602462c16084cb2d2f6ee5cc24ae0d9bf1a",
        ("sweep", "--step", "0.013"): "de2accfd0621b744ba14d56596d4305eb5a43838d8a982b47090b6aa00558cdd",
        ("sweep", "--step", "1/21"): "1a645a05155bbb526164f3b0e13f7f3355a1d5add5c63987a8574650f64fea20",
        ("sweep", "--step", "1/22"): "5b2c21ebcf6035ee6460b05432e75ef75ae6d09f9be198d37200a526c58f964c",
        ("sweep", "--step", "1/31"): "506fa2afe38263f34a87bb43cf1180e62e0b347d7c420e08c4ab44452f66e8af",
        ("sweep", "--step", "1/32"): "67e0bf770de02141de5a9dc356f154311dc0cbe9b324646a0180d75f6a280813",
        # the solve report at its edges: theta2 = theta4 carry the arccos
        # rounding on the margin's zero; free phases with c2 = 0 and c4 = 0;
        # a corner with c1 = 0 as JSON
        ("solve", "2/3", "2/3"): "cf8e5dfb0653edc84c5356a8478fe92cdab9bf829ba9374b58f784cd378f611f",
        ("solve", "1", "0"): "7e68f023209c6ef724c1ec7884ff3cf614c4eab9e42d9c664317dac87bb6aa42",
        ("solve", "0", "1"): "bf031cb2b88a40b6b11a2543f576b522e0ec1a8972aba09d1bbe973b420388ae",
        ("solve", "0", "0", "--format", "json"): (
            "c8885514d63cae9ab0432cbd51e74d9d895c05d4bc0f0470dfb9adda7376207c"
        ),
        # the infeasible JSON with a null margin, and with the out-of-range reason
        ("solve", "--format", "json", "--", "1e200", "-1e200"): (
            "f55b16d85dcc5f46e6b9ba18fd11e3bf0feb8d5f65d5d21fa7e02999c0044387"
        ),
        ("solve", "1.5", "0", "--format", "json"): (
            "565d9682e5d6135019a9d6f5fddf9d63db1d59f872d667240adcfb04d7c7e172"
        ),
    }
    infeasible = {
        ("solve", "0.9", "0.9", "--format", "json"),
        ("clone", "--state=0", "--s0", "0.9", "--s1", "0.9"),
        ("solve", "--format", "json", "--", "1e200", "-1e200"),
        ("solve", "1.5", "0", "--format", "json"),
    }
    for argv, digest in expected.items():
        code, out, _ = run_cli(*argv)
        assert code == (2 if argv in infeasible else 0), argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def _json_ready(value):
    """value as json.dumps takes it: each number rounded to 12 digits and read back (-0.0 as 0.0), a complex one
    as a [re, im] list."""
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_json_ready(v) for v in value]
    if isinstance(value, complex):
        return [_json_ready(value.real), _json_ready(value.imag)]
    if isinstance(value, str):
        return value
    return float(format(float(value) + 0.0, ".12g"))


def _json_dump(payload: dict) -> str:
    """A report's stdout as json.dumps writes it, a printed line."""
    return json.dumps({key: _json_ready(value) for key, value in payload.items()}, indent=2, allow_nan=False) + "\n"


def _pauli_reference(argv):
    """pauli's stdout as written from BellCoefficients and bell_output, the object path's numbers."""
    coeffs = pauli.BellCoefficients(*cli._unit([cli._parse_complex(text) for text in argv])[0])
    matrix, max_off = pauli.bell_output(coeffs)
    payload = {
        "input": coeffs.as_array(),
        "bell_order": list(pauli.BELL_NAMES),
        "coefficients": matrix,
        "diagonal": np.diag(matrix),
        "max_offdiagonal": max_off,
    }
    return _json_dump(payload)


def test_pauli_prints_the_numbers_of_the_object_path():
    # bell_output_row's sums against the object path's products with the scaled Bell matrix: the same layout,
    # every token with |x| > 1e-12 the object path's text, and every number within 2.2e-16 of it, the round-off
    # the object path's off-diagonals carry (the row's are exactly 0)
    rng = np.random.default_rng(18)
    drawn = [
        [f"{re!r},{im!r}" for re, im in (rng.standard_normal((4, 2)) * scale).tolist()]
        for scale in rng.choice([0.5, 1.0, 2.0], 40)
    ]
    fixed = [["1", "0", "0", "0"], ["1", "1", "1", "0"], ["0", "1e-320", "1", "0.5"], ["1e300", "1e300", "0", "0"]]
    significant = 0
    for argv in fixed + drawn:
        code, out, _ = run_cli("pauli", "--", *argv)
        assert code == 0, argv
        layout, got = _numbers(json.loads(out))
        want_layout, want = _numbers(json.loads(_pauli_reference(argv)))
        assert layout == want_layout, argv
        for x, y in zip(got, want):
            assert abs(x - y) <= 2.2e-16, (argv, x, y)
            if abs(y) > 1e-12:
                significant += 1
                assert repr(x) == repr(y), (argv, x, y)
    assert significant > 900


@pytest.mark.parametrize("argv", [["1", "0", "0", "0"], ["1", "1", "0", "0.5,0.5"], ["1e200", "0", "0", "0"]])
def test_a_pauli_call_expands_its_coefficients_once(monkeypatch, argv):
    # BellCoefficients' rule runs on the one expansion bell_output_row computes, then on its joint; no stack rule runs
    rows, stacks = [], []
    rule = pauli.unit_norm_rule
    monkeypatch.setattr(pauli, "unit_norm_rule", lambda norm_sq: rows.append(norm_sq) or rule(norm_sq))
    monkeypatch.setattr(pauli, "check_unit_norm", lambda amplitudes: stacks.append(amplitudes))
    assert run_cli("pauli", *argv)[0] == 0
    assert len(rows) == 2 and not stacks, (rows, stacks)


def test_a_clone_call_runs_the_kernel_without_run_cloner(monkeypatch):
    calls = []
    real = cloner.run_cloner
    monkeypatch.setattr(cloner, "run_cloner", lambda *args: calls.append(args) or real(*args))
    for state in ("+", "1.2,0.4", "0.3,0.1,-0.2,0.4"):
        assert run_cli("clone", f"--state={state}", "--s0", "0.8", "--s1", "0.5")[0] == 0
    assert calls == []


def _clone_reference(state_text, s0_text, s1_text):
    """clone's stdout as written from run_cloner's CloneBatch, the library wrapper's numbers."""
    state = StateVector(cli._parse_state(state_text), ("a0",))
    pair = feasibility(cli._parse_real(s0_text), cli._parse_real(s1_text))
    out = cloner.run_cloner(state, solve_prep(pair))
    payload = {
        "input": state.amplitudes,
        "s0_target": pair.s0,
        "s1_target": pair.s1,
        "margin": pair.margin,
        "joint_labels": list(cloner.NETWORK_LABELS),
        "joint": out.joint,
        "rho_a0": out.rho[0],
        "rho_a1": out.rho[1],
        "s0_est": out.s_est[0],
        "s1_est": out.s_est[1],
        "residual0": out.residual[0],
        "residual1": out.residual[1],
        "fidelity0": out.fidelity[0],
        "fidelity1": out.fidelity[1],
    }
    return _json_dump(payload)


def _numbers(payload):
    """The numbers of a parsed report in order, with its keys and strings in their places as the layout."""
    if isinstance(payload, dict):
        pairs = [(key, _numbers(value)) for key, value in payload.items()]
        return [key for key, _ in pairs], [number for _, (_, numbers) in pairs for number in numbers]
    if isinstance(payload, list):
        parts = [_numbers(value) for value in payload]
        return [layout for layout, _ in parts], [number for _, numbers in parts for number in numbers]
    return (payload, []) if isinstance(payload, str) else (float, [payload])


def test_clone_prints_the_numbers_of_run_cloner():
    # clone_row's Python arithmetic against the kernel's: every token with |x| > 1e-12 has run_cloner's text,
    # and the round-off tokens (the clones' imaginary diagonals, residual0/1) lie within 4.4e-16 of it
    rng = np.random.default_rng(21)
    states = list(_NAMED_AMPLITUDES)
    states += [f"{theta!r},{phi!r}" for theta, phi in rng.uniform(-7.0, 7.0, (6, 2)).tolist()]
    amplitudes = rng.standard_normal((6, 4)) * rng.choice([1e-3, 1.0, 1e3], (6, 1))
    states += [",".join(map(repr, row)) for row in amplitudes.tolist()]
    pairs = [("1", "0"), ("0", "1"), ("2/3", "2/3")]
    while len(pairs) < 20:
        s0, s1 = rng.uniform(0.0, 1.0, 2).tolist()
        if feasibility(s0, s1).feasible:
            pairs.append((repr(s0), repr(s1)))
    # each of the 18 states on a corner, then 42 drawn (state, pair) combinations
    argvs = [(state, *pairs[k % 3]) for k, state in enumerate(states)]
    picks = zip(rng.integers(0, len(states), 42).tolist(), rng.integers(0, len(pairs), 42).tolist())
    argvs += [(states[i], *pairs[j]) for i, j in picks]
    significant = 0
    for state, s0, s1 in argvs:
        code, out, _ = run_cli("clone", f"--state={state}", "--s0", s0, "--s1", s1)
        assert code == 0, (state, s0, s1)
        layout, got = _numbers(json.loads(out))
        want_layout, want = _numbers(json.loads(_clone_reference(state, s0, s1)))
        assert layout == want_layout, (state, s0, s1)
        for x, y in zip(got, want):
            assert abs(x - y) <= 4.4e-16, (state, s0, s1, x, y)
            if abs(y) > 1e-12:
                significant += 1
                assert repr(x) == repr(y), (state, s0, s1, x, y)
    assert significant > 1000


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


# each with its exit code; from the subnormal clone on, they print a subnormal
# amplitude, integral values, a null margin, e-3xx values and a -0 token
# rewritten; then an infeasible clone and clones at the region's corners; the
# last two are clone inputs normalized past the float range and at huge angles
_JSON_CALLS = [
    (2, "solve 0.9 0.9 --format json"),
    (0, "solve 0.3 0.4 --format json"),
    (0, "clone --state=+ --s0 0.6 --s1 0.5"),
    (0, "clone --state=0.3,0.1,-0.2,0.4 --s0 0.6 --s1 0.5"),
    (0, "pauli 0.3 0.4,0.1 0.5 0.2"),
    (0, "clone --state=1e-320,0,1,0 --s0 0.6 --s1 0.5"),
    (0, "pauli 1 0 0 0"),
    (2, "solve 1e200 0 --format json"),
    (0, "pauli 1 1 1 0"),
    (0, "pauli 0 1e-320 1 0.5"),
    (2, "clone --state=+ --s0 0.9 --s1 0.9"),
    (0, "clone --state=-i --s0 1 --s1 0"),
    (0, "clone --state=0 --s0 0 --s1 1"),
    (0, "clone --state=1.2,0.4 --s0 2/3 --s1 2/3"),
    (0, "solve 0.3 0.4 --format=json"),
    (0, "pauli -- -0.3 0.4,0.1 0.5 0.2"),
    (0, "clone --state=1e308,0,1e308,0 --s0 0.6 --s1 0.5"),
    (0, "clone --state=1e308,1e308 --s0 0.6 --s1 0.5"),
]


@pytest.mark.parametrize("expected, argv", _JSON_CALLS, ids=[argv for _, argv in _JSON_CALLS])
def test_json_commands_print_strict_json(expected, argv):
    code, out, _ = run_cli(*argv.split())
    assert code == expected
    _strict_json(out)


def test_verify_counts_nan_errors_as_failures(monkeypatch):
    # cli reads overlap_rows through its qstate name, so the NaN overlap reaches the suites' own checks alone
    def nan_overlap(a, b):
        return np.full(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]), complex("nan"))

    monkeypatch.setattr(cli, "qstate", types.SimpleNamespace(**{**vars(qstate), "overlap_rows": nan_overlap}))
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


def _solve_text_reference(s0_text, s1_text):
    """solve's text stdout as str.format wrote it from the rounded floats, before the CLI formatted text."""
    pair = feasibility(cli._parse_real(s0_text), cli._parse_real(s1_text))
    r = [float(format(x, ".12g")) + 0.0 for x in (pair.s0, pair.s1, pair.margin)]
    if not pair.feasible:
        margin = r[2] if math.isfinite(pair.margin) else "null"
        return f"infeasible: s0 = {r[0]}, s1 = {r[1]}, margin = {margin} ({pair.reason})\n"
    prep = solve_prep(pair)
    numbers = [prep.c1, prep.theta1, prep.c2, prep.theta2, prep.c4, prep.theta4]
    numbers += prep.as_amplitudes.view(float).tolist()
    template = "s0 = {}  s1 = {}  margin = {}\nc1 = {}  theta1 = {}\nc2 = {}  theta2 = {}\nc4 = {}  theta4 = {}\n"
    template += "amplitudes: " + ", ".join(["{}{:+}j"] * 4) + "\n"
    return template.format(*r, *[float(format(x, ".12g")) + 0.0 for x in numbers])


def test_solve_text_report_matches_the_float_format():
    # amplitudes with +0.0 and negative imaginary parts; -0 inputs give -0.0
    # in s0, s1, c1 and a real part; 1 -1e-13 a margin of -3e-17; then
    # out-of-range and infeasible pairs, two of them with a null margin
    pairs = [("2/3", "2/3"), ("0", "0"), ("1", "0"), ("-0", "-0"), ("-0", "1"), ("1", "-1e-13")]
    pairs += [("0.9", "0.9"), ("1.5", "0"), ("1e200", "0"), ("-1e200", "1e200")]
    rng = random.Random(1707)
    pairs += [(repr(rng.random()), repr(rng.random())) for _ in range(60)]
    pairs += [(f"{rng.randrange(13)}/12", f"{rng.randrange(13)}/12") for _ in range(20)]
    for s0, s1 in pairs:
        code, out, _ = run_cli("solve", "--", s0, s1)
        assert out == _solve_text_reference(s0, s1), (s0, s1)
        assert code == (0 if out.startswith("s0 = ") else 2)
    for s0, s1 in (("1e200", "0"), ("-1e200", "1e200")):
        assert "margin = null (scaling factors must lie in [0, 1])" in run_cli("solve", "--", s0, s1)[1]


def test_solve_and_clone_read_the_preparation_as_python_numbers(monkeypatch):
    # a feasible solve or clone reads PrepState's tuple of Python complex numbers and never builds its ndarray
    real, preps = cloner.solve_prep, []

    def spy(pair):
        preps.append(real(pair))
        return preps[-1]

    monkeypatch.setattr(cloner, "solve_prep", spy)
    clone = ("clone", "--state", "+i", "--s0", "0.4", "--s1", "0.7")
    for argv in (("solve", "0.4", "0.7"), ("solve", "0.4", "0.7", "--format", "json"), clone):
        assert run_cli(*argv)[0] == 0, argv
    assert len(preps) == 3
    for prep in preps:
        assert "as_amplitudes" not in vars(prep)
        assert type(prep.amplitudes) is tuple and [type(z) for z in prep.amplitudes] == [complex] * 4
        with pytest.raises(AttributeError):
            prep.amplitudes = ()
    # the array, built on its first read, holds the tuple's bits
    assert preps[0].as_amplitudes.tobytes() == np.array(preps[0].amplitudes).tobytes()


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


def _unit_or_refused(text):
    """_parse_state's row for text, checked as clone_row checks it, or None where it refuses the spec."""
    try:
        amps = cli._parse_state(text)
    except argparse.ArgumentTypeError:
        return None
    assert type(amps) is list and [type(z) for z in amps] == [complex, complex], text
    qstate.unit_norm_rule(qstate._norm_sq(amps))
    return amps


def test_every_parsed_state_is_unit_to_round_off():
    # the only norm check a clone input meets is clone_row's: each accepted
    # spec must pass it, over the whole exponent range of both numeric forms
    rng = np.random.default_rng(23)
    n = 50_000
    values = np.where(rng.random((2 * n, 4)) < 0.1, 0.0, 10.0 ** rng.uniform(-323.0, 308.25, (2 * n, 4)))
    values *= rng.choice([-1.0, 1.0], values.shape)
    specs = list(_NAMED_AMPLITUDES) + [",".join(map(repr, row[:2])) for row in values[:n].tolist()]
    specs += [",".join(map(repr, row)) for row in values[n:].tolist()]
    rows = [_unit_or_refused(text) for text in specs]
    accepted = np.array([row for row in rows if row is not None])
    norm_error = np.abs((np.abs(accepted) ** 2).sum(axis=-1) - 1.0)
    assert norm_error.max() <= 1e-15
    assert n + 6 < len(accepted) < len(specs)


def test_every_drawn_state_spec_is_unit_or_a_usage_error():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    spec = st.one_of(
        st.sampled_from(list(_NAMED_AMPLITUDES)),
        st.lists(st.floats().map(repr), min_size=1, max_size=5).map(",".join),
    )

    @hypothesis.settings(max_examples=1000, deadline=None, database=None, derandomize=True)
    @hypothesis.given(spec)
    def check(text):
        _unit_or_refused(text)

    check()


def test_a_clone_call_checks_its_input_norm_once(monkeypatch):
    # the unit-norm rule checks PrepState's amplitudes, then clone_row's input, preparation and joint, in that
    # order, and no stack check sees a one-qubit row
    rows, stacks = [], []
    rule, check = qstate.unit_norm_rule, qstate.check_unit_norm

    def recording(amplitudes):
        stacks.append(np.shape(amplitudes))
        return check(amplitudes)

    monkeypatch.setattr(cloner, "unit_norm_rule", lambda norm_sq: rows.append(norm_sq) or rule(norm_sq))
    monkeypatch.setattr(qstate, "check_unit_norm", recording)
    monkeypatch.setattr(cloner, "check_unit_norm", recording)
    for state in ("+", "1.2,0.4", "0.3,0.1,-0.2,0.4"):
        rows.clear()
        stacks.clear()
        assert run_cli("clone", f"--state={state}", "--s0", "0.8", "--s1", "0.5")[0] == 0
        assert len(rows) == 4 and rows[1] == qstate._norm_sq(cli._parse_state(state)), (state, rows)
        assert (2,) not in stacks, (state, stacks)


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


@functools.cache
def _sweep_rows_one_call_per_row(step):
    """sweep_rows with one clone_batch call on the six probes per feasible row."""
    probes = np.array(list(_NAMED_AMPLITUDES.values()), dtype=complex)
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


@pytest.mark.parametrize("points", [1, 7, 14, 24, 157, 256, 314, 1000])
def test_sweep_blocks_match_one_kernel_call_per_row(monkeypatch, points):
    # a block holds max(1, points // n) whole s0 rows of n points: one row at
    # every step for 1 and 7; at step 1/3 (n = 4) 3 rows for 14 and the whole
    # grid from 24 on; at step 1/6 (n = 7) 2 and 3 rows for 14 and 24 and the
    # whole grid from 157 on; at step 0.05 (n = 21) 7, 12 and 14 rows for 157,
    # 256 and 314, the last two with a partial last block, and the whole grid
    # for 1000
    monkeypatch.setattr(cli, "_SWEEP_POINTS", points)
    for step in (0.05, 1 / 3, 1 / 6):
        n = len(cli._sweep_values(step))
        assert len(list(cli._sweep_blocks(step))) == -(-n // max(1, points // n)), step
        assert cli.sweep_rows(step) == _sweep_rows_one_call_per_row(step), step


def test_sweep_block_checks_each_probe_once_and_reads_what_it_prints(monkeypatch):
    # one block at step 1/14: the kernel's density and Bloch-length rules see
    # the three probe projectors (one of each antipodal pair) once and both
    # clones of each probe at each of the block's own feasible points, those
    # with s0 <= s1 or an infeasible mirror (160 feasible, 85 own); the CSV
    # takes probe 0's fidelity, one row an own point, and the kernel computes
    # neither fidelity nor isotropy; the reference runs all six probes
    step = 1 / 14
    grid = np.array(cli._sweep_values(step))
    _, in_range, over = cloner.feasibility_rule(grid[:, None], grid)
    feasible = in_range & ~over
    m = int((feasible & (np.triu(feasible) | ~feasible.T)).sum())
    assert (int(feasible.sum()), m) == (160, 85)
    want = _sweep_rows_one_call_per_row(step)
    seen = {}

    def spy(module, name, count):
        real = getattr(module, name)

        def counted(*args):
            result = real(*args)
            seen.setdefault(name, []).append(count(args, result))
            return result

        monkeypatch.setattr(module, name, counted)

    spy(cloner, "check_density", lambda args, _: args[0].size // 4)
    spy(cloner, "check_bloch_length", lambda args, _: args[0].size // 3)
    spy(qstate, "fidelity_rows", lambda _, result: len(result))
    spy(cloner, "clone_batch", lambda _, batch: batch)
    assert cli.sweep_rows(step) == want
    assert seen["check_density"] == seen["check_bloch_length"] == [3 + 6 * m]
    assert seen["fidelity_rows"] == [m]
    (batch,) = seen["clone_batch"]
    assert "isotropy" not in batch.__dict__ and "fidelity" not in batch.__dict__


@pytest.mark.parametrize("points", [15, 512])
def test_a_point_whose_mirror_is_infeasible_runs_its_own_kernel(monkeypatch, points):
    # no real grid has a feasible point with an infeasible mirror (steps 1/2 to 1/199 and 13 decimal steps from
    # 0.001 to 0.5 were checked), so the flags are patched: (4/14, 9/14) reads infeasible, and (9/14, 4/14),
    # past the diagonal, runs the kernel itself instead of reading its mirror's numbers; one s0 row a block at
    # 15 points, the whole grid at 512
    step = 1 / 14
    # the references before the patch, which their feasibility calls would read
    want, grid = _sweep_rows_one_call_per_row(step), cli._sweep_values(step)
    pairs = [(grid[9], grid[4]), (grid[4], grid[9])]
    own, skipped = [solve_prep(feasibility(*pair)).as_amplitudes.tobytes() for pair in pairs]
    n, real, passed = len(grid), cloner.feasibility_rule, []

    def patched(s0, s1):
        margin, in_range, over = real(s0, s1)
        return margin, in_range, over | ((s0 == grid[4]) & (s1 == grid[9]))

    monkeypatch.setattr(cli, "_SWEEP_POINTS", points)
    monkeypatch.setattr(cloner, "feasibility_rule", patched)
    monkeypatch.setattr(cloner, "clone_batch", lambda probes, preps: passed.append(preps) or clone_batch(probes, preps))
    rows = cli.sweep_rows(step)
    point, mirror = 9 * n + 4, 4 * n + 9
    lead = want[mirror].split(",")[:4]
    assert lead[2] == "true" and rows[mirror] == ",".join(lead[:2] + ["false", lead[3]] + [""] * 8)
    assert rows[:mirror] + rows[mirror + 1 :] == want[:mirror] + want[mirror + 1 :]
    ran = {row.tobytes() for row in np.concatenate(passed)[:, 0]}
    assert own in ran and skipped not in ran
    assert rows[point] == want[point] and len(ran) == 85

def test_template_rows_match_the_per_number_rows():
    # _block_rows formats each distinct number of a block once, after + 0.0 on
    # each; _csv_num, one number at a time, is the reference. Numbers drawn
    # from a small pool repeat across rows and between margins and solved
    # columns, with 0.0 and -0.0 in one block
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    num = cli._csv_num
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2 / 3, 2 / 3], [1.0 + 2**-52, 0.0]])
    margins, _, _ = cloner.feasibility_rule(corners[:, 0], corners[:, 1])
    columns, _ = cloner.solve_rows(corners[:, 0], corners[:, 1])
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300, 1e-300, -1e-300]
    special += margins.tolist() + (-margins).tolist() + columns.ravel().tolist()
    number = st.one_of(st.sampled_from(special), st.floats(allow_nan=False, allow_infinity=False))
    text = st.sampled_from(cli._sweep_values(1 / 7) + cli._sweep_values(float(f"{1 / 6:.16g}"))).map(num)

    def per_number_rows(s0_text, s1_text, margin, feasible, solved):
        rows, solutions = [], iter(solved.tolist())
        for a, s0 in enumerate(s0_text):
            for b, s1 in enumerate(s1_text):
                if feasible[a, b]:
                    tail = [num(margin[a, b])] + [num(x) for x in next(solutions)]
                else:
                    tail = [num(margin[a, b])] + [""] * 8
                rows.append(",".join([s0, s1, "true" if feasible[a, b] else "false"] + tail))
        return rows

    def arrays(data, count, shape, elements):
        return np.array(data.draw(st.lists(elements, min_size=count, max_size=count)), dtype=float).reshape(shape)

    @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.integers(1, 4), st.integers(1, 6), st.booleans(), st.data())
    def check(rows, points, pooled, data):
        s0_text = data.draw(st.lists(text, min_size=rows, max_size=rows))
        s1_text = data.draw(st.lists(text, min_size=points, max_size=points))
        feasible = arrays(data, rows * points, (rows, points), st.booleans()).astype(bool)
        elements = number
        if pooled:
            elements = st.sampled_from([0.0, -0.0] + data.draw(st.lists(number, min_size=1, max_size=3)))
        margin = arrays(data, rows * points, (rows, points), elements)
        solved = arrays(data, 8 * int(feasible.sum()), (-1, 8), elements)
        want = per_number_rows(s0_text, s1_text, margin, feasible, solved)
        assert cli._block_rows(s0_text, s1_text, margin, feasible, solved) == want

    check()
    # a 4 x 6 block whose numbers come from four values, and one with no feasible point
    s0_text, s1_text = ["0", "0.1", "0.2", "0.3"], ["0", "0.1", "0.2", "0.3", "0.4", "0.5"]
    feasible = np.arange(24).reshape(4, 6) % 3 > 0
    pool = np.array([0.0, -0.0, 1 / 3, 0.1])
    margin, solved = pool[np.arange(24) % 4].reshape(4, 6), pool[np.arange(128) * 3 % 4]
    for flags, values in ((feasible, solved.reshape(16, 8)), (np.zeros((4, 6), bool), np.zeros((0, 8)))):
        want = per_number_rows(s0_text, s1_text, margin, flags, values)
        assert cli._block_rows(s0_text, s1_text, margin, flags, values) == want


def test_sweep_at_step_one_third_matches_one_kernel_call_per_row():
    # the grid's corners and the symmetric point (2/3, 2/3) on the margin's
    # zero through the stacked row pass and through the scalar solver
    reference = _sweep_rows_one_call_per_row(1 / 3)
    feasible = {tuple(row.split(",")[:2]) for row in reference if ",true," in row}
    assert {("0", "0"), ("1", "0"), ("0", "1"), ("0.666666667", "0.666666667")} <= feasible
    assert cli.sweep_rows(1 / 3) == reference


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


def test_kept_parser_answers_like_a_fresh_one(monkeypatch):
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
    # argv the command's own parser cannot settle alone, or settles by
    # argparse rules the full parser also applies
    edges = [
        ["solve", "0.3", "0.4", "0.5"],
        ["pauli", "1", "0", "0", "0", "0"],
        ["solve", "--", "-0.3", "0.2"],
        ["solve", "0.3", "0.4", "--form", "json"],
        ["clone", "--st=+", "--s0", "0.6", "--s1", "0.5"],
        ["-h", "solve"],
        ["solve", "0.3", "0.4", "-h"],
        ["clone", "--help", "--state=+"],
        ["bogus", "0.3", "0.4"],
        [],
    ]
    codes = set()
    for argv in edges + [rng.choice(makers)() for _ in range(300)]:
        kept = run_cli(*argv)
        assert kept == _run_on_a_fresh_parser(argv), argv
        codes.add(kept[0])
    assert codes == {0, 1, 2}
    assert run_cli("solve", "0.3", "0.4", "0.5")[2].endswith("asymclone: error: unrecognized arguments: 0.5\n")
    # an abbreviated option reaches the full parser, which still matches its prefix
    json_out = run_cli("solve", "0.3", "0.4", "--format=json")[1]
    assert run_cli("solve", "0.3", "0.4", "--form", "json") == (0, json_out, "")
    # every form the benchmark workloads send is settled from the command's
    # actions, reaching neither the full parser nor a command's own parser
    monkeypatch.setattr(cli._shared_parser(), "parse_args", None)
    for command in cli._shared_parser().commands.values():
        monkeypatch.setattr(command, "parse_known_args", None)
    hot = [
        ["solve", "0.3", "0.4"],
        ["solve", "0.3", "0.4", "--format", "json"],
        ["solve", "0.3", "0.4", "--format=json"],
        ["clone", "--state=0.3,0.1,-0.2,0.4", "--s0", "0.6", "--s1", "0.5"],
        ["clone", "--state", "1.2,0.4", "--s0", "2/3", "--s1", "2/3"],
        ["pauli", "--", "-0.3", "0.4", "0.1,0.5", "0.2"],
        ["pauli", "1", "0", "0", "0"],
        ["sweep", "--step", "1/10"],
        ["verify", "--seed", "1", "--trials", "5"],
    ]
    for argv in hot:
        assert run_cli(*argv)[0] == 0, argv


def _settled(argv):
    """cli._settle's Namespace for argv on the shared parser's command, or None."""
    return cli._settle(argv[0], cli._shared_parser().commands[argv[0]], list(argv[1:]))


def _fields(args):
    """vars(args) with each array as its dtype, shape and bytes."""
    return {
        key: (value.dtype, value.shape, value.tobytes()) if isinstance(value, np.ndarray) else value
        for key, value in vars(args).items()
    }


def test_settled_argv_parse_as_argparse_parses_them(monkeypatch, tmp_path):
    # argv the table route settles must give parse_args' Namespace; argv it
    # declines must give a fresh parser's exit code, stdout and stderr
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    monkeypatch.chdir(tmp_path)  # sweep --out writes files named by the atoms
    commands = cli.build_parser().commands
    options = sorted({opt for command in commands.values() for a in command._actions for opt in a.option_strings})
    values = ["-0.3", "-1e-13", "0.3", "0.4", "1", "0", "5", "2/3", "1/10", "nan", "x", "json", "text", "xml", "--"]
    values += ["+i", "-i", "+", "-", "1.2,0.4", "0.3,0.1,-0.2,0.4", "0.1,0.5", "-0.2,1"]
    atoms = options + [f"{opt}=" for opt in options] + values + ["--", "-", "", "-h", "--form", "--st", "--s"]
    kinds = {
        cli._parse_real: ["0.3", "0.4", "2/3", "1/10", "1", "0", "-0.3"],
        cli._parse_state: ["+i", "-i", "0", "1.2,0.4", "0.3,0.1,-0.2,0.4", "-0.2,1"],
        cli._parse_complex: ["0.3", "0.1,0.5", "-0.2,1", "1", "0"],
        int: ["1", "5", "0", "-1"],
    }
    token = st.one_of(
        st.sampled_from(atoms), st.tuples(st.sampled_from(options), st.sampled_from(values)).map("=".join)
    )

    @st.composite
    def formed(draw):
        # each option given or not (required ones always), as '--opt v' or
        # '--opt=v' in any order, the positionals spread among them or after
        # one '--', then at most one atom put anywhere; about half the values
        # are of the action's own kind
        name = draw(st.sampled_from(sorted(commands)))
        actions = [a for a in commands[name]._actions if a.dest != "help"]

        def value(a):
            own = list(a.choices) if a.choices else kinds.get(a.type, ["x", "-"])
            return draw(st.one_of(st.sampled_from(own), st.sampled_from(values)))

        groups = []
        for a in actions:
            if a.option_strings and (a.required or draw(st.booleans())):
                opt, text = a.option_strings[0], value(a)
                groups.append([f"{opt}={text}"] if draw(st.booleans()) else [opt, text])
        argv = [t for group in draw(st.permutations(groups)) for t in group]
        args = [value(a) for a in actions if not a.option_strings]
        if args and draw(st.booleans()):
            argv += ["--"] + args
        else:
            for arg in args:
                argv.insert(draw(st.integers(0, len(argv))), arg)
        for _ in range(draw(st.integers(0, 1))):
            argv.insert(draw(st.integers(0, len(argv))), draw(token))
        return [name, *argv]

    drawn = st.tuples(st.sampled_from(sorted(commands)), st.lists(token, max_size=8)).map(lambda p: [p[0], *p[1]])
    seen = {"settled": 0, "declined": 0}

    @hypothesis.settings(max_examples=600, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.one_of(drawn, formed(), formed()))
    @hypothesis.example(["verify", "--"])
    @hypothesis.example(["verify", "--trials", "2/3"])
    @hypothesis.example(["solve", "0.3", "0.4", "--"])
    @hypothesis.example(["pauli", "1", "2", "--", "3", "4"])
    @hypothesis.example(["clone", "--state=-i", "--s0", "1", "--s1", "0"])
    @hypothesis.example(["solve", "0.3", "0.4", "--format=xml"])
    def check(argv):
        settled = _settled(argv)
        if settled is None:
            seen["declined"] += 1
            assert run_cli(*argv) == _run_on_a_fresh_parser(argv), argv
        else:
            seen["settled"] += 1
            assert _fields(settled) == _fields(cli.build_parser().parse_args(argv)), argv

    check()
    assert min(seen.values()) >= 50, seen
    assert _settled(["clone", "--state=-i", "--s0", "1", "--s1", "0"]) is not None
    for argv in (
        ["verify", "--"],
        ["verify", "--trials", "2/3"],
        ["solve", "0.3", "0.4", "--"],
        ["pauli", "1", "2", "--", "3", "4"],
    ):
        assert _settled(argv) is None, argv


def test_a_second_double_dash_goes_to_argparse():
    # every command's positionals refuse '--' in their type; a string
    # positional would not, and argparse versions differ on a second '--'
    parser = argparse.ArgumentParser()
    parser.add_argument("a")
    parser.add_argument("b")
    settled = cli._settle("echo", parser, ["--", "x", "-y"])
    assert vars(settled) == {"command": "echo", "func": None, "a": "x", "b": "-y"}
    assert cli._settle("echo", parser, ["--", "x", "--"]) is None
    assert cli._settle("echo", parser, ["x", "--", "y"]) is None


# each argv with the last line of its stderr
_DOUBLE_DASH_VALUES = [
    ("solve -- 2 --", "asymclone solve: error: argument s1: not a real number: '--'"),
    ("clone --state=-i --s0=-- --s1=-1", "asymclone clone: error: argument --s0: not a real number: '--'"),
    ("sweep --step=--", "asymclone sweep: error: argument --step: not a real number: '--'"),
    ("verify --seed=--", "asymclone verify: error: argument --seed: invalid int value: '--'"),
    ("verify --trials=--", "asymclone verify: error: argument --trials: invalid int value: '--'"),
    ("clone --state=-- --s0 0.5 --s1 0.5", "asymclone clone: error: argument --state: bad state spec '--'"),
    ("pauli -- 1 2 3 --", "asymclone pauli: error: argument x4: bad complex literal '--': use 're' or 're,im'"),
    # the list of choices after it is quoted or not by Python version
    ("solve 0.5 0.5 --format=--", "asymclone solve: error: argument --format: invalid choice: '--'"),
]


@pytest.mark.parametrize("argv, last", _DOUBLE_DASH_VALUES, ids=[argv for argv, _ in _DOUBLE_DASH_VALUES])
def test_a_double_dash_value_is_judged_by_its_type_and_choices(argv, last):
    # older argparse stored [] for it, untyped, and the command raised or ignored it
    code, out, err = run_cli(*argv.split())
    assert (code, out) == (1, "")
    assert err.splitlines()[-1].partition(" (choose from")[0] == last
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["--step", "0.5"], ["--st", "0.5"]])
def test_sweep_writes_a_file_named_double_dash_on_both_routes(monkeypatch, tmp_path, argv):
    # the abbreviated option goes to the full parser, the exact one is settled from the actions
    monkeypatch.chdir(tmp_path)
    assert run_cli("sweep", *argv, "--out=--") == (0, "", "")
    assert (tmp_path / "--").read_text().splitlines()[0] == CSV_HEADER


# verify's suites one trial at a time on the object API, as they ran before
# the stacked passes: the reference for their errors on the same inputs


def _trial_state_algebra(single, double):
    single = StateVector(single, ("q0",))
    joint = tensor(single, StateVector(double, ("q1", "q2")))
    yield abs(float(np.linalg.norm(joint.amplitudes)) - 1.0), qstate.ROUNDOFF_TOL
    back = reorder(reorder(joint, ("q2", "q0", "q1")), joint.labels)
    yield float(np.max(np.abs(back.amplitudes - joint.amplitudes))), qstate.ROUNDOFF_TOL
    yield abs(abs(overlap(joint, back)) - 1.0), qstate.ROUNDOFF_TOL
    rho = to_density(single)
    rebuilt = DensityMatrix(from_bloch_rows(bloch_vector(rho).as_array()), ("q0",))
    yield float(np.max(np.abs(rebuilt.entries - rho.entries))), qstate.ROUNDOFF_TOL
    reduced = partial_trace(to_density(joint), ["q0", "q2"])
    yield float(reduced.labels != ("q0", "q2")), 0.0


def _trial_gates(psi, angles, raw):
    psi = StateVector(psi, ("x", "y", "z"))
    twice = apply_cnot(apply_cnot(psi, "x", "z"), "x", "z")
    yield float(np.max(np.abs(twice.amplitudes - psi.amplitudes))), qstate.ROUNDOFF_TOL
    squared = apply_hadamard(apply_hadamard(psi, "y"), "y")
    yield float(np.max(np.abs(squared.amplitudes - psi.amplitudes))), qstate.ROUNDOFF_TOL
    rotated = apply_rz(apply_ry(psi, "x", float(angles[0])), "z", float(angles[1]))
    yield abs(float(np.linalg.norm(rotated.amplitudes)) - 1.0), qstate.ROUNDOFF_TOL
    target, circuit = prepare_two_qubit(raw)
    built = apply_circuit(basis_state("00", ("a1", "b1")), circuit)
    yield abs(abs(overlap(target, built)) - 1.0), qstate.ACCUMULATED_TOL


def _trial_cloner(pair, inputs):
    pair = cloner.feasibility(float(pair[0]), float(pair[1]))
    prep = cloner.solve_prep(pair)
    batch = cloner.clone_batch(np.array(inputs), prep.as_amplitudes)
    target = np.array([pair.s0, pair.s1])
    for k in range(2):
        yield float(np.max([batch.residual[k], batch.isotropy[k]])), qstate.ESTIMATE_TOL
        yield float(np.max(np.abs(batch.s_est[k] - target))), qstate.ESTIMATE_TOL
        yield float(np.max(np.abs(batch.fidelity[k] - 0.5 * (1.0 + batch.s_est[k])))), qstate.ESTIMATE_TOL


def _trial_pauli(raw):
    matrix, max_off = pauli.bell_output(pauli.BellCoefficients(*raw))
    yield max_off, pauli.BELL_DIAGONAL_TOL
    yield float(np.max(np.abs(np.diag(matrix) - raw))), qstate.ACCUMULATED_TOL


_TRIALS = {
    "state-algebra": _trial_state_algebra,
    "gates": _trial_gates,
    "cloner": _trial_cloner,
    "pauli": _trial_pauli,
}


def _unit(normals):
    """random_state's amplitudes from its 2d normals, the d real parts first."""
    half = len(normals) // 2
    amps = normals[:half] + 1j * normals[half:]
    return amps / np.linalg.norm(amps)


def _bulk_draws(name, rng, n):
    """Each of a chunk of n trials' random inputs, drawn for the whole chunk at once."""
    if name == "state-algebra":
        return [(_unit(row[:4]), _unit(row[4:])) for row in rng.standard_normal((n, 12))]
    if name == "gates":
        states = rng.standard_normal((n, 16))
        angles = rng.uniform(-np.pi, np.pi, size=(n, 2))
        raw = rng.standard_normal((n, 8))
        return [(_unit(states[t]), angles[t], _unit(raw[t])) for t in range(n)]
    if name == "cloner":
        # rejection on whole batches of 2n uniform pairs, feasible pairs in draw order
        pairs = []
        while len(pairs) < n:
            for s0, s1 in rng.uniform(0.0, 1.0, size=(2 * n, 2)):
                if feasibility(float(s0), float(s1)).feasible:
                    pairs.append([s0, s1])
        normals = rng.standard_normal((n, 2, 4))
        return [(pairs[t], [_unit(row) for row in normals[t]]) for t in range(n)]
    return [(_unit(row),) for row in rng.standard_normal((n, 8))]


@pytest.mark.parametrize("name, draw", [(name, draw) for name, draw, _ in cli._SUITES])
def test_stacked_draws_replay_the_per_trial_calls(name, draw):
    # each trial's stacked inputs are the bulk reference's for that trial;
    # seed 50's first two uniform pairs are both infeasible, so the cloner's
    # one-trial chunk draws a second batch
    first = np.random.default_rng(50).uniform(0.0, 1.0, size=(2, 2))
    assert not any(feasibility(s0, s1).feasible for s0, s1 in first.tolist())
    rng, replay = np.random.default_rng(50), np.random.default_rng(50)
    for n in (1, 5, 30):
        want = [np.array(column) for column in zip(*_bulk_draws(name, replay, n))]
        for got, column in zip(draw(rng, n), want, strict=True):
            assert np.array_equal(got, column), name
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
        want = [
            list(_TRIALS[name](*inputs))
            for start in range(0, trials, chunk)
            for inputs in _bulk_draws(name, reference, min(chunk, trials - start))
        ]
        per_check = len(want[0])
        pieces = list(cli._suite_errors(rng, trials, draw, check))
        assert len(pieces) == per_check * -(-trials // chunk), name
        got = [
            np.stack([errors for errors, _ in pieces[start : start + per_check]], axis=1)
            for start in range(0, len(pieces), per_check)
        ]
        assert np.array_equal(np.concatenate(got), [[err for err, _ in trial] for trial in want]), name
        assert [tol for _, tol in pieces[:per_check]] == [tol for _, tol in want[0]], name


def test_verify_reports_no_failures_over_many_seeds():
    # the bench's verify workload: --trials 50 under seeds from randrange(2**31)
    rng = random.Random(50)
    for seed in [rng.randrange(2**31) for _ in range(60)]:
        code, out, _ = run_cli("verify", "--seed", str(seed), "--trials", "50")
        assert code == 0 and out.endswith(f"0 failures (seed {seed}, trials 50)\n"), out


def test_sweep_writes_each_block_as_the_kernel_completes_it(monkeypatch):
    kernel_calls, writes = [], []
    real = cloner.clone_batch
    monkeypatch.setattr(cloner, "clone_batch", lambda *args: kernel_calls.append(1) or real(*args))
    # step 0.05 has 21 s0 rows: 6 blocks of 4 rows, the last one partial
    monkeypatch.setattr(cli, "_SWEEP_POINTS", 4 * 21)

    class Sink(io.StringIO):
        def write(self, text):
            writes.append(len(kernel_calls))
            return super().write(text)

    sink = Sink()
    with redirect_stdout(sink):
        assert main(["sweep", "--step", "0.05"]) == 0
    assert writes == list(range(7))
    assert sink.getvalue() == "\n".join([CSV_HEADER] + cli.sweep_rows(0.05)) + "\n"


@pytest.mark.skipif(sys.platform != "linux", reason="reads the peak RSS that Linux keeps in /proc/self/status")
def test_a_fine_sweep_streams_in_bounded_memory(tmp_path):
    # sweep solves and runs the kernel on one block of whole grid rows at a
    # time (two 501-point rows at this step), about 41 MB on x86_64 Linux, of
    # which about 6 MB are the grid-sized kernel store and flags that mirrored
    # points read; run as one block, the 251 x 251 grid of step 0.004 alone
    # peaks near 143 MB there (37 MB in blocks). The child
    # reads its own address space's peak: its getrusage figure also counts
    # the peak of the process it was started from. With two s0 values a
    # block, the fewest of the pinned grids, this grid's numbers repeat
    # least, and its bytes are pinned too
    out = tmp_path / "sweep.csv"
    code = (
        "import re, sys\nfrom asymclone.cli import main\n"
        "code = main(['sweep', '--step', '0.002', '--out', sys.argv[1]])\n"
        "print(re.search(r'^VmHWM:\\s+(\\d+) kB$', open('/proc/self/status').read(), re.M)[1])\nsys.exit(code)"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    command = [sys.executable, "-c", code, str(out)]
    child = subprocess.run(command, capture_output=True, text=True, env=env, timeout=120)
    assert child.returncode == 0, child.stderr
    assert int(child.stdout) <= 64 * 1024, f"sweep --step 0.002 peaked at {int(child.stdout) / 1024:.1f} MB"
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "3d53b0ef549c351aacc5644cf7b357c45eed21b23b5ad202b3fa70ee0bf71f5b"


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the allocator thresholds are set on glibc alone")
def test_repeated_stacked_commands_fault_in_no_pages():
    # glibc's defaults unmap or trim the kernel's freed temporaries after
    # each call, and the next call faults the same pages in again (about
    # 470 a sweep --step 0.05 and 1150 a verify --trials 1000 on x86_64
    # Linux; 0-22 with the thresholds set). The child counts its own minor
    # faults, apart from the process it was started from
    code = (
        "import io, json, resource\nfrom contextlib import redirect_stdout\nfrom asymclone.cli import main\n"
        "result = {}\n"
        "for argv in (['sweep', '--step', '0.05'], ['verify', '--trials', '1000']):\n"
        "    calls = []\n"
        "    for _ in range(3):\n"
        "        out = io.StringIO()\n"
        "        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "        with redirect_stdout(out):\n"
        "            assert main(argv) == 0\n"
        "        calls.append((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, out.getvalue()))\n"
        "    result[argv[0]] = calls\n"
        "print(json.dumps(result))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert child.returncode == 0, child.stderr
    for command, calls in json.loads(child.stdout).items():
        (_, first), _, (faults, third) = calls
        assert third == first, command
        assert faults <= 50, f"the third {command} call faulted {faults} pages in"


def test_sweep_prints_its_reference_bytes_where_confstr_fails(monkeypatch):
    # off glibc, or where os.confstr cannot name the C library, the helper leaves the allocator alone
    def unknown(name):
        raise ValueError("unrecognized configuration name")

    def no_libc(name):
        raise AssertionError("the C library was loaded")

    monkeypatch.setattr(cli.os, "confstr", unknown)
    monkeypatch.setattr("ctypes.CDLL", no_libc)
    cli._keep_freed_memory.cache_clear()
    try:
        code, out, err = run_cli("sweep", "--step", "1/14")
        assert cli._keep_freed_memory.cache_info().misses == 1
    finally:
        cli._keep_freed_memory.cache_clear()
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == "5bd8394a0b905efd77b9c34ace26e968caef60b090dd4d3b993cc2da57ec8881"


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


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "0.3", "0.4"],
        ["clone", "--state=+", "--s0", "0.6", "--s1", "0.5"],
        ["sweep", "--step", "0.5"],
        ["pauli", "1", "0", "0", "0"],
        ["verify", "--trials", "10"],
    ],
)
@pytest.mark.parametrize("stdout", ["/dev/full", "closed"])
def test_a_failed_stdout_write_ends_in_one_line(argv, stdout):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    command = [sys.executable, "-m", "asymclone.cli", *argv]
    if stdout == "closed":
        # Python starts with sys.stdout None when fd 1 is closed
        closed = ["sh", "-c", 'exec "$@" >&-', "sh", *command]
        child = subprocess.run(closed, stderr=subprocess.PIPE, env=env, timeout=60)
    elif not os.path.exists(stdout):
        pytest.skip(f"no {stdout} here")
    else:
        # every write to /dev/full fails with ENOSPC
        with open(stdout, "w") as full:
            child = subprocess.run(command, stdout=full, stderr=subprocess.PIPE, env=env, timeout=60)
    text = child.stderr.decode()
    assert child.returncode == 1, text
    assert "Traceback" not in text and "Exception ignored" not in text
    assert text.count("\n") == 1 and text.startswith("asymclone: "), text


_RUN_MAIN = "import json, sys; from asymclone.cli import main; sys.exit(max(map(main, json.loads(sys.argv[1]))))"


def _stdouts_with_and_without_fma(payload, script=_RUN_MAIN):
    """(stdout, stderr) of one child per kernel: by default, under OpenBLAS's Prescott, Sandybridge and Haswell
    kernels and under numpy's baseline dispatch.

    By default the child runs main on each argv of payload; a script reads json.loads(sys.argv[1]) itself.
    numpy's X86_V3+ loops and OpenBLAS's SkylakeX and Haswell kernels fuse products into FMAs; Prescott,
    Sandybridge and the baseline do not.
    """
    chosen = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")
    env = {key: value for key, value in os.environ.items() if key not in chosen}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    command = [sys.executable, "-c", script, json.dumps(payload)]
    kernels = [{"OPENBLAS_CORETYPE": kernel} for kernel in ("Prescott", "Sandybridge", "Haswell")]
    baseline = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 X86_V3 AVX512_ICL AVX512_SPR"}
    children = [
        subprocess.run(command, capture_output=True, text=True, env=dict(env, **extra), timeout=120)
        for extra in ({}, *kernels, baseline)
    ]
    for child in children:
        assert child.returncode == 0, child.stderr
    return [(child.stdout, child.stderr) for child in children]


def test_verify_prints_the_same_on_a_blas_kernel_without_fma():
    # verify runs LAPACK's Cholesky and SVD on small stacks; OpenBLAS picks
    # its kernels by CPU unless OPENBLAS_CORETYPE names one, set on the child only
    default, *others = _stdouts_with_and_without_fma([["verify", "--seed", "42", "--trials", "1000"]])
    assert default[0].endswith("verify: 17000 checks, 0 failures (seed 42, trials 1000)\n") and default[1] == ""
    assert others == [default] * len(others)


def test_clone_prints_the_same_without_fma():
    # clone's numbers are Python complex arithmetic, which is never fused, and so is the norm of a 4-float
    # --state; the last argv's norm, summed by a BLAS dot, changed its digits without FMA
    argvs = [
        ["clone", "--state=1,0.5,-0.3,0.2", "--s0", "0.3", "--s1", "0.5"],
        ["clone", "--state=0.7,2.1", "--s0", "0.9", "--s1", "0.2"],
        ["clone", "--state=+i", "--s0", "1", "--s1", "0"],
        ["clone", "--state=0.47,-1.493,-1.993,1.486", "--s0", "0.8", "--s1", "0.5"],
    ]
    default, *others = _stdouts_with_and_without_fma(argvs)
    assert default[0].count('"joint_labels"') == 4 and default[1] == ""
    assert others == [default] * len(others)


def test_pauli_prints_the_same_without_fma():
    # bell_output_row's sums and its one scale are never fused; the Bell matrix products that pauli ran before
    # printed other off-diagonal round-off under OpenBLAS without FMA
    argvs = [
        ["pauli", "0.3", "0.4", "0.1,0.5", "0.2"],
        ["pauli", "0.3", "0.4,0.1", "0.5", "0.2"],
        ["pauli", "1e300", "1e300", "0", "0"],
        ["pauli", "1", "0", "0", "0"],
        ["pauli", "1", "1", "1", "0"],
        ["pauli", "0", "1e-320", "1", "0.5"],
    ]
    default, *others = _stdouts_with_and_without_fma(argvs)
    assert default[0].count('"bell_order"') == 6 and default[1].count("renormalizing") == 5
    assert others == [default] * len(others)


def test_sweep_moves_only_its_residual_max_without_fma():
    # sweep prints the same bytes under the three OpenBLAS kernels; numpy's baseline dispatch (no FMA) moves only
    # the last digits of the round-off column residual_max, which stay within the reference bound
    steps = ["1/14", "0.013"]
    default, *others = _stdouts_with_and_without_fma([["sweep", "--step", step] for step in steps])
    csvs = [out.split(CSV_HEADER + "\n")[1:] for out, _ in (default, *others)]
    assert [len(csv) for csv in csvs] == [len(steps)] * 5 and default[1] == ""

    def columns(csv):
        return [row.rsplit(",", 1)[0] for row in csv.splitlines()]

    for csv in csvs[1:]:
        assert list(map(columns, csv)) == list(map(columns, csvs[0]))
    assert others[:3] == [default] * 3
    pytest.importorskip("mpmath")
    from test_reference import SWEEP_RESIDUAL_BOUND, sweep_residual_error

    for step, csv, every in zip(steps, csvs[-1], (1, 13)):
        assert sweep_residual_error(step, CSV_HEADER + "\n" + csv, every) <= SWEEP_RESIDUAL_BOUND, step



def test_sweep_matches_one_kernel_call_per_row_without_fma():
    # a mirrored point copies its mirror's kernel numbers; under every kernel and dispatch the CSV must still
    # be what one clone_batch call a feasible point gives there; at 0.013 a block holds 13 of the 77 s0 rows,
    # so mirrors cross blocks
    script = (
        "import json, sys\ntests, *steps = json.loads(sys.argv[1])\nsys.path.insert(0, tests)\n"
        "from test_cli import _sweep_rows_one_call_per_row, cli\nfor step in steps:\n"
        "    rows = cli.sweep_rows(cli._parse_real(step))\n"
        "    print(step, len(rows), rows == _sweep_rows_one_call_per_row(cli._parse_real(step)))"
    )
    outs = _stdouts_with_and_without_fma([os.path.dirname(os.path.abspath(__file__)), "1/14", "0.013"], script)
    assert outs == [("1/14 225 True\n0.013 5929 True\n", "")] * 5

def test_the_bell_stack_gives_the_same_bits_without_fma():
    # bell_output_rows multiplies by the integer Bell matrix, whose products by 0 and +-1 are exact under any
    # BLAS kernel or FMA; the 1/sqrt(2) matrix it multiplied by before gave three digests. The rows are
    # normalized here in Python numbers and passed in, since a BLAS norm in the child would move them too
    rows = []
    for row in np.random.default_rng(35).standard_normal((500, 4, 2)).tolist():
        norm = math.sqrt(sum([re * re + im * im for re, im in row]))
        rows.append([[re / norm, im / norm] for re, im in row])
    script = (
        "import hashlib, json, sys\nimport numpy as np\nfrom asymclone.pauli import bell_output_rows\n"
        "matrix, max_off = bell_output_rows(np.array(json.loads(sys.argv[1])).view(complex)[..., 0])\n"
        "print(hashlib.sha256(matrix.tobytes() + max_off.tobytes()).hexdigest(), max_off.max())"
    )
    default, *others = _stdouts_with_and_without_fma(rows, script)
    assert others == [default] * len(others)
    assert re.fullmatch(r"[0-9a-f]{64} 0\.0\n", default[0]) and default[1] == "", default


def test_python_OO_drops_only_the_help_description():
    # -OO strips docstrings, and build_parser takes its description from one
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))

    def run(*argv):
        child = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60)
        return child.returncode, child.stdout, child.stderr

    code, out, err = run("-OO", "-m", "asymclone.cli", "--help")
    usage, _, rest = run("-m", "asymclone.cli", "--help")[1].split("\n\n", 2)
    assert (code, out, err) == (0, f"{usage}\n\n{rest}", "")
    solve = ["-m", "asymclone.cli", "solve", "0.8", "0.5"]
    plain = run(*solve)
    assert plain[0] == 0 and run("-OO", *solve) == plain


def _layout_kinds(value):
    """A printed JSON value's layout: its literals and the kind of each number and string, never their values."""
    if isinstance(value, dict):
        return tuple((key, _layout_kinds(v)) for key, v in value.items())
    if isinstance(value, list):
        return tuple(_layout_kinds(v) for v in value)
    if value is None or isinstance(value, bool):
        return value
    return type(value).__name__


def test_the_layout_cache_holds_one_template_per_report_layout():
    cli._layout.cache_clear()
    argvs = []
    # 50 infeasible pairs, each with its own reason text ("margin ... exceeds 0")
    for k in range(50):
        s = f"{0.7 + 0.005 * k:.3f}"
        argvs += [["solve", s, s, "--format", "json"], ["clone", "--state", "+", "--s0", s, "--s1", s]]
    argvs += [["solve", "1.5", "0", "--format", "json"], ["solve", "--format", "json", "--", "1e200", "-1e200"]]
    argvs += [["solve", f"0.{k}", "0.3", "--format", "json"] for k in range(1, 8)]
    argvs += [["clone", f"--state={state}", "--s0", "0.6", "--s1", "0.5"] for state in ("0", "-i", "1,2", "0,1,1,0")]
    argvs += [["pauli", "1", "0", f"0.{k}", f"0.{k},0.{k}"] for k in range(1, 6)]
    layouts, reasons = set(), set()
    for argv in argvs:
        code, out, _ = run_cli(*argv)
        assert code in (0, 2), argv
        printed = json.loads(out)
        layouts.add(_layout_kinds(printed))
        reasons.add(printed.get("reason"))
    assert len(reasons) > 50
    # solve, the infeasible report with a number and with a null margin, clone and pauli
    assert len(layouts) == 5
    assert cli._layout.cache_info().currsize == len(layouts)


_USAGE_ERRORS = [
    ["solve", "abc", "0.5"],
    ["clone", "--state", "+", "--s0", "x", "--s1", "0"],
    ["sweep", "--step", "x"],
    ["pauli", "1", "0", "0"],
    ["verify", "--trials", "x"],
]


@pytest.mark.parametrize("argv", _USAGE_ERRORS, ids=[argv[0] for argv in _USAGE_ERRORS])
def test_a_usage_line_formatted_once_matches_a_fresh_parser(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    wide = _run_on_a_fresh_parser(argv)
    assert wide[0] == 1 and wide[2].startswith(f"usage: asymclone {argv[0]} ")
    assert run_cli(*argv) == wide
    assert run_cli(*argv) == wide
    # a narrower terminal wraps the usage as argparse's HelpFormatter would
    monkeypatch.setenv("COLUMNS", "30")
    narrow = _run_on_a_fresh_parser(argv)
    assert narrow != wide
    assert run_cli(*argv) == narrow
    assert run_cli(*argv) == narrow
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(*argv) == wide


class _ClosedStream(io.TextIOBase):
    """A stream whose writes fail as on a closed descriptor."""

    def write(self, text):
        raise OSError(9, "Bad file descriptor")


@pytest.mark.parametrize("stderr", [None, _ClosedStream()], ids=["none", "closed"])
@pytest.mark.parametrize("argv", _USAGE_ERRORS, ids=[argv[0] for argv in _USAGE_ERRORS])
def test_a_usage_error_with_stderr_gone_still_exits_1(monkeypatch, argv, stderr):
    # Python starts with sys.stderr None when fd 2 is closed
    out = io.StringIO()
    monkeypatch.setattr(sys, "stderr", stderr)
    with redirect_stdout(out), pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 1
    assert out.getvalue() == ""
