"""Command line front end: solve, clone, sweep, pauli and verify.

Exit codes: 0 success, 1 usage or IO error, 2 infeasible scaling pair.
JSON numbers carry 12 significant digits, CSV numbers 9.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import cloner, pauli, qstate
from .gates import _H, cnot_rows, gate_rows, ry_matrix, rz_matrix, synthesis_rows, synthesized_rows
from .qstate import (
    _NAMED_AMPLITUDES,
    StateVector,
    bloch_rows,
    check_bloch_length,
    check_density,
    check_unit_norm,
    from_bloch_rows,
    kept_labels,
    named_state,
    norm_rows,
    overlap_rows,
    partial_trace_rows,
    projector_rows,
    random_rows,
    reorder_rows,
    tensor_rows,
)

# bench/test_bench.py checks that tracing rebinds these names in this module
from .gates import apply_cnot  # noqa: F401
from .qstate import partial_trace, reorder, tensor, to_density  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2

CSV_HEADER = "s0,s1,feasible,margin,c1,c2,c4,theta2,theta4,fidelity0,fidelity1,residual_max"
# bounds the sweep grid at 1001 x 1001 points
MIN_STEP = 0.001
# bounds a verify run at about ten seconds of work
MAX_TRIALS = 100_000
# feasible sweep rows per clone_batch call: enough to spread the kernel's
# fixed cost thin, few enough that its 8x8 stack (6 probes a row) stays 1.5 MB
_SWEEP_BLOCK = 256
# verify trials per stacked pass: enough to spread numpy's per-call cost
# thin, few enough that a suite's largest stack (8x8 per trial) stays 1 MB
_VERIFY_CHUNK = 1024


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default, which collides with the
    # infeasible-input code, so route usage failures to exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _finite(values: list[float]) -> list[float]:
    """The values unchanged; ValueError if any is NaN or infinite."""
    if not all(math.isfinite(v) for v in values):
        raise ValueError("non-finite number")
    return values


def _unit(raw: np.ndarray) -> tuple[np.ndarray, float]:
    """raw / |raw| and |raw|; ValueError names a zero or overflowing norm.

    The norm is taken of raw scaled by 2**-k and scaled back by 2**k, k the
    binary exponent of its largest real or imaginary part (0 when that is
    below 1): powers of two scale exactly, and no square can overflow.
    """
    k = max(math.frexp(float(np.max(np.abs(raw.view(float)))))[1], 0)
    try:
        norm = math.ldexp(float(np.linalg.norm(raw * math.ldexp(1.0, -k))), k)
    except OverflowError:
        raise ValueError("a norm past the float range") from None
    if norm < qstate.ZERO_NORM_FLOOR:
        raise ValueError("zero norm")
    return raw / norm, norm


def _parse_real(text: str) -> float:
    try:
        if "/" in text:
            num, den = text.split("/")
            value = float(num) / float(den)
        else:
            value = float(text)
        return _finite([value])[0]
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a real number: {text!r}") from None


def _parse_state(text: str) -> StateVector:
    """Named state, 'theta,phi' Bloch angles, or 're0,im0,re1,im1' amplitudes."""
    if text in _NAMED_AMPLITUDES:
        return named_state(text, "a0")
    parts = text.split(",")
    try:
        values = _finite([float(p) for p in parts])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad state spec {text!r}") from None
    if len(values) == 2:
        theta, phi = values
        amps = np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)])
    elif len(values) == 4:
        try:
            amps, _ = _unit(np.array([values[0] + 1j * values[1], values[2] + 1j * values[3]]))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"state spec {text!r} has {exc}") from None
    else:
        raise argparse.ArgumentTypeError(
            f"bad state spec {text!r}: use a named state, 'theta,phi' or 're0,im0,re1,im1'"
        )
    return StateVector(amps, ("a0",))


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) in (1, 2):
            return complex(*_finite([float(p) for p in parts]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"bad complex literal {text!r}: use 're' or 're,im'")


def _json_num(x: float) -> float:
    x = float(x)
    if x == 0.0:
        x = 0.0
    return float(f"{x:.12g}")


def _json_complex(z: complex) -> list[float]:
    return [_json_num(z.real), _json_num(z.imag)]


def _json_vector(values) -> list[list[float]]:
    return [_json_complex(complex(z)) for z in np.asarray(values).reshape(-1)]


def _json_matrix(matrix) -> list[list[list[float]]]:
    return [[_json_complex(complex(z)) for z in row] for row in np.asarray(matrix)]


def _csv_num(x: float) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0
    return format(x, ".9g")


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, allow_nan=False))


def _pair_json(pair: cloner.ScalingPair) -> dict:
    # the margin of an out-of-range pair can overflow to inf or NaN
    margin = _json_num(pair.margin) if math.isfinite(pair.margin) else None
    return {"s0": _json_num(pair.s0), "s1": _json_num(pair.s1), "feasible": pair.feasible, "margin": margin}


def _emit_infeasible(pair: cloner.ScalingPair, fmt: str) -> int:
    head = _pair_json(pair)
    if fmt == "json":
        _print_json({**head, "reason": pair.reason})
    else:
        margin = "null" if head["margin"] is None else head["margin"]
        print(f"infeasible: s0 = {head['s0']}, s1 = {head['s1']}, margin = {margin} ({pair.reason})")
    return EXIT_INFEASIBLE


def _cmd_solve(args) -> int:
    pair = cloner.feasibility(args.s0, args.s1)
    if not pair.feasible:
        return _emit_infeasible(pair, args.format)
    prep = cloner.solve_prep(pair)
    if args.format == "json":
        payload = {
            **_pair_json(pair),
            "c1": _json_num(prep.c1),
            "c2": _json_num(prep.c2),
            "c4": _json_num(prep.c4),
            "theta1": _json_num(prep.theta1),
            "theta2": _json_num(prep.theta2),
            "theta4": _json_num(prep.theta4),
            "amplitudes": _json_vector(prep.as_amplitudes),
        }
        _print_json(payload)
    else:
        print(f"s0 = {_json_num(pair.s0)}  s1 = {_json_num(pair.s1)}  margin = {_json_num(pair.margin)}")
        print(f"c1 = {_json_num(prep.c1)}  theta1 = {_json_num(prep.theta1)}")
        print(f"c2 = {_json_num(prep.c2)}  theta2 = {_json_num(prep.theta2)}")
        print(f"c4 = {_json_num(prep.c4)}  theta4 = {_json_num(prep.theta4)}")
        amps = ", ".join(
            f"{_json_num(z.real)}{_json_num(z.imag):+}j" for z in prep.as_amplitudes
        )
        print(f"amplitudes: {amps}")
    return EXIT_OK


def _cmd_clone(args) -> int:
    pair = cloner.feasibility(args.s0, args.s1)
    if not pair.feasible:
        return _emit_infeasible(pair, "json")
    prep = cloner.solve_prep(pair)
    out = cloner.run_cloner(args.state, prep)
    payload = {
        "input": _json_vector(args.state.amplitudes),
        "s0_target": _json_num(pair.s0),
        "s1_target": _json_num(pair.s1),
        "margin": _json_num(pair.margin),
        "joint_labels": list(cloner.NETWORK_LABELS),
        "joint": _json_vector(out.joint),
        "rho_a0": _json_matrix(out.rho_a0),
        "rho_a1": _json_matrix(out.rho_a1),
        "s0_est": _json_num(out.s0_est),
        "s1_est": _json_num(out.s1_est),
        "residual0": _json_num(out.residual0),
        "residual1": _json_num(out.residual1),
        "fidelity0": _json_num(out.fidelity0),
        "fidelity1": _json_num(out.fidelity1),
    }
    _print_json(payload)
    return EXIT_OK


def _sweep_values(step: float) -> list[float]:
    count = int(np.floor(1.0 / step + qstate.GRID_SLACK))
    return [k * step for k in range(count + 1)]


def _fill_rows(rows: list[str], queued: list[tuple[int, str, np.ndarray]], probes: np.ndarray) -> None:
    """Complete the queued feasible rows from one clone_batch call, then empty the queue.

    Each entry is (slot in rows, the row's first nine columns, the preparation's
    amplitudes); the kernel runs every probe under every preparation.
    """
    if not queued:
        return
    slots, heads, preps = zip(*queued)
    n, k = len(queued), len(probes)
    batch = cloner.clone_batch(np.tile(probes, (n, 1)), np.repeat(np.array(preps), k, axis=0))
    residual_max = batch.residual.reshape(n, -1).max(axis=1)
    for slot, head, (fidelity0, fidelity1), residual in zip(slots, heads, batch.fidelity[::k], residual_max):
        rows[slot] = ",".join([head, _csv_num(fidelity0), _csv_num(fidelity1), _csv_num(residual)])
    queued.clear()


def _sweep_blocks(step: float):
    """The sweep's CSV rows in order, in lists complete up to each kernel call.

    Feasible rows queue up and go through the kernel _SWEEP_BLOCK at a time,
    so the kernel's fixed cost is paid once per block, not once per row, and
    no more than a block's rows are held at once.
    """
    probes = np.array([p.amplitudes for p in cloner.probe_states()])
    rows: list[str] = []
    queued: list[tuple[int, str, np.ndarray]] = []
    for s0 in _sweep_values(step):
        for s1 in _sweep_values(step):
            pair = cloner.feasibility(s0, s1)
            lead = [_csv_num(s0), _csv_num(s1), "true" if pair.feasible else "false", _csv_num(pair.margin)]
            if not pair.feasible:
                rows.append(",".join(lead + [""] * 8))
                continue
            prep = cloner.solve_prep(pair)
            columns = (prep.c1, prep.c2, prep.c4, prep.theta2, prep.theta4)
            queued.append((len(rows), ",".join(lead + [_csv_num(x) for x in columns]), prep.as_amplitudes))
            rows.append("")
            if len(queued) == _SWEEP_BLOCK:
                _fill_rows(rows, queued, probes)
                yield rows
                rows = []
    _fill_rows(rows, queued, probes)
    yield rows


def sweep_rows(step: float) -> list[str]:
    """CSV rows for the full grid, s0 outer and s1 inner, ascending."""
    return [row for block in _sweep_blocks(step) for row in block]


def _write_sweep(handle, step: float) -> None:
    handle.write(CSV_HEADER + "\n")
    for block in _sweep_blocks(step):
        handle.write("".join(row + "\n" for row in block))


def _cmd_sweep(args) -> int:
    if not MIN_STEP <= args.step <= 0.5:
        print(f"sweep: step must lie in [{MIN_STEP}, 0.5]", file=sys.stderr)
        return EXIT_USAGE
    if args.out == "-":
        _write_sweep(sys.stdout, args.step)
        return EXIT_OK
    try:
        with open(args.out, "w", newline="") as handle:
            _write_sweep(handle, args.step)
    except OSError as exc:
        print(f"sweep: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _cmd_pauli(args) -> int:
    try:
        unit, norm = _unit(np.array([args.x1, args.x2, args.x3, args.x4], dtype=complex))
    except ValueError as exc:
        print(f"pauli: coefficients have {exc}", file=sys.stderr)
        return EXIT_USAGE
    if abs(norm - 1.0) > qstate.RENORMALIZE_WARN:
        print(f"pauli: renormalizing input of norm {norm:.9g}", file=sys.stderr)
    coeffs = pauli.BellCoefficients(*unit)
    matrix, max_off = pauli.bell_output(coeffs)
    if not max_off <= pauli.BELL_DIAGONAL_TOL:
        print(f"pauli: output is not Bell-diagonal (max off-diagonal {max_off:.3g})", file=sys.stderr)
        return EXIT_USAGE
    payload = {
        "input": _json_vector(coeffs.as_array()),
        "bell_order": list(pauli.BELL_NAMES),
        "coefficients": _json_matrix(matrix),
        "diagonal": _json_vector(np.diag(matrix)),
        "max_offdiagonal": _json_num(max_off),
    }
    _print_json(payload)
    return EXIT_OK


# Each suite is a pair of functions over a chunk of n trials. draw makes the
# rng calls one trial at a time would make, in the same order, and returns
# the trials' inputs as stacks; check runs the suite on those stacks and
# yields (errors, tolerance) per check, one error per trial. A check fails
# unless error <= tolerance, so a NaN error is a failure. The validity rules
# the object functions apply (unit norm, density, Bloch length) run on every
# stack a check reads, so an invalid state raises ValueError as before.


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z|, as abs() of a Python complex gives it (np.abs differs in the last bit)."""
    return np.hypot(z.real, z.imag)


def _draw_state_algebra(rng: np.random.Generator, n: int):
    """random_state on q0, then on (q1, q2): 12 normals a trial, drawn in one call."""
    normals = rng.standard_normal((n, 12))
    return random_rows(normals[:, :4]), random_rows(normals[:, 4:])


def _check_state_algebra(single: np.ndarray, double: np.ndarray):
    check_unit_norm(single)
    check_unit_norm(double)
    labels = ("q0", "q1", "q2")
    joint = tensor_rows(single, double)
    check_unit_norm(joint)
    yield np.abs(norm_rows(joint) - 1.0), qstate.ROUNDOFF_TOL
    # to (q2, q0, q1) and back
    shuffled = reorder_rows(joint, (2, 0, 1))
    check_unit_norm(shuffled)
    back = reorder_rows(shuffled, (1, 2, 0))
    check_unit_norm(back)
    yield np.abs(back - joint).max(axis=-1), qstate.ROUNDOFF_TOL
    yield np.abs(_modulus(overlap_rows(joint, back)) - 1.0), qstate.ROUNDOFF_TOL
    rho = projector_rows(single)
    check_density(rho)
    m = bloch_rows(rho)
    check_bloch_length(m)
    rebuilt = from_bloch_rows(m)
    check_density(rebuilt)
    yield np.abs(rebuilt - rho).max(axis=(-2, -1)), qstate.ROUNDOFF_TOL
    rho_joint = projector_rows(joint)
    check_density(rho_joint)
    kept = kept_labels(labels, ["q0", "q2"])
    check_density(partial_trace_rows(rho_joint, [labels.index(label) for label in kept]))
    yield np.full(len(joint), float(kept != ("q0", "q2"))), 0.0


def _draw_gates(rng: np.random.Generator, n: int):
    """Per trial: random_state on (x, y, z), two uniform angles, four complex normals."""
    states, angles, raw = np.empty((n, 16)), np.empty((n, 2)), np.empty((n, 8))
    for t in range(n):
        states[t] = rng.standard_normal(16)
        angles[t] = rng.uniform(-np.pi, np.pi, size=2)
        raw[t] = rng.standard_normal(8)
    return random_rows(states), angles, random_rows(raw)


def _check_gates(psi: np.ndarray, angles: np.ndarray, raw: np.ndarray):
    # x, y, z are axes 0, 1, 2
    check_unit_norm(psi)
    twice = cnot_rows(cnot_rows(psi, 0, 2), 0, 2)
    check_unit_norm(twice)
    yield np.abs(twice - psi).max(axis=-1), qstate.ROUNDOFF_TOL
    squared = gate_rows(gate_rows(psi, 1, _H), 1, _H)
    check_unit_norm(squared)
    yield np.abs(squared - psi).max(axis=-1), qstate.ROUNDOFF_TOL
    rotated = gate_rows(gate_rows(psi, 0, ry_matrix(angles[:, 0])), 2, rz_matrix(angles[:, 1]))
    check_unit_norm(rotated)
    yield np.abs(norm_rows(rotated) - 1.0), qstate.ROUNDOFF_TOL
    target, circuit = synthesis_rows(raw)
    check_unit_norm(target)
    built = synthesized_rows(circuit)
    check_unit_norm(built)
    yield np.abs(_modulus(overlap_rows(target, built)) - 1.0), qstate.ACCUMULATED_TOL


def _draw_cloner(rng: np.random.Generator, n: int):
    """Per trial: uniform pairs until one is feasible, then random_state on a0 twice."""
    pairs, normals = [], np.empty((n, 2, 4))
    for t in range(n):
        while True:
            s0, s1 = rng.uniform(0.0, 1.0, size=2)
            pair = cloner.feasibility(float(s0), float(s1))
            if pair.feasible:
                break
        pairs.append(pair)
        normals[t] = rng.standard_normal(8).reshape(2, 4)
    return pairs, random_rows(normals)


def _check_cloner(pairs: list[cloner.ScalingPair], inputs: np.ndarray):
    n = len(pairs)
    preps = np.array([cloner.solve_prep(pair).as_amplitudes for pair in pairs])
    batch = cloner.clone_batch(inputs.reshape(2 * n, 2), np.repeat(preps, 2, axis=0))
    # axes: trial, input, clone
    s_est = batch.s_est.reshape(n, 2, 2)
    target = np.array([[pair.s0, pair.s1] for pair in pairs])[:, None, :]
    # the scaled-output form: every residual and isotropy error in tolerance
    scaled = np.maximum(batch.residual, batch.isotropy).reshape(n, 2, 2).max(axis=-1)
    shrink = np.abs(s_est - target).max(axis=-1)
    fidelity = np.abs(batch.fidelity.reshape(n, 2, 2) - 0.5 * (1.0 + s_est)).max(axis=-1)
    for k in range(2):
        yield scaled[:, k], qstate.ESTIMATE_TOL
        yield shrink[:, k], qstate.ESTIMATE_TOL
        yield fidelity[:, k], qstate.ESTIMATE_TOL


def _draw_pauli(rng: np.random.Generator, n: int):
    """Per trial: four complex normals, normalized; 8 normals a trial, drawn in one call."""
    return (random_rows(rng.standard_normal((n, 8))),)


def _check_pauli(raw: np.ndarray):
    # BellCoefficients' rule
    check_unit_norm(pauli.expand_rows(raw))
    matrix, max_off = pauli.bell_output_rows(raw)
    yield max_off, pauli.BELL_DIAGONAL_TOL
    yield np.abs(np.diagonal(matrix, axis1=-2, axis2=-1) - raw).max(axis=-1), qstate.ACCUMULATED_TOL


_SUITES = (
    ("state-algebra", _draw_state_algebra, _check_state_algebra),
    ("gates", _draw_gates, _check_gates),
    ("cloner", _draw_cloner, _check_cloner),
    ("pauli", _draw_pauli, _check_pauli),
)


def _suite_errors(rng: np.random.Generator, trials: int, draw, check):
    """(errors, tolerance) per check of each chunk of at most _VERIFY_CHUNK trials."""
    for start in range(0, trials, _VERIFY_CHUNK):
        yield from check(*draw(rng, min(_VERIFY_CHUNK, trials - start)))


def _cmd_verify(args) -> int:
    if args.trials < 1:
        print("verify: trials must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    if args.trials > MAX_TRIALS:
        print(f"verify: trials must be at most {MAX_TRIALS}", file=sys.stderr)
        return EXIT_USAGE
    if args.seed < 0:
        print("verify: seed must be non-negative", file=sys.stderr)
        return EXIT_USAGE
    rng = np.random.default_rng(args.seed)
    total_checks = total_failures = 0
    for name, draw, check in _SUITES:
        checks = failures = 0
        for errors, tol in _suite_errors(rng, args.trials, draw, check):
            checks += errors.size
            failures += int(np.count_nonzero(~(errors <= tol)))
        total_checks += checks
        total_failures += failures
        print(f"suite {name}: {checks} checks, {failures} failures")
    print(
        f"verify: {total_checks} checks, {total_failures} failures "
        f"(seed {args.seed}, trials {args.trials})"
    )
    return EXIT_OK if total_failures == 0 else EXIT_USAGE


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="asymclone", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve the preparation state for target scalings")
    p_solve.add_argument("s0", type=_parse_real, help="scaling of the original (accepts fractions like 2/3)")
    p_solve.add_argument("s1", type=_parse_real, help="scaling of the copy")
    p_solve.add_argument("--format", choices=("text", "json"), default="text")
    p_solve.set_defaults(func=_cmd_solve)

    p_clone = sub.add_parser("clone", help="clone an input state at target scalings")
    p_clone.add_argument(
        "--state",
        type=_parse_state,
        required=True,
        help="named state (0 1 + - +i -i), 'theta,phi' Bloch angles, or 're0,im0,re1,im1'",
    )
    p_clone.add_argument("--s0", type=_parse_real, required=True)
    p_clone.add_argument("--s1", type=_parse_real, required=True)
    p_clone.set_defaults(func=_cmd_clone)

    p_sweep = sub.add_parser("sweep", help="tabulate the feasible region as CSV")
    p_sweep.add_argument("--step", type=_parse_real, required=True, help=f"grid step in [{MIN_STEP}, 0.5]")
    p_sweep.add_argument("--out", default="-", help="output path, '-' for stdout")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_pauli = sub.add_parser("pauli", help="run the Bell-basis cloner on a purified input")
    for name in ("x1", "x2", "x3", "x4"):
        p_pauli.add_argument(name, type=_parse_complex, help=f"{name} as 're' or 're,im'")
    p_pauli.set_defaults(func=_cmd_pauli)

    p_verify = sub.add_parser("verify", help="run the seeded invariant suites")
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--trials", type=int, default=1000)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # built on the first call, not at import; parse_args leaves it unchanged
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        code = args.func(args)
        # a closed pipe raises here, where it can be handled, not at exit
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; point stdout at devnull so the flush
        # at interpreter exit cannot raise again (Python's SIGPIPE note)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("asymclone: stdout closed before the output was written", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
