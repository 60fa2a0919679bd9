"""Command line front end: solve, clone, sweep, pauli and verify.

Exit codes: 0 success, 1 usage or IO error, 2 infeasible scaling pair.
JSON numbers carry 12 significant digits, CSV numbers 9.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import cloner, pauli, qstate
from .gates import apply_circuit, apply_cnot, apply_hadamard, apply_ry, apply_rz, prepare_two_qubit
from .qstate import (
    _NAMED_AMPLITUDES,
    StateVector,
    basis_state,
    bloch_vector,
    from_bloch,
    named_state,
    overlap,
    partial_trace,
    random_state,
    reorder,
    tensor,
    to_density,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2

CSV_HEADER = "s0,s1,feasible,margin,c1,c2,c4,theta2,theta4,fidelity0,fidelity1,residual_max"
# bounds the sweep grid at 1001 x 1001 points
MIN_STEP = 0.001
# bounds a verify run at a few minutes
MAX_TRIALS = 100_000
# feasible sweep rows per clone_batch call: enough to spread the kernel's
# fixed cost thin, few enough that its 8x8 stack (6 probes a row) stays 1.5 MB
_SWEEP_BLOCK = 256


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


def sweep_rows(step: float) -> list[str]:
    """CSV rows for the full grid, s0 outer and s1 inner, ascending.

    Feasible rows queue up and go through the kernel _SWEEP_BLOCK at a time,
    so the kernel's fixed cost is paid once per block, not once per row.
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
    _fill_rows(rows, queued, probes)
    return rows


def _cmd_sweep(args) -> int:
    if not MIN_STEP <= args.step <= 0.5:
        print(f"sweep: step must lie in [{MIN_STEP}, 0.5]", file=sys.stderr)
        return EXIT_USAGE
    text = "\n".join([CSV_HEADER] + sweep_rows(args.step)) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(args.out, "w", newline="") as handle:
            handle.write(text)
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


# Each suite runs one trial and yields (error, tolerance) per check; a check
# fails unless error <= tolerance, so a NaN error is a failure.


def _suite_state_algebra(rng: np.random.Generator):
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


def _suite_gates(rng: np.random.Generator):
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


def _suite_cloner(rng: np.random.Generator):
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
        # the scaled-output form: every residual and isotropy error in tolerance
        yield float(np.max([batch.residual[k], batch.isotropy[k]])), qstate.ESTIMATE_TOL
        yield float(np.max(np.abs(batch.s_est[k] - target))), qstate.ESTIMATE_TOL
        yield float(np.max(np.abs(batch.fidelity[k] - 0.5 * (1.0 + batch.s_est[k])))), qstate.ESTIMATE_TOL


def _suite_pauli(rng: np.random.Generator):
    raw = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    raw = raw / np.linalg.norm(raw)
    matrix, max_off = pauli.bell_output(pauli.BellCoefficients(*raw))
    yield max_off, pauli.BELL_DIAGONAL_TOL
    yield float(np.max(np.abs(np.diag(matrix) - raw))), qstate.ACCUMULATED_TOL


_SUITES = (
    ("state-algebra", _suite_state_algebra),
    ("gates", _suite_gates),
    ("cloner", _suite_cloner),
    ("pauli", _suite_pauli),
)


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
    for name, suite in _SUITES:
        failed = [not err <= tol for _ in range(args.trials) for err, tol in suite(rng)]
        total_checks += len(failed)
        total_failures += sum(failed)
        print(f"suite {name}: {len(failed)} checks, {sum(failed)} failures")
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
