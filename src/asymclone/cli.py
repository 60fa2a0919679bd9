"""Command line front end: solve, clone, sweep, pauli and verify.

Exit codes: 0 success, 1 usage or IO error, 2 infeasible scaling pair.
JSON numbers carry 12 significant digits, CSV numbers 9.

Importing this module and building its parser run no numpy code. numpy and
the package's other modules are lazy modules, each loaded on the first read
of one of its names. So --help and usage errors load no numpy.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import re
import shutil
import sys
from json.encoder import encode_basestring_ascii

from . import ESTIMATE_TOL, GRID_SLACK, RENORMALIZE_WARN, ZERO_NORM_FLOOR
from . import _NAMED_AMPLITUDES, _lazy, cloner, gates, pauli, qstate

np = _lazy("numpy")


def __getattr__(name: str):
    # bench/test_bench.py reads these names here; each is its home module's binding, traced or not
    if name in ("partial_trace", "reorder", "tensor", "to_density"):
        return getattr(qstate, name)
    if name == "apply_cnot":
        return gates.apply_cnot
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2

CSV_HEADER = "s0,s1,feasible,margin,c1,c2,c4,theta2,theta4,fidelity0,fidelity1,residual_max"
# bounds the sweep grid at 1001 x 1001 points
MIN_STEP = 0.001
# bounds a verify run at about a second of work (--trials 100000: 1-1.6 s wall on 2 shared x86_64 CPUs)
MAX_TRIALS = 100_000
# sweep grid points per block of whole s0 rows (one block up to step 1/21):
# enough to spread numpy's per-call cost thin, few enough that the kernel
# (6 probes a point it runs on) peaks near 1.2 MB for 960 rows and a whole
# sweep --step 0.05 call near 2.3 MB
_SWEEP_POINTS = 512
# solve's text report of the JSON report's numbers: nine, then the [re, im] parts of four amplitudes, im signed as
# {:+} signs a float
_SOLVE_TEXT = "s0 = {0}  s1 = {1}  margin = {2}\nc1 = {3}  theta1 = {6}\nc2 = {4}  theta2 = {7}\n"
_SOLVE_TEXT += "c4 = {5}  theta4 = {8}\namplitudes: {9}{10}j, {11}{12}j, {13}{14}j, {15}{16}j"
# verify trials per stacked pass: enough to spread numpy's per-call cost
# thin, few enough that a suite's largest stack (8x8 per trial) stays 1 MB
_VERIFY_CHUNK = 1024
# _rounded's text of the exact-zero tokens, repr(float(t) + 0.0) looked up
_ZERO_TEXT = {"0": "0.0", "-0": "0.0"}
# the non-integral %.12g tokens whose repr text differs: e+12 to e+15 and the subnormals among e-3xx
_REWRITTEN = re.compile(r"e\+1|e-3\d\d")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default, which collides with the
    # infeasible-input code, so route usage failures to exit 1
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self._usage(shutil.get_terminal_size().columns)}{self.prog}: error: {message}\n")

    @functools.cache
    def _usage(self, columns: int) -> str:  # once per terminal width, the columns argparse's HelpFormatter reads
        return self.format_usage()

    # argparse of 3.11+ drops a message it cannot write (no stderr, or a failed write); 3.10 raises
    def _print_message(self, message, file=None):
        with contextlib.suppress(AttributeError, OSError):
            super()._print_message(message, file)

    # argparse of Python 3.10.13, 3.11.7 and 3.12.1 (3.13.0 after the separator) stores [], untyped, for a
    # value that is exactly '--'; 3.13.13 hands type and choices the literal string, as _settle does
    def _get_values(self, action, arg_strings):
        if action.nargs is None and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


@functools.cache
def _keep_freed_memory() -> None:
    """On glibc, keep up to 64 MiB of freed memory in the process for sweep's and verify's next block or call.

    glibc's defaults unmap each freed block of 128 KiB or more and trim a free heap top past 128 KiB, so each call
    would fault its temporaries in again; these are the thresholds glibc's own rule reaches after a 32 MiB free.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):  # no confstr, or a C library that does not know the name
        return
    import ctypes

    libc = ctypes.CDLL(None)
    libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _finite(values: list[float]) -> list[float]:
    """The values unchanged; ValueError if any is NaN or infinite."""
    if not all(map(math.isfinite, values)):
        raise ValueError("non-finite number")
    return values


def _unit(raw: list[complex]) -> tuple[list[complex], float]:
    """raw / |raw| and |raw|, for a list of Python complex numbers; ValueError names a zero or overflowing norm.

    The norm is taken of raw scaled by 2**-k and scaled back by 2**k, k the
    binary exponent of its largest real or imaginary part (0 when that is
    below 1): powers of two scale exactly, and no square can overflow.
    """
    k = max(math.frexp(max([max(abs(z.real), abs(z.imag)) for z in raw]))[1], 0)
    scaled = [z * math.ldexp(1.0, -k) for z in raw]
    try:
        # the real parts' squares, then the imaginary parts', in the order of numpy's re.dot(re) + im.dot(im) without FMA
        norm_sq = sum([z.real * z.real for z in scaled]) + sum([z.imag * z.imag for z in scaled])
        norm = math.ldexp(math.sqrt(norm_sq), k)
    except OverflowError:
        raise ValueError("a norm past the float range") from None
    if norm < ZERO_NORM_FLOOR:
        raise ValueError("zero norm")
    inverse = 1.0 / norm  # times the reciprocal, as numpy divides a complex array by a float
    return [z * inverse for z in raw], norm


def _parse_real(text: str) -> float:
    num, slash, den = text.partition("/")
    try:
        return _finite([float(num) / float(den) if slash else float(text)])[0]
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a real number: {text!r}") from None


def _parse_state(text: str) -> list[complex]:
    """2 Python complex amplitudes, unit to round-off, of a named state, 'theta,phi' Bloch angles or 're0,im0,re1,im1'."""
    if text in _NAMED_AMPLITUDES:
        return [complex(z) for z in _NAMED_AMPLITUDES[text]]
    parts = text.split(",")
    try:
        values = _finite([float(p) for p in parts])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad state spec {text!r}") from None
    if len(values) == 2:
        theta, phi = values
        return [complex(math.cos(theta / 2.0)), complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2.0)]
    if len(values) == 4:
        try:
            return _unit([complex(values[0], values[1]), complex(values[2], values[3])])[0]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"state spec {text!r} has {exc}") from None
    raise argparse.ArgumentTypeError(f"bad state spec {text!r}: use a named state, 'theta,phi' or 're0,im0,re1,im1'")


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) in (1, 2):
            return complex(*_finite([float(p) for p in parts]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"bad complex literal {text!r}: use 're' or 're,im'")


def _csv_num(x: float) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0
    return format(x, ".9g")


def _rounded(values: list) -> list[str]:
    """Each value's text repr(float(format(x, ".12g")) + 0.0), all from one %-template; ValueError on NaN or inf.

    A token of at most 12 digits reads back as a double whose repr has its digits, so each token is its own text
    but integral ones (repr adds .0; -0 is 0.0), e+12 to e+15 (repr is positional) and subnormals (digits change).
    """
    text = ("%.12g " * len(values)) % tuple(values)
    if "n" in text or _REWRITTEN.search(text):  # no finite number's token holds the n of nan or inf
        return [repr(x + 0.0) for x in _finite([float(t) for t in text.split()])]
    return [t if "." in t or "e" in t else _ZERO_TEXT.get(t) or repr(float(t) + 0.0) for t in text.split()]


def _json_list(items: list[str], depth: int, brackets: str = "[]") -> str:
    """Items already laid out at depth + 1, joined as json.dumps(indent=2) joins them."""
    if not items:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * depth + brackets[1]


def _template(tag, depth: int) -> str:
    """%-template of a tagged value as json.dumps(indent=2) lays it out at this depth; a complex number is [re, im]."""
    if not isinstance(tag, tuple):
        return {None: "null", True: "true", False: "false"}.get(tag, "%s")  # str and float: one fill each
    if tag[:1] == (complex,):
        tag = ((complex, *tag[2:]),) * tag[1] if tag[1:] else (float, float)
    return _json_list([_template(t, depth + 1) for t in tag], depth)


def _escaped(text: str) -> str:
    return encode_basestring_ascii(text).replace("%", "%%")


def _layout_text(pairs) -> str:
    """%-template of a flat dict with these (key, tag) pairs; a % in a key or a constant is escaped."""

    def value(tag) -> str:  # a list of str is a constant, written in
        return _json_list([_escaped(s) for s in tag], 1) if isinstance(tag, list) else _template(tag, 1)

    return _json_list([f"{_escaped(k)}: {value(t)}" for k, t in pairs], 0, "{}")


# Each JSON report's layout, its (key, tag) pairs in print order. A tag is float (a number), None, True or False (the
# literal), str (a string filled per call, after every number), a tuple of tags (a list), (complex, *shape) (an
# array of [re, im] pairs) or a list of str (a constant). Each is a function, so cloner's and pauli's constants are
# read on the report's first use.
_PAIR = (("s0", float), ("s1", float))
_REPORTS = {
    "solve": lambda: (
        *_PAIR, ("feasible", True), ("margin", float),
        *[(k, float) for k in ("c1", "c2", "c4", "theta1", "theta2", "theta4")], ("amplitudes", (complex, 4)),
    ),
    "infeasible": lambda: (*_PAIR, ("feasible", False), ("margin", float), ("reason", str)),
    "infeasible, null margin": lambda: (*_PAIR, ("feasible", False), ("margin", None), ("reason", str)),
    "clone": lambda: (
        ("input", (complex, 2)), ("s0_target", float), ("s1_target", float), ("margin", float),
        ("joint_labels", list(cloner.NETWORK_LABELS)), ("joint", (complex, 8)), ("rho_a0", (complex, 2, 2)),
        ("rho_a1", (complex, 2, 2)),
        *[(k, float) for k in ("s0_est", "s1_est", "residual0", "residual1", "fidelity0", "fidelity1")],
    ),
    "pauli": lambda: (
        ("input", (complex, 4)), ("bell_order", list(pauli.BELL_NAMES)), ("coefficients", (complex, 4, 4)),
        ("diagonal", (complex, 4)), ("max_offdiagonal", float),
    ),
}


@functools.cache
def _layout(report: str) -> str:
    """The %-template of a report in _REPORTS, built on its first use."""
    return _layout_text(_REPORTS[report]())


def _json_text(template: str, numbers: list[float], *strings: str) -> str:
    """A layout's template filled as json.dumps(indent=2, allow_nan=False) writes it; ValueError on NaN or inf.

    numbers are the layout's floats in order, a complex number as its real
    and imaginary parts; strings fill its str slots.
    """
    return template % (*_rounded(numbers), *[encode_basestring_ascii(s) for s in strings])


def _parts(values: list[complex] | tuple[complex, ...]) -> list[float]:
    """The real and imaginary parts of complex numbers, in order."""
    return [x for z in values for x in (z.real, z.imag)]


def _emit_infeasible(pair: cloner.ScalingPair, fmt: str) -> int:
    # the margin of an out-of-range pair can overflow to inf or NaN, and prints as null
    finite = math.isfinite(pair.margin)
    numbers = [pair.s0, pair.s1, pair.margin] if finite else [pair.s0, pair.s1]
    if fmt == "json":
        print(_json_text(_layout("infeasible" if finite else "infeasible, null margin"), numbers, pair.reason))
    else:
        s0, s1, margin, *_ = _rounded(numbers) + ["null"]
        print(f"infeasible: s0 = {s0}, s1 = {s1}, margin = {margin} ({pair.reason})")
    return EXIT_INFEASIBLE


def _cmd_solve(args) -> int:
    pair = cloner.feasibility(args.s0, args.s1)
    if not pair.feasible:
        return _emit_infeasible(pair, args.format)
    prep = cloner.solve_prep(pair)
    numbers = [pair.s0, pair.s1, pair.margin, prep.c1, prep.c2, prep.c4, prep.theta1, prep.theta2, prep.theta4]
    numbers += _parts(prep.amplitudes)
    if args.format == "json":
        print(_json_text(_layout("solve"), numbers))
    else:
        texts = _rounded(numbers)
        texts[10::2] = [text if text[0] == "-" else "+" + text for text in texts[10::2]]
        print(_SOLVE_TEXT.format(*texts))
    return EXIT_OK


def _cmd_clone(args) -> int:
    pair = cloner.feasibility(args.s0, args.s1)
    if not pair.feasible:
        return _emit_infeasible(pair, "json")
    # the parsed input's one unit-norm check is clone_row's
    joint, rho, s_est, residual, fidelity = cloner.clone_row(args.state, cloner.solve_prep(pair).amplitudes)
    entries = _parts(joint + [z for clone in rho for row in clone for z in row])
    numbers = _parts(args.state) + [pair.s0, pair.s1, pair.margin] + entries + s_est + residual + fidelity
    print(_json_text(_layout("clone"), numbers))
    return EXIT_OK


def _sweep_values(step: float) -> list[float]:
    count = int(np.floor(1.0 / step + GRID_SLACK))
    return [k * step for k in range(count + 1)]


def _block_rows(
    s0_text: list[str], s1_text: list[str], margin: np.ndarray, feasible: np.ndarray, solved: np.ndarray
) -> list[str]:
    """The CSV rows of a block of s0 grid rows, formatting each distinct number of the block once with %.9g.

    margin and feasible are (rows, points); solved holds the eight columns after the margin of each feasible point,
    in grid order. + 0.0 turns -0.0 into 0, the rule _csv_num applies number by number. The numbers repeat: c2
    depends on s0 alone, c4 on s1 alone, and theta2(s0, s1) is theta4(s1, s0).
    """
    values, index = np.unique(np.concatenate([margin.ravel(), solved.ravel()]) + 0.0, return_inverse=True)
    text = np.array(["%.9g" % x for x in values.tolist()], dtype=object)
    margins = iter(text[index[: margin.size]].tolist())
    tails = iter(map(",".join, text[index[margin.size :].reshape(-1, 8)].tolist()))
    return [
        f"{s0},{s1},true,{next(margins)},{next(tails)}" if ok else f"{s0},{s1},false,{next(margins)},,,,,,,,"
        for s0, flags in zip(s0_text, feasible.tolist())
        for s1, ok in zip(s1_text, flags)
    ]


def _sweep_blocks(step: float):
    """The sweep's CSV rows in order, in lists complete up to each kernel call.

    The grid goes in blocks of whole s0 rows, about _SWEEP_POINTS points a
    block: one pass of the feasibility rule, one solve_rows call on the
    block's feasible points and one clone_batch call: six probes a point.
    Swapping s0 and s1 swaps the two clones bit for bit (see cloner), so
    the kernel skips a point (i, j) with j < i whose mirror (j, i) is
    feasible: it reads the mirror's store, fidelity0 and fidelity1 swapped.
    """
    probes = np.array(list(_NAMED_AMPLITUDES.values()), dtype=complex)
    values = _sweep_values(step)
    grid = np.array(values)
    text = [_csv_num(s) for s in values]
    n = len(values)
    per_block = max(1, _SWEEP_POINTS // n)
    flags, store = np.zeros((n, n), dtype=bool), np.empty((n, n, 3))  # own points' fidelity0, fidelity1, residual_max
    for start in range(0, n, per_block):
        margin, in_range, over = cloner.feasibility_rule(grid[start : start + per_block, None], grid)
        feasible = flags[start : start + per_block] = in_range & ~over
        i, j = np.nonzero(feasible)
        i += start
        columns, preps = cloner.solve_rows(grid[i], grid[j])
        mirror = (j < i) & flags[j, i]
        batch = cloner.clone_batch(probes, preps[~mirror, None])
        # the CSV reads probe 0's fidelity alone; on a C-ordered copy, as @ on strided operands may differ
        fidelity = qstate.fidelity_rows(probes[0], np.ascontiguousarray(batch.rho[:, 0]))
        store[i[~mirror], j[~mirror]] = np.column_stack([fidelity, qstate.max_rows(qstate.max_rows(batch.residual))])
        tail = store[np.where(mirror, j, i), np.where(mirror, i, j)]
        tail[mirror] = tail[mirror][:, [1, 0, 2]]
        solved = np.column_stack([columns, tail])
        yield _block_rows(text[start : start + per_block], text, margin, feasible, solved)


def sweep_rows(step: float) -> list[str]:
    """CSV rows for the full grid, s0 outer and s1 inner, ascending."""
    return [row for block in _sweep_blocks(step) for row in block]


def _write_sweep(handle, step: float) -> None:
    handle.write(CSV_HEADER + "\n")
    for block in _sweep_blocks(step):
        handle.write("\n".join(block) + "\n")


def _cmd_sweep(args) -> int:
    if not MIN_STEP <= args.step <= 0.5:
        print(f"sweep: step must lie in [{MIN_STEP}, 0.5]", file=sys.stderr)
        return EXIT_USAGE
    _keep_freed_memory()
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
        unit, norm = _unit([args.x1, args.x2, args.x3, args.x4])
    except ValueError as exc:
        print(f"pauli: coefficients have {exc}", file=sys.stderr)
        return EXIT_USAGE
    if abs(norm - 1.0) > RENORMALIZE_WARN:
        print(f"pauli: renormalizing input of norm {norm:.9g}", file=sys.stderr)
    matrix, max_off = pauli.bell_output_row(unit)
    if not max_off <= pauli.BELL_DIAGONAL_TOL:
        print(f"pauli: output is not Bell-diagonal (max off-diagonal {max_off:.3g})", file=sys.stderr)
        return EXIT_USAGE
    diagonal = [matrix[k][k] for k in range(4)]
    print(_json_text(_layout("pauli"), _parts(unit + [z for row in matrix for z in row] + diagonal) + [max_off]))
    return EXIT_OK


# Each suite is a pair of functions over a chunk of n trials. draw returns
# the trials' random inputs as stacks, each kind of number drawn for the
# whole chunk at once, so a seed's inputs depend on (seed, trials,
# _VERIFY_CHUNK). check yields (errors, tolerance) per check, one error per
# trial; a check fails unless error <= tolerance, so a NaN error fails. The
# validity rules the object functions apply (unit norm, density, Bloch
# length) run on every stack a check reads.


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z|, as abs() of a Python complex gives it (np.abs differs in the last bit)."""
    return np.hypot(z.real, z.imag)


def _draw_state_algebra(rng: np.random.Generator, n: int):
    """random_state on q0, then on (q1, q2): 12 normals a trial, drawn in one call."""
    normals = rng.standard_normal((n, 12))
    return qstate.random_rows(normals[:, :4]), qstate.random_rows(normals[:, 4:])


def _check_state_algebra(single: np.ndarray, double: np.ndarray):
    qstate.check_unit_norm(single)
    qstate.check_unit_norm(double)
    labels = ("q0", "q1", "q2")
    joint = qstate.tensor_rows(single, double)
    qstate.check_unit_norm(joint)
    yield np.abs(qstate.norm_rows(joint) - 1.0), qstate.ROUNDOFF_TOL
    # to (q2, q0, q1) and back
    shuffled = qstate.reorder_rows(joint, (2, 0, 1))
    qstate.check_unit_norm(shuffled)
    back = qstate.reorder_rows(shuffled, (1, 2, 0))
    qstate.check_unit_norm(back)
    yield np.abs(back - joint).max(axis=-1), qstate.ROUNDOFF_TOL
    yield np.abs(_modulus(qstate.overlap_rows(joint, back)) - 1.0), qstate.ROUNDOFF_TOL
    rho = qstate.projector_rows(single)
    qstate.check_density(rho)
    m = qstate.bloch_rows(rho)
    qstate.check_bloch_length(m)
    rebuilt = qstate.from_bloch_rows(m)
    qstate.check_density(rebuilt)
    yield np.abs(rebuilt - rho).max(axis=(-2, -1)), qstate.ROUNDOFF_TOL
    # no density check: test_projector_of_a_norm_checked_state_is_a_density_matrix
    rho_joint = qstate.projector_rows(joint)
    kept = qstate.kept_labels(labels, ["q0", "q2"])
    qstate.check_density(qstate.partial_trace_rows(rho_joint, [labels.index(label) for label in kept]))
    yield np.full(len(joint), float(kept != ("q0", "q2"))), 0.0


def _draw_gates(rng: np.random.Generator, n: int):
    """random_state on (x, y, z), two uniform angles and four complex normals a trial."""
    states = rng.standard_normal((n, 16))
    angles = rng.uniform(-np.pi, np.pi, size=(n, 2))
    return qstate.random_rows(states), angles, qstate.random_rows(rng.standard_normal((n, 8)))


def _check_gates(psi: np.ndarray, angles: np.ndarray, raw: np.ndarray):
    # x, y, z are axes 0, 1, 2
    qstate.check_unit_norm(psi)
    twice = gates.cnot_rows(gates.cnot_rows(psi, 0, 2), 0, 2)
    qstate.check_unit_norm(twice)
    yield np.abs(twice - psi).max(axis=-1), qstate.ROUNDOFF_TOL
    squared = gates.gate_rows(gates.gate_rows(psi, 1, gates._H), 1, gates._H)
    qstate.check_unit_norm(squared)
    yield np.abs(squared - psi).max(axis=-1), qstate.ROUNDOFF_TOL
    rotated = gates.gate_rows(gates.gate_rows(psi, 0, gates.ry_matrix(angles[:, 0])), 2, gates.rz_matrix(angles[:, 1]))
    qstate.check_unit_norm(rotated)
    yield np.abs(qstate.norm_rows(rotated) - 1.0), qstate.ROUNDOFF_TOL
    target, circuit = gates.synthesis_rows(raw)
    qstate.check_unit_norm(target)
    built = gates.synthesized_rows(circuit)
    qstate.check_unit_norm(built)
    yield np.abs(_modulus(qstate.overlap_rows(target, built)) - 1.0), qstate.ACCUMULATED_TOL


def _draw_cloner(rng: np.random.Generator, n: int):
    """Feasible uniform pairs as (n, 2), kept in draw order from batches of 2n; then random_state on a0 twice."""
    pairs = np.empty((0, 2))
    while len(pairs) < n:
        batch = rng.uniform(0.0, 1.0, size=(2 * n, 2))
        _, in_range, over = cloner.feasibility_rule(batch[:, 0], batch[:, 1])
        pairs = np.concatenate([pairs, batch[in_range & ~over]])
    return pairs[:n], qstate.random_rows(rng.standard_normal((n, 2, 4)))


def _check_cloner(target: np.ndarray, inputs: np.ndarray):
    _, preps = cloner.solve_rows(target[:, 0], target[:, 1])
    # axes: trial, input, clone
    batch = cloner.clone_batch(inputs, preps[:, None])
    # the scaled-output form: every residual and isotropy error in tolerance
    scaled = np.maximum(batch.residual, batch.isotropy).max(axis=-1)
    shrink = np.abs(batch.s_est - target[:, None, :]).max(axis=-1)
    fidelity = np.abs(batch.fidelity - 0.5 * (1.0 + batch.s_est)).max(axis=-1)
    for k in range(2):
        yield scaled[:, k], ESTIMATE_TOL
        yield shrink[:, k], ESTIMATE_TOL
        yield fidelity[:, k], ESTIMATE_TOL


def _draw_pauli(rng: np.random.Generator, n: int):
    """Per trial: four complex normals, normalized; 8 normals a trial, drawn in one call."""
    return (qstate.random_rows(rng.standard_normal((n, 8))),)


def _check_pauli(raw: np.ndarray):
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
    _keep_freed_memory()
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
    # the help text is the docstring without its last paragraph, on imports (python -OO drops both)
    parser = _Parser(prog="asymclone", description=__doc__ and __doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # each command's own parser by name, for _parse

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


@functools.cache
def _grammar(command: argparse.ArgumentParser):
    """A command's actions by option string, its positionals in order, its required dests and its defaults."""
    actions = [a for a in command._actions if a.nargs is None]  # all but help, each storing one value
    options = {opt: a for a in actions for opt in a.option_strings}
    defaults = {a.dest: a.default for a in actions} | {"func": command.get_default("func")}
    required = {a.dest for a in actions if a.required}
    return options, [a for a in actions if not a.option_strings], required, defaults


def _settle(name: str, command: argparse.ArgumentParser, tokens: list[str]) -> argparse.Namespace | None:
    """The Namespace parse_args gives for [name, *tokens] of exact '--opt value' or '--opt=value' options and
    positionals, one '--' before them; None for anything else, which the full parser and its messages decide."""
    options, positionals, required, defaults = _grammar(command)
    given, args, rest, values = [], [], iter(tokens), {"command": name}
    for token in rest:
        if token == "--" and positionals and not args:
            args = list(rest)
        elif not token.startswith("-"):
            args.append(token)
        else:
            opt, eq, text = token.partition("=")
            text = text if eq else next(rest, "-")
            if opt not in options or (not eq and text.startswith("-")):
                return None
            given.append((options[opt], text))
    if len(args) != len(positionals) or "--" in args:
        return None
    for action, text in given + list(zip(positionals, args)):
        try:
            value = text if action.type is None else action.type(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            # what argparse's _get_value turns into a usage error
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    return argparse.Namespace(**(defaults | values)) if required <= values.keys() else None


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv settled from its command's own actions where _settle can, else by the full parser and its messages."""
    parser = _shared_parser()
    if argv and argv[0] in parser.commands:
        args = _settle(argv[0], parser.commands[argv[0]], argv[1:])
        if args is not None:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if sys.stdout is None:
        # Python starts with sys.stdout None when fd 1 is closed
        print("asymclone: stdout is closed", file=sys.stderr)
        return EXIT_USAGE
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        code = args.func(args)
        # a failed write raises here, where it can be handled, not at exit
        sys.stdout.flush()
    except OSError as exc:
        # devnull on fd 1, so the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            print("asymclone: stdout closed before the output was written", file=sys.stderr)
        else:
            print(f"asymclone: cannot write to stdout: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
