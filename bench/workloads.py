"""Seeded argv generators for the four workloads, with independent output checks.

Every check derives its expectation from the benchmark's own arithmetic (the
feasibility margin, the closed-form moduli, the normalised input), never from
another answer of the program. Malformed requests are mixed in at a fixed
share. Those that hit the defects listed in ROADMAP item 4 carry the name of
the defect in ``Op.defect``: they count as failed, and are the only failures
a correct run may have.
"""
from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field

FEASIBLE_TOL = 1e-12  # the CLI's own margin tolerance
BAND = 1e-9  # |margin| below this: either classification is accepted
EST_TOL = 1e-8
BELL_TOL = 1e-9

# share of the unit square with s0^2 + s1^2 + s0*s1 - s0 - s1 <= 0
FEASIBLE_AREA = 0.7368

CSV_HEADER = "s0,s1,feasible,margin,c1,c2,c4,theta2,theta4,fidelity0,fidelity1,residual_max"

SWEEP_DIVISIONS = (10, 11, 12, 13, 14)  # grid steps 1/k
VERIFY_TRIALS = 50
VERIFY_CHECKS_PER_TRIAL = {"state-algebra": 5, "gates": 4, "cloner": 6, "pauli": 2}

REQUESTS_PER_PASS = 400
PAULI_PER_PASS = 320
MALFORMED_EVERY = 20

NAMED_STATES = ("0", "1", "+", "-", "+i", "-i")

# sweep --step below ~1e-9 builds an unbounded grid and hangs the run instead
# of failing one operation (ROADMAP item 4), so no workload sends it
EXCLUDED = ("sweep --step 1e-300",)


@dataclass
class Op:
    """One CLI call: its argv, operations it stands for and what to expect."""

    argv: list[str]
    kind: str
    n_ops: int = 1
    expect: dict = field(default_factory=dict)
    defect: str | None = None
    fingerprint: bool = False  # record the sha256 of stdout


@dataclass
class Outcome:
    """How a call ended: an exit code, or the name of the exception it raised."""

    code: int | None
    raised: str | None
    stdout: str
    stderr: str


def margin(s0: float, s1: float) -> float:
    return s0 * s0 + s1 * s1 + s0 * s1 - s0 - s1


def parse_real(text: str) -> float:
    """The CLI's number syntax: a float literal or a fraction num/den."""
    if "/" in text:
        num, den = text.split("/")
        return float(num) / float(den)
    return float(text)


def expected_exits(s0: float, s1: float) -> set[int]:
    in_range = -FEASIBLE_TOL <= s0 <= 1 + FEASIBLE_TOL and -FEASIBLE_TOL <= s1 <= 1 + FEASIBLE_TOL
    m = margin(s0, s1)
    if not in_range or m > BAND:
        return {2}
    if m < -BAND:
        return {0}
    return {0, 2}


def strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-finite number {token} in JSON")

    return json.loads(text, parse_constant=reject)


def _num(x: float) -> str:
    return f"{x:.6f}"


def _positionals(command: str, values: list[str]) -> list[str]:
    """argv for positional values; '--' keeps '-0.3,0.2' or '-inf' from reading as flags."""
    if any(v.startswith("-") for v in values):
        return [command, "--"] + values
    return [command] + values


def _pair(rng: random.Random, feasible: bool) -> tuple[str, str]:
    """A uniform pair on the unit square, drawn until its class matches."""
    while True:
        if rng.random() < 0.1:
            q = rng.randint(2, 12)
            texts = (f"{rng.randint(0, q)}/{q}", f"{rng.randint(0, q)}/{q}")
        else:
            texts = (_num(rng.random()), _num(rng.random()))
        if (margin(*map(parse_real, texts)) <= FEASIBLE_TOL) == feasible:
            return texts


def _state_spec(rng: random.Random) -> tuple[str, list[complex]]:
    style = rng.randrange(3)
    if style == 0:
        name = rng.choice(NAMED_STATES)
        h = 1 / math.sqrt(2)
        amps = {
            "0": [1, 0], "1": [0, 1], "+": [h, h], "-": [h, -h], "+i": [h, 1j * h], "-i": [h, -1j * h],
        }[name]
        return f"--state={name}", amps
    if style == 1:
        theta, phi = _num(rng.uniform(0, math.pi)), _num(rng.uniform(0, 2 * math.pi))
        t, p = float(theta), float(phi)
        return f"--state={theta},{phi}", [math.cos(t / 2), complex(math.cos(p), math.sin(p)) * math.sin(t / 2)]
    values = [_num(rng.gauss(0, 1)) for _ in range(4)]
    re0, im0, re1, im1 = map(float, values)
    norm = math.sqrt(re0 * re0 + im0 * im0 + re1 * re1 + im1 * im1)
    return "--state=" + ",".join(values), [complex(re0, im0) / norm, complex(re1, im1) / norm]


def _wellformed_request(rng: random.Random, kind: str, feasible: bool) -> Op:
    s0, s1 = _pair(rng, feasible)
    expect = {"s0": parse_real(s0), "s1": parse_real(s1)}
    if kind == "clone":
        spec, amps = _state_spec(rng)
        expect["input"] = amps
        return Op(["clone", spec, "--s0", s0, "--s1", s1], kind, expect=expect)
    fmt = kind.split("-")[1]
    argv = ["solve", s0, s1] if fmt == "text" and rng.random() < 0.5 else ["solve", s0, s1, "--format", fmt]
    return Op(argv, kind, expect=expect)


def _malformed_request(rng: random.Random, kind: str) -> Op:
    s0, s1 = _num(rng.random()), _num(rng.random())
    clone_tail = ["--s0", s0, "--s1", s1]
    x = _num(rng.uniform(-1, 1))
    argv, defect = {
        "solve-nan": (["solve", "nan", s1], "solve: ValueError traceback on a NaN scaling"),
        "solve-inf": (_positionals("solve", [s0, rng.choice(("inf", "-inf"))]), "solve: ValueError traceback on an infinite scaling"),
        "clone-nan-angle": (["clone", f"--state=nan,{x}"] + clone_tail, "clone: NaN state accepted (LinAlgError or exit 2)"),
        "clone-inf-amp": (["clone", f"--state={x},inf,{s0},{s1}"] + clone_tail, "clone: infinite amplitude accepted (LinAlgError or exit 2)"),
        "solve-div-zero": (["solve", f"{rng.randint(1, 9)}/0", s1], None),
        "solve-word": (["solve", rng.choice(("abc", "one", "0.5x")), s1], None),
        "solve-format": (["solve", s0, s1, "--format", "xml"], None),
        "clone-name": (["clone", "--state=" + rng.choice(("foo", "++", "i"))] + clone_tail, None),
        "clone-zero-norm": (["clone", "--state=0,0,0,0"] + clone_tail, None),
        "clone-three": (["clone", f"--state={x},{s0},{s1}"] + clone_tail, None),
    }[kind]
    # a non-finite scaling may be reported as infeasible as well as rejected
    exits = {1, 2} if kind in ("solve-nan", "solve-inf") else {1}
    return Op(argv, "malformed:" + kind, expect={"exits": exits}, defect=defect)


REQUEST_KINDS = ("solve-text", "solve-json", "clone")
MALFORMED_REQUESTS = (
    "solve-nan", "solve-inf", "clone-nan-angle", "clone-inf-amp", "solve-div-zero",
    "solve-word", "solve-format", "clone-name", "clone-zero-norm", "clone-three",
)


def requests_pass(rng: random.Random) -> list[Op]:
    """Stratified: exact shares of kinds, feasible pairs and malformed kinds."""
    n_bad = REQUESTS_PER_PASS // MALFORMED_EVERY
    ops = [_malformed_request(rng, MALFORMED_REQUESTS[i % len(MALFORMED_REQUESTS)]) for i in range(n_bad)]
    n_good = REQUESTS_PER_PASS - n_bad
    for j, kind in enumerate(REQUEST_KINDS):
        count = n_good // len(REQUEST_KINDS) + (j < n_good % len(REQUEST_KINDS))
        n_feasible = round(count * FEASIBLE_AREA)
        ops += [_wellformed_request(rng, kind, i < n_feasible) for i in range(count)]
    rng.shuffle(ops)
    return ops


def _coefficient(z: complex) -> str:
    return f"{z.real:.10g}" if z.imag == 0 else f"{z.real:.10g},{z.imag:.10g}"


def _parse_coefficient(text: str) -> complex:
    parts = [float(p) for p in text.split(",")]
    return complex(parts[0], parts[1] if len(parts) == 2 else 0.0)


def _wellformed_pauli(rng: random.Random, normalized: bool) -> Op:
    # about one coefficient in four is a real literal
    raw = [complex(rng.gauss(0, 1), rng.gauss(0, 1) if rng.random() < 0.75 else 0.0) for _ in range(4)]
    norm = math.sqrt(sum(abs(z) ** 2 for z in raw))
    if normalized:
        raw = [z / norm for z in raw]
    texts = [_coefficient(z) for z in raw]
    values = [_parse_coefficient(t) for t in texts]
    norm = math.sqrt(sum(abs(z) ** 2 for z in values))
    expect = {"diagonal": [z / norm for z in values], "norm": norm}
    return Op(_positionals("pauli", texts), "pauli", expect=expect)


MALFORMED_PAULI = (
    "pauli-nan", "pauli-inf", "pauli-nan-imag", "pauli-zero",
    "pauli-three-parts", "pauli-word", "pauli-missing", "pauli-fraction",
)


def _malformed_pauli(rng: random.Random, kind: str) -> Op:
    xs = [_num(rng.uniform(-1, 1)) for _ in range(4)]
    slot = rng.randrange(4)
    if kind == "pauli-nan":
        xs[slot], defect = "nan", "pauli: exit 0 with NaN in the JSON"
    elif kind == "pauli-inf":
        xs[slot], defect = rng.choice(("inf", "-inf")), "pauli: exit 0 with NaN in the JSON"
    elif kind == "pauli-nan-imag":
        xs[slot], defect = f"{xs[slot]},nan", "pauli: exit 0 with NaN in the JSON"
    else:
        defect = None
        if kind == "pauli-zero":
            xs = ["0", "0,0", "0", "-0"]
        elif kind == "pauli-three-parts":
            xs[slot] = f"{xs[slot]},1,2"
        elif kind == "pauli-word":
            xs[slot] = rng.choice(("x", "1j", "one"))
        elif kind == "pauli-missing":
            xs.pop(slot)
        else:
            xs[slot] = f"1/{rng.randint(2, 9)}"
    return Op(_positionals("pauli", xs), "malformed:" + kind, expect={"exits": {1}}, defect=defect)


def pauli_pass(rng: random.Random) -> list[Op]:
    n_bad = PAULI_PER_PASS // MALFORMED_EVERY
    ops = [_malformed_pauli(rng, MALFORMED_PAULI[i % len(MALFORMED_PAULI)]) for i in range(n_bad)]
    n_good = PAULI_PER_PASS - n_bad
    ops += [_wellformed_pauli(rng, i < n_good // 2) for i in range(n_good)]
    rng.shuffle(ops)
    return ops


def sweep_pass(rng: random.Random) -> list[Op]:
    """One sweep per grid step 1/k, in seeded order."""
    divisions = list(SWEEP_DIVISIONS)
    rng.shuffle(divisions)
    return [Op(["sweep", "--step", f"1/{k}"], "sweep", (k + 1) ** 2, {"k": k}, fingerprint=True) for k in divisions]


def verify_op(seed: int, trials: int, fingerprint: bool = False) -> Op:
    n_checks = trials * sum(VERIFY_CHECKS_PER_TRIAL.values())
    return Op(["verify", "--seed", str(seed), "--trials", str(trials)], "verify", n_checks,
              {"seed": seed, "trials": trials}, fingerprint=fingerprint)


def verify_pass(rng: random.Random) -> list[Op]:
    return [verify_op(rng.randrange(2**31), VERIFY_TRIALS)]


PASSES = {
    "sweep": sweep_pass,
    "verify": verify_pass,
    "requests": requests_pass,
    "pauli": pauli_pass,
}


def make_pass(workload: str, seed: int, index: int) -> list[Op]:
    return PASSES[workload](random.Random(f"{workload}:{seed}:{index}"))


# ---- checks: each returns (operations failed, reason or None) ----

def check(op: Op, out: Outcome) -> tuple[int, str | None]:
    if op.kind.startswith("malformed:"):
        return _check_malformed(op, out)
    if out.raised is not None:
        return op.n_ops, f"raised {out.raised}"
    try:
        return CHECKS[op.kind](op, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return op.n_ops, f"unreadable output: {exc}"


def _check_malformed(op: Op, out: Outcome) -> tuple[int, str | None]:
    if out.raised is not None:
        return 1, f"raised {out.raised}"
    if out.code not in op.expect["exits"]:
        return 1, f"exit {out.code}, expected one of {sorted(op.expect['exits'])}"
    if "Traceback" in out.stderr or not out.stderr.strip():
        return 1, "no one-line message on stderr"
    if out.stdout.strip():
        try:
            strict_json(out.stdout)
        except ValueError as exc:
            return 1, f"stdout is not strict JSON: {exc}"
    return 0, None


def _check_exit(op: Op, out: Outcome) -> str | None:
    allowed = expected_exits(op.expect["s0"], op.expect["s1"])
    if out.code not in allowed:
        return f"exit {out.code}, expected one of {sorted(allowed)}"
    return None


def _closed_form(s0: float, s1: float) -> dict[str, float]:
    s0, s1 = min(max(s0, 0.0), 1.0), min(max(s1, 0.0), 1.0)
    return {
        "c1": math.sqrt((s0 + s1) / 2),
        "c2": math.sqrt((1 - s0) / 2),
        "c4": math.sqrt((1 - s1) / 2),
    }


def _check_moduli(op: Op, found: dict[str, float]) -> str | None:
    for key, value in _closed_form(op.expect["s0"], op.expect["s1"]).items():
        if not abs(found[key] - value) <= EST_TOL:
            return f"{key} = {found[key]!r}, closed form gives {value!r}"
    return None


_TEXT_LINE = re.compile(r"^(c[124]) = (\S+)  theta[124] = (\S+)$", re.M)


def _check_solve(op: Op, out: Outcome) -> tuple[int, str | None]:
    reason = _check_exit(op, out)
    if reason:
        return 1, reason
    if op.kind == "solve-json":
        payload = strict_json(out.stdout)
        if payload["feasible"] != (out.code == 0):
            return 1, "feasible flag disagrees with the exit code"
        if out.code == 0:
            reason = _check_moduli(op, payload)
    elif out.code == 2:
        if not out.stdout.startswith("infeasible:"):
            return 1, "infeasible text output lacks its prefix"
    else:
        found = {m.group(1): float(m.group(2)) for m in _TEXT_LINE.finditer(out.stdout)}
        reason = _check_moduli(op, found)
    return (1, reason) if reason else (0, None)


def _check_clone(op: Op, out: Outcome) -> tuple[int, str | None]:
    reason = _check_exit(op, out)
    if reason:
        return 1, reason
    payload = strict_json(out.stdout)
    if out.code == 2:
        return (0, None) if payload["feasible"] is False else (1, "infeasible clone not flagged")
    for key, target in (("s0_est", "s0"), ("s1_est", "s1")):
        if not abs(payload[key] - op.expect[target]) <= EST_TOL:
            return 1, f"{key} = {payload[key]!r}, target {op.expect[target]!r}"
    for key in ("residual0", "residual1"):
        if not payload[key] <= EST_TOL:
            return 1, f"{key} = {payload[key]!r}"
    got = [complex(*z) for z in payload["input"]]
    if max(abs(a - b) for a, b in zip(got, op.expect["input"])) > EST_TOL:
        return 1, "input amplitudes differ from the state spec"
    return 0, None


def _check_pauli(op: Op, out: Outcome) -> tuple[int, str | None]:
    if out.code != 0:
        return 1, f"exit {out.code}, expected 0"
    payload = strict_json(out.stdout)
    matrix = [[complex(*z) for z in row] for row in payload["coefficients"]]
    for j, row in enumerate(matrix):
        for k, z in enumerate(row):
            want = op.expect["diagonal"][j] if j == k else 0.0
            if not abs(z - want) <= BELL_TOL:
                return 1, f"coefficient [{j}][{k}] = {z!r}, expected {want!r}"
    off_norm = abs(op.expect["norm"] - 1.0)
    warned = "renormalizing" in out.stderr
    if (off_norm > 2e-6 and not warned) or (off_norm < 5e-7 and warned):
        return 1, f"renormalize warning {'missing' if not warned else 'spurious'} at norm {op.expect['norm']!r}"
    return 0, None


def _check_sweep(op: Op, out: Outcome) -> tuple[int, str | None]:
    if out.code != 0:
        return op.n_ops, f"exit {out.code}"
    k = op.expect["k"]
    step = 1.0 / k
    grid = [i * step for i in range(k + 1)]
    lines = out.stdout.split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "" or len(lines) != op.n_ops + 2:
        return op.n_ops, "CSV header or row count is wrong"
    failed = 0
    first = None
    rows = iter(lines[1:-1])
    for s0 in grid:
        for s1 in grid:
            cells = next(rows).split(",")
            reason = _check_row(s0, s1, cells)
            if reason:
                failed += 1
                first = first or f"row ({s0:.9g}, {s1:.9g}): {reason}"
    return failed, first


def _check_row(s0: float, s1: float, cells: list[str]) -> str | None:
    if len(cells) != 12:
        return "wrong column count"
    if abs(float(cells[0]) - s0) > 1e-8 or abs(float(cells[1]) - s1) > 1e-8:
        return "grid coordinates differ"
    m = margin(s0, s1)
    if abs(float(cells[3]) - m) > 1e-8:
        return f"margin {cells[3]} differs from {m!r}"
    feasible = cells[2] == "true"
    if cells[2] not in ("true", "false") or (abs(m) > BAND and feasible != (m <= FEASIBLE_TOL)):
        return f"feasible flag {cells[2]} at margin {m!r}"
    if not feasible:
        return None if cells[4:] == [""] * 8 else "infeasible row has solution columns"
    values = dict(zip(("c1", "c2", "c4"), map(float, cells[4:7])))
    for key, want in _closed_form(s0, s1).items():
        if abs(values[key] - want) > EST_TOL:
            return f"{key} = {values[key]!r}, closed form gives {want!r}"
    if abs(float(cells[9]) - (1 + s0) / 2) > EST_TOL or abs(float(cells[10]) - (1 + s1) / 2) > EST_TOL:
        return "fidelities differ from (1 + s)/2"
    if not float(cells[11]) <= EST_TOL:
        return f"residual_max {cells[11]}"
    return None


def _check_verify(op: Op, out: Outcome) -> tuple[int, str | None]:
    trials, seed = op.expect["trials"], op.expect["seed"]
    lines = out.stdout.splitlines()
    want = [
        f"suite {name}: {per * trials} checks, 0 failures"
        for name, per in VERIFY_CHECKS_PER_TRIAL.items()
    ]
    want.append(f"verify: {op.n_ops} checks, 0 failures (seed {seed}, trials {trials})")
    if out.code == 0 and lines == want:
        return 0, None
    reported = re.search(r"^verify: (\d+) checks, (\d+) failures", out.stdout, re.M)
    if reported and int(reported.group(1)) == op.n_ops and int(reported.group(2)) > 0:
        return int(reported.group(2)), f"verify reports {reported.group(2)} failures"
    return op.n_ops, f"unexpected verify output (exit {out.code})"


CHECKS = {
    "solve-text": _check_solve,
    "solve-json": _check_solve,
    "clone": _check_clone,
    "pauli": _check_pauli,
    "sweep": _check_sweep,
    "verify": _check_verify,
}
