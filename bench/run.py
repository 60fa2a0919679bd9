"""asymclone benchmark: four CLI workloads run in-process through ``cli.main``.

    python3 bench/run.py --workload requests --seed 1 --seconds 20 --trace 0

Run from the repository root. The package is imported from ``src/`` of the
working tree, so two checkouts are measured like for like.

``--trace 0`` measures with tracing off. One client sends the calls of a
closed loop for ``--seconds``, in whole passes of seeded inputs; every output
is checked. After each call the calibration loop of calibration.py runs for
about half as long, and the call's time is scaled to the reference host
speed, because the shared host's own speed drifts by up to a factor of two
within seconds. The gated metrics are ``setup_s`` (median scaled wall time
of fresh interpreters that import ``asymclone.cli`` and build its parser),
``ops_per_ref_s`` (operations per scaled second), ``op_p50_ref_ms`` (median
scaled time of one operation) and ``ok_ratio`` (1 - failed_ratio). The raw
wall-clock figures, ``op_tail_ms`` (the highest percentile with at least ten
samples beyond it) and the host speed are printed and recorded, not gated.

``--trace 1`` runs each call of the first pass once untraced and once traced, and reports
per-function calls, total and self time and errors of every wrapped function
(see tracing.py), the waste ratios, and the traced-over-untraced wall time.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Full details (machine, library
versions, seed, failures by kind, fingerprints, spans) go to ``bench/out/``.
"""
from __future__ import annotations

import os

# every matrix is at most 16x16; extra BLAS or OpenMP threads only add noise
PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_RUNS = 7
SETUP_SNIPPET = "import asymclone.cli as cli; cli.build_parser()"
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10
WARMUP_CALLS = 1
CANONICAL_VERIFY = (42, 200)  # the ROADMAP item-1 fingerprint call

END_TO_END_UNITS = {"setup_s": "s", "ops_per_ref_s": "1/s", "op_p50_ref_ms": "ms", "ok_ratio": "ratio"}


def _rank(p: float, n: int) -> int:
    """Nearest rank (1-based) of percentile p among n samples."""
    return max(math.ceil(p / 100.0 * n), 1)


def percentile(samples: list[float], p: float) -> float:
    return sorted(samples)[_rank(p, len(samples)) - 1]


def tail_percentile(samples: list[float]) -> tuple[str, float]:
    """Highest ladder percentile with at least ten samples beyond it (nearest rank).

    With fewer than twenty samples no ladder step qualifies and the maximum
    is returned, labelled as such.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in reversed(TAIL_LADDER):
        rank = _rank(p, n)
        if n - rank >= TAIL_MIN_BEYOND:
            return f"p{p:g}", ordered[rank - 1]
    return "max", ordered[-1]


def call(cli, argv: list[str]) -> tuple[workloads.Outcome, float]:
    """Run ``cli.main(argv)`` with stdout and stderr captured; return outcome and seconds."""
    out, err = io.StringIO(), io.StringIO()
    code = raised = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback is an outcome to count, not a benchmark error
            raised = type(exc).__name__
        elapsed = time.perf_counter() - start
    return workloads.Outcome(code, raised, out.getvalue(), err.getvalue()), elapsed


class Tally:
    """Failures by kind and output fingerprints of every checked call."""

    def __init__(self, reference: dict):
        self.unexpected: list[str] = []
        self.defect_hits: dict[str, int] = {}
        self.fingerprints: dict[str, str] = {}
        self.reference = reference

    def record(self, op: workloads.Op, outcome: workloads.Outcome) -> int:
        failed, reason = workloads.check(op, outcome)
        if failed and op.defect:
            self.defect_hits[op.defect] = self.defect_hits.get(op.defect, 0) + 1
        elif failed:
            self.unexpected.append(f"{' '.join(op.argv)}: {reason}")
        if op.fingerprint:
            key = " ".join(op.argv)
            self.fingerprints[key] = hashlib.sha256(outcome.stdout.encode()).hexdigest()
        return failed

    def fingerprint_report(self) -> dict[str, str]:
        known = self.reference.get("fingerprints", {})
        return {
            key: "match" if known.get(key) == digest else ("CHANGED" if key in known else "no reference")
            for key, digest in sorted(self.fingerprints.items())
        }


def measure_setup(calibrator) -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters importing asymclone.cli and building its parser,
    raw and scaled to the reference host speed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # bytecode is cached, as for an installed package, inside the benchmark's own output
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT_DIR / "pycache")
    command = [sys.executable, "-c", SETUP_SNIPPET]
    subprocess.run(command, env=env, cwd=ROOT, check=True)  # warm the file cache and bytecode
    times, scaled = [], []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run(command, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
        scaled.append(calibrator.scale(times[-1]))
    return times, scaled


def run_ops(cli, ops, tally: Tally, tracer=None, first_id=0) -> list[tuple[workloads.Op, float, int]]:
    """Call and check each op; return (op, seconds, operations failed) per call."""
    timed = []
    for index, op in enumerate(ops, first_id):
        if tracer is not None:
            tracer.op_id = index
        outcome, elapsed = call(cli, op.argv)
        timed.append((op, elapsed, tally.record(op, outcome)))
    return timed


def traced_pass(cli, ops, tally: Tally, tracer) -> tuple[list, float, float]:
    """Run every op untraced and traced, alternating which goes first, so both
    see the same machine state; spans come from the traced calls only."""
    measured, untraced, traced = [], 0.0, 0.0
    for index, op in enumerate(ops):
        for traced_turn in ((False, True) if index % 2 == 0 else (True, False)):
            if traced_turn:
                with tracer:
                    [(_, elapsed, failed)] = run_ops(cli, [op], tally, tracer, index)
                traced += elapsed
            else:
                [(_, elapsed, failed)] = run_ops(cli, [op], tally)
                untraced += elapsed
            measured.append((op, elapsed, failed))
    return measured, untraced, traced


def counts(timed) -> tuple[int, int]:
    return sum(op.n_ops for op, _, _ in timed), sum(failed for _, _, failed in timed)


def timed_loop(cli, workload: str, seed: int, seconds: float, tally: Tally, calibrator):
    """Whole passes of the closed loop until ``seconds`` of wall time have gone by.

    Returns (op, seconds, operations failed) per call, each call's time scaled
    to the reference host speed, and the number of passes.
    """
    timed, scaled = [], []
    start = time.perf_counter()
    index = 0
    while True:
        for op in workloads.make_pass(workload, seed, index):
            [entry] = run_ops(cli, [op], tally)
            timed.append(entry)
            scaled.append(calibrator.scale(entry[1]))
        index += 1
        if time.perf_counter() - start >= seconds:
            return timed, scaled, index


def end_to_end(timed, scaled, setup_times, calibrator) -> tuple[dict[str, float], dict]:
    setup_raw, setup_scaled = setup_times
    ops, failed = counts(timed)
    # one latency sample per call: per operation for sweep and verify calls
    samples_ms = [1e3 * elapsed / op.n_ops for op, elapsed, _ in timed]
    scaled_ms = [1e3 * elapsed / op.n_ops for (op, _, _), elapsed in zip(timed, scaled)]
    tail_label, tail_value = tail_percentile(samples_ms)
    busy = sum(elapsed for _, elapsed, _ in timed)
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "ops_per_ref_s": ops / sum(scaled),
        "op_p50_ref_ms": percentile(scaled_ms, 50.0),
        "ok_ratio": (ops - failed) / ops,
    }
    # reported, not gated: raw wall-clock figures follow the shared host's
    # speed, which drifts by more than the largest bound a gated metric may have
    detail = {
        "ops_per_s": ops / busy,
        "op_p50_ms": percentile(samples_ms, 50.0),
        "op_tail_ms": tail_value,
        "op_tail_ref_ms": tail_percentile(scaled_ms)[1],
        "latency_samples": len(samples_ms),
        "tail_percentile": tail_label,
        "host_speed": calibrator.speed(),
        "busy_s": busy,
        "operations": ops,
        "failed_ratio": failed / ops,
        "setup_wall_s": statistics.median(setup_raw),
        "setup_runs_s": setup_raw,
    }
    return metrics, detail


def pin_to_one_cpu() -> tuple[int, int | None]:
    """Pin to the lowest-numbered allowed CPU; return (allowed CPUs, pinned CPU).

    The program is single-threaded, and the CPUs of a shared host can run at
    different speeds, so a run that lands on either one varies more than
    runs that all use the same one. Spawned interpreters inherit the pin.
    """
    if not hasattr(os, "sched_setaffinity"):
        return os.cpu_count() or 1, None
    allowed = os.sched_getaffinity(0)
    cpu = min(allowed)
    os.sched_setaffinity(0, {cpu})
    return len(allowed), cpu


def machine_info(numpy_version: str, nproc: int, cpu: int | None) -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "nproc": nproc,
        "pinned_cpu": cpu,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "pinned_threads": PINNED_THREADS,
    }


def load_package():
    if not (SRC / "asymclone" / "cli.py").is_file():
        sys.exit(f"bench: no package source at {SRC / 'asymclone'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import numpy
    from asymclone import cli

    if Path(cli.__file__).resolve().parent != SRC / "asymclone":
        sys.exit(f"bench: imported asymclone from {cli.__file__}, not from {SRC}")
    return cli, numpy.__version__


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.PASSES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc, cpu = pin_to_one_cpu()
    cli, numpy_version = load_package()
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    tally = Tally(reference)
    first = workloads.make_pass(args.workload, args.seed, 0)

    if args.workload == "verify":
        run_ops(cli, [workloads.verify_op(*CANONICAL_VERIFY, fingerprint=True)], tally)
    run_ops(cli, first[:WARMUP_CALLS], tally)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(numpy_version, nproc, cpu),
        "excluded_inputs": list(workloads.EXCLUDED),
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer = tracing.Tracer()
        measured, untraced, traced = traced_pass(cli, first, tally, tracer)
        metrics = tracer.layer_metrics(traced / untraced)
        units = tracing.layer_metric_units()
        tracer.write(OUT_DIR / f"{stem}-spans.json.gz")
        record.update(untraced_s=untraced, traced_s=traced, spans=len(tracer))
    else:
        calibrator = calibration.Calibrator()
        setup_times = measure_setup(calibrator)
        measured, scaled, passes = timed_loop(cli, args.workload, args.seed, args.seconds, tally, calibrator)
        metrics, detail = end_to_end(measured, scaled, setup_times, calibrator)
        units = END_TO_END_UNITS
        record.update(detail, passes=passes)

    correct = not tally.unexpected
    attempted, failed = counts(measured)
    record.update(
        metrics=metrics,
        correct=correct,
        attempted=attempted,
        failed=failed,
        defect_hits=tally.defect_hits,
        unexpected_failures=tally.unexpected[:50],
        fingerprints=tally.fingerprints,
        fingerprint_status=tally.fingerprint_report(),
    )
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    for name, value in metrics.items():
        print(f"{name:45s} {value:14.6g} {units[name]}")
    if not args.trace:
        print(f"{'setup_s (wall clock, not gated)':45s} {record['setup_wall_s']:14.6g} s")
        print(f"{'ops_per_s (wall clock, not gated)':45s} {record['ops_per_s']:14.6g} 1/s")
        print(f"{'op_p50_ms (wall clock, not gated)':45s} {record['op_p50_ms']:14.6g} ms")
        print(f"{'op_tail_ms (wall clock, not gated)':45s} {record['op_tail_ms']:14.6g} ms "
              f"({record['tail_percentile']} of {record['latency_samples']} samples)")
        print(f"{'op_tail_ref_ms (not gated)':45s} {record['op_tail_ref_ms']:14.6g} ms")
        print(f"{'host_speed (calibration, reference = 1)':45s} {record['host_speed']:14.6g}")
    print(f"{'failed_ratio':45s} {failed / attempted:14.6g} ({failed} of {attempted} operations)")
    for key, status in tally.fingerprint_report().items():
        print(f"fingerprint {key}: {status}")
    for line in tally.unexpected[:5]:
        print(f"unexpected failure: {line}", file=sys.stderr)

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
