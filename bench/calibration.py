"""A fixed reference computation that measures how fast the host runs right now.

On a shared host the speed of one CPU drifts by up to a factor of two within
seconds, so raw wall times of the same code spread more than any useful
regression bound. After each timed call the benchmark runs ``unit`` for about
half as long as the call took, and scales the call's time by how slowly
``unit`` ran next to it:

    scaled = elapsed * UNIT_REF_S / (seconds per unit measured after the call)

A scaled time is what the call would have taken on a host that runs ``unit``
in ``UNIT_REF_S`` seconds. ``unit`` mixes what the CLI spends its time on:
building and running an argparse parser, numpy work on 2- and 3-qubit
complex arrays, and JSON and float formatting. It uses only the standard
library and numpy, never the asymclone package, so a change to the program
cannot change it.
"""
from __future__ import annotations

import argparse
import json
import time

import numpy as np

# median seconds per unit over 27 runs on the host the benchmark was defined
# on: 2 vCPUs of a shared x86_64 host, Python 3.11, numpy 2.4, one BLAS thread
UNIT_REF_S = 7.3e-4

WARMUP_UNITS = 20
SHARE = 0.5  # calibrate for this share of each call's time ...
MIN_S = 1e-3  # ... and for at least this long

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
_PSI = np.array([0.6, 0.8j], dtype=complex)


def unit() -> float:
    """One fixed slice of CLI-like work; returns a number so nothing is skipped."""
    parser = argparse.ArgumentParser(prog="calibration")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("solve")
    p.add_argument("s0", type=float)
    p.add_argument("s1", type=float)
    p.add_argument("--format", choices=("text", "json"), default="text")
    args = parser.parse_args(["solve", "0.25", "0.5", "--format", "json"])

    state = np.kron(np.kron(_PSI, _H @ np.array([1, 0], dtype=complex)), np.array([1, 0], dtype=complex))
    state = np.kron(np.eye(2), _CNOT) @ state
    state = state / np.linalg.norm(state)
    rho = np.outer(state, state.conj())
    reduced = np.einsum("ijkj->ik", rho.reshape(2, 4, 2, 4))
    values = np.linalg.eigvalsh(reduced)

    text = json.dumps({
        "command": args.command,
        "s": [args.s0, args.s1],
        "rho": [[z.real, z.imag] for z in reduced.ravel()],
        "values": [f"{v:.12g}" for v in values],
    })
    return len(text) + float(values[-1])


class Calibrator:
    """Scales call times to the reference host speed, from the calibration run after each call."""

    def __init__(self):
        self.units = 0
        self.seconds = 0.0
        for _ in range(WARMUP_UNITS):  # first calls fill argparse's and numpy's caches
            unit()

    def scale(self, elapsed: float) -> float:
        """Run ``unit`` for max(SHARE * elapsed, MIN_S) seconds; return ``elapsed`` scaled."""
        budget = max(SHARE * elapsed, MIN_S)
        clock = time.perf_counter
        n = 0
        start = clock()
        while True:
            unit()
            n += 1
            spent = clock() - start
            if spent >= budget:
                break
        self.units += n
        self.seconds += spent
        return elapsed * UNIT_REF_S * n / spent

    def speed(self) -> float:
        """Host speed over the run relative to the reference host (above 1 is faster)."""
        return UNIT_REF_S * self.units / self.seconds if self.seconds else 0.0
