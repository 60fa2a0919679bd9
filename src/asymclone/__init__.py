"""Exact simulator and parameter solver for a four-CNOT asymmetric qubit cloner.

Importing the package runs no numpy code: cloner, gates, pauli and qstate
are registered as lazy modules, and each runs (numpy with it) on the first
read of one of its names, here or on the module itself. A module whose
load fails stays lazy, so the next read runs it again and raises as an
eager import would.
"""
import importlib.util
import math
import sys
import types

_SQRT_HALF = 1.0 / math.sqrt(2.0)
# the six axis states' amplitudes, in Python numbers: qstate's named states, clone's --state names and sweep's probes
_NAMED_AMPLITUDES = {
    "0": (1.0, 0.0),
    "1": (0.0, 1.0),
    "+": (_SQRT_HALF, _SQRT_HALF),
    "-": (_SQRT_HALF, -_SQRT_HALF),
    "+i": (_SQRT_HALF, 1j * _SQRT_HALF),
    "-i": (_SQRT_HALF, -1j * _SQRT_HALF),
}

# The package's one tolerance table. Validators write their checks as
# `not (err <= tol)` so that NaN fails them.
# round-off of one step on unit-scale numbers: norms, traces, margins, angles
ROUNDOFF_TOL = 1e-12
# error accumulated over a chain of steps: eigenvalues, Bloch lengths, circuits
ACCUMULATED_TOL = 1e-10
# a vector shorter than this (amplitudes, Bell coefficients) has no direction
ZERO_NORM_FLOOR = 1e-9
# agreement of a clone's estimated shrink, and its fidelity, with the target
ESTIMATE_TOL = 1e-8
# slack on 1/step so that a sweep step dividing 1 keeps the grid point 1
GRID_SLACK = 1e-9
# a coefficient norm further than this from 1 is reported as renormalized
RENORMALIZE_WARN = 1e-6


class _Retry:
    """Runs loader's exec_module; if that raises, the module is left lazy again, so the next read reruns it."""

    def __init__(self, loader):
        self.loader = loader

    def create_module(self, spec):
        return self.loader.create_module(spec)

    def exec_module(self, module):
        try:
            self.loader.exec_module(module)
        except BaseException:
            # on 3.13 the module still has the lazy class here; recorded as its loaded class, the next read recurses
            module.__class__ = types.ModuleType
            importlib.util.LazyLoader(self).exec_module(module)
            raise
        module.__spec__.loader = module.__loader__ = self.loader  # as an eager import leaves them


def _lazy(name: str):
    """sys.modules[name]; if absent, first registered as a module whose code runs on the first read of a name."""
    if name not in sys.modules:
        spec = importlib.util.find_spec(name)
        if spec is None:
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        spec.loader = importlib.util.LazyLoader(_Retry(spec.loader))
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


cloner, gates, pauli, qstate = (_lazy(f"{__name__}.{module}") for module in ("cloner", "gates", "pauli", "qstate"))

# each public name's home module
_HOME = {
    name: module
    for module, names in {
        "cloner": "InfeasibleScalingError PrepState ScalingPair cloning_network feasibility run_cloner solve_prep"
        " solve_rows verify_scaling",
        "gates": "GateApplication apply_circuit apply_cnot apply_gate apply_hadamard apply_ry apply_rz"
        " prepare_two_qubit",
        "pauli": "BellCoefficients bell_basis bell_components bell_decompose bell_output run_pauli_cloner",
        "qstate": "BlochVector DensityMatrix StateVector basis_state bloch_vector fidelity_pure named_state overlap"
        " partial_trace random_state reorder single_qubit tensor to_density",
    }.items()
    for name in names.split()
}

__version__ = "0.1.0"

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name: str):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
