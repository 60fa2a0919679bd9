"""Exact simulator and parameter solver for a four-CNOT asymmetric qubit cloner.

Importing the package runs no numpy code: cloner, gates, pauli and qstate
are registered as lazy modules, and each runs (numpy with it) on the first
read of one of its names, here or on the module itself.
"""
import importlib.util
import sys


def _lazy(name: str):
    """sys.modules[name]; if absent, first registered as a module whose code runs on the first read of a name."""
    if name not in sys.modules:
        spec = importlib.util.find_spec(name)
        if spec is None:
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
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
