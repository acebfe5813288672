"""Edge-weighted decision diagrams for quantum circuit simulation.

Gates are represented without identity padding: an operator DD touches
only the levels its gate acts on, and edges that jump over levels read
as identity factors there. The conventional full-height representation
is kept available as "legacy" mode for comparison runs; the mode is a
property of a NodeStore.
"""

import sys

if sys.version_info < (3, 11):
    raise ImportError("qdd needs Python 3.11+: deep DD recursion must stay off the C stack")

__version__ = "0.1.0"

from .weights import ONE, TOLERANCE, WeightError, WeightTable, ZERO
from .store import (
    MAT,
    MODE_LEGACY,
    MODE_NEW,
    NodeStore,
    StoreError,
    TERMINAL,
    VEC,
    ZERO_EDGE,
)
from .vdd import amplitude, make_basis_state, make_vector_node, vnorm2
from .mdd import (
    GateSpec,
    identity_chain,
    make_gate_dd,
    make_matrix_node,
    matrix_entry,
    resembles_identity,
)
from .arith import add_vectors, multiply_mm, multiply_mv
from .circuit import (
    Circuit,
    Gate,
    QasmError,
    QasmSemanticError,
    QasmSyntaxError,
    SerializationError,
    circuit_to_qasm,
    parse_qasm,
)
from .bench import (
    FAMILIES,
    gen_bv,
    gen_ghz,
    gen_grover,
    gen_qft,
    gen_qpe,
    gen_w,
    generate,
    grover_iterations,
)
from .sim import SimReport, export_dot, run_deep, simulate_statevector, simulate_unitary

__all__ = [
    "__version__",
    "ONE", "TOLERANCE", "WeightError", "WeightTable", "ZERO",
    "MAT", "MODE_LEGACY", "MODE_NEW", "NodeStore", "StoreError", "TERMINAL", "VEC", "ZERO_EDGE",
    "amplitude", "make_basis_state", "make_vector_node", "vnorm2",
    "GateSpec", "identity_chain", "make_gate_dd", "make_matrix_node",
    "matrix_entry", "resembles_identity",
    "add_vectors", "multiply_mm", "multiply_mv",
    "Circuit", "Gate", "QasmError", "QasmSemanticError", "QasmSyntaxError",
    "SerializationError", "circuit_to_qasm", "parse_qasm",
    "FAMILIES", "gen_bv", "gen_ghz", "gen_grover", "gen_qft", "gen_qpe", "gen_w",
    "generate", "grover_iterations",
    "SimReport", "export_dot", "run_deep", "simulate_statevector", "simulate_unitary",
]
