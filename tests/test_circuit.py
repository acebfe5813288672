"""OpenQASM subset parsing, serialization, and wire-to-level lowering."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from dense import simulate
from qdd import (
    Circuit,
    Gate,
    GateSpec,
    QasmError,
    QasmSemanticError,
    QasmSyntaxError,
    SerializationError,
    circuit_to_qasm,
    parse_qasm,
)

BELL = "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n"


def test_parse_bell():
    c = parse_qasm(BELL)
    assert c.n == 2
    assert [g.name for g in c.gates] == ["h", "cx"]
    assert c.gates[1].qubits == (0, 1)


def test_bell_specs_target_levels():
    # wire 0 is the top level (n-1); the cnot controls from above
    c = parse_qasm(BELL)
    specs = c.to_specs()
    assert specs[0].target == 1
    assert specs[1].target == 0
    assert specs[1].controls == ((1, True),)


def test_parse_cp_phase_value():
    c = parse_qasm("OPENQASM 2.0;\nqreg q[2];\ncp(pi/4) q[1],q[0];\n")
    spec = c.to_specs()[0]
    assert abs(spec.base[3] - cmath.exp(1j * math.pi / 4)) < 1e-12


@pytest.mark.parametrize(
    "expr,value",
    [
        ("pi", math.pi),
        ("pi/2", math.pi / 2),
        ("3*pi/4", 3 * math.pi / 4),
        ("-pi/2", -math.pi / 2),
        ("2*pi", 2 * math.pi),
        ("0.25", 0.25),
        ("1e-3", 1e-3),
        ("-0.5", -0.5),
    ],
)
def test_angle_expressions(expr, value):
    c = parse_qasm(f"OPENQASM 2.0;\nqreg q[1];\nrz({expr}) q[0];\n")
    assert c.gates[0].params[0] == pytest.approx(value, abs=1e-15)


def test_out_of_range_index_is_semantic_error():
    with pytest.raises(QasmSemanticError) as err:
        parse_qasm("OPENQASM 2.0;\nqreg q[4];\nh q[5];\n")
    assert err.value.line == 3
    assert err.value.col == 5


def test_duplicate_qreg_rejected():
    with pytest.raises(QasmSyntaxError):
        parse_qasm("OPENQASM 2.0;\nqreg q[2];\nqreg r[2];\n")


def test_unknown_gate_rejected_with_position():
    with pytest.raises(QasmSyntaxError) as err:
        parse_qasm("OPENQASM 2.0;\nqreg q[2];\nfoo q[0];\n")
    assert err.value.line == 3
    assert err.value.col == 1


@pytest.mark.parametrize(
    "line, col",
    [
        ("mcz q[0],q[1];", 1),  # a table row, but with no QASM form
        ("cp q[0],q[1];", 1),  # missing parameter
        ("h(pi) q[0];", 1),  # extra parameter
        ("x q[0];  rz(1e400) q[1];", 10),  # angle overflows to inf
        ("rz(1e400*0) q[0];", 1),  # inf * 0 is nan
    ],
)
def test_gate_errors_reported_at_gate_name(line, col):
    with pytest.raises(QasmSyntaxError) as err:
        parse_qasm(f"OPENQASM 2.0;\nqreg q[2];\n{line}\n")
    assert (err.value.line, err.value.col) == (3, col)


@pytest.mark.parametrize(
    "text, line, col",
    [
        ("OPENQASM 3.0;\nqreg q[1];\n", 1, 10),  # the version
        ("OPENQASM 2.0;\nqreg q[0];\n", 2, 8),  # the size
        ("OPENQASM 2.0;\nqreg q[1];\nrz(pi/0) q[0];\n", 3, 7),  # the divisor
        # a register name that is not an identifier
        ("OPENQASM 2.0;\nqreg 5[2];\nh 5[0];\n", 2, 6),
        ("OPENQASM 2.0;\nqreg ;[2];\nh ;[0];\n", 2, 6),
        ('OPENQASM 2.0;\nqreg "a b"[2];\n', 2, 6),
        ("OPENQASM 2.0;\nqreg q[2];\nh q[0]; @x\n", 3, 9),  # unexpected character
        ("OPENQASM 2.0;\nqreg q[2];\n\th q[0];\t$\n", 3, 10),  # unexpected character
        ("", 1, 1),  # expected 'OPENQASM'
        ("OPENQASM 2.0;\nqreg q[2];\nrz(q) q[0];\n", 3, 4),  # expected a number or pi
        ("OPENQASM 2.0;\nqreg q[2];\nOPENQASM 2.0;\n", 3, 1),  # duplicate header
        ("OPENQASM 2.0;\n", 1, 13),  # missing qreg declaration, at the last token
        ("OPENQASM 2.0;\nqreg\n", 2, 1),  # unexpected end of input, at the last token
    ],
)
def test_bad_values_reported_at_their_token(text, line, col):
    with pytest.raises(QasmSyntaxError) as err:
        parse_qasm(text)
    assert (err.value.line, err.value.col) == (line, col)


def test_trailing_whitespace_ignored():
    c = parse_qasm("OPENQASM 2.0;\nqreg q[2];\nh q[0];   \n")
    assert [g.name for g in c.gates] == ["h"]


def test_missing_header_rejected():
    with pytest.raises(QasmSyntaxError):
        parse_qasm("qreg q[2];\nh q[0];\n")


def test_measure_and_creg_ignored_with_warning():
    text = (
        "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\n"
        "measure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"
    )
    with pytest.warns(UserWarning):
        c = parse_qasm(text)
    assert [g.name for g in c.gates] == ["h"]


def test_include_and_barrier_ignored():
    text = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nbarrier q[0],q[1];\nx q[1];\n'
    c = parse_qasm(text)
    assert [g.name for g in c.gates] == ["x"]


def test_broadcast_operand_rejected():
    with pytest.raises(QasmSyntaxError):
        parse_qasm("OPENQASM 2.0;\nqreg q[2];\nh q;\n")


def test_swap_kept_as_gate_but_lowered_to_specs():
    c = parse_qasm("OPENQASM 2.0;\nqreg q[2];\nswap q[0],q[1];\n")
    assert [g.name for g in c.gates] == ["swap"]
    specs = c.to_specs()
    assert len(specs) == 3
    assert all(spec.base == (0, 1, 1, 0) for spec in specs)
    # cx from wire 0 (level 1) onto wire 1 (level 0), its mirror, cx again
    assert [(spec.target, spec.controls) for spec in specs] == [
        (0, ((1, True),)),
        (1, ((0, True),)),
        (0, ((1, True),)),
    ]
    # dense check: swap exchanges |01> and |10>
    state = np.zeros(4, dtype=complex)
    state[1] = 1.0
    from dense import apply_spec

    for spec in specs:
        state = apply_spec(state, spec, 2)
    assert abs(state[2] - 1.0) < 1e-12


def test_ccx_lowered_to_double_control():
    c = parse_qasm("OPENQASM 2.0;\nqreg q[3];\nccx q[0],q[1],q[2];\n")
    (spec,) = c.to_specs()
    assert spec.base == (0, 1, 1, 0)
    assert spec.controls == ((1, True), (2, True))
    assert spec.target == 0


# Textbook matrices, written out apart from the gate table. The dense
# oracle of tests/dense.py multiplies spec.base itself, so a typo in a
# base would pass every dense comparison; only this test would see it.
_R = 1.0 / math.sqrt(2.0)
_X = [[0, 1], [1, 0]]
_Z = [[1, 0], [0, -1]]


def _p(a):
    return [[1, 0], [0, math.cos(a) + 1j * math.sin(a)]]


def _textbook_cases():
    cases = [
        ("x", 1, (), _X),
        ("y", 1, (), [[0, -1j], [1j, 0]]),
        ("z", 1, (), _Z),
        ("h", 1, (), [[_R, _R], [_R, -_R]]),
        ("s", 1, (), [[1, 0], [0, 1j]]),
        ("sdg", 1, (), [[1, 0], [0, -1j]]),
        ("t", 1, (), [[1, 0], [0, _R + 1j * _R]]),
        ("tdg", 1, (), [[1, 0], [0, _R - 1j * _R]]),
        ("cx", 2, (), _X),
        ("cz", 2, (), _Z),
        ("ccx", 3, (), _X),
        ("swap", 2, (), _X),
        ("mcz", 4, (), _Z),
    ]
    for a in (0.7, -2.9):
        c, s = math.cos(a / 2), math.sin(a / 2)
        cases += [
            ("rx", 1, (a,), [[c, -1j * s], [-1j * s, c]]),
            ("ry", 1, (a,), [[c, -s], [s, c]]),
            ("rz", 1, (a,), [[c - 1j * s, 0], [0, c + 1j * s]]),
            ("p", 1, (a,), _p(a)),
            ("u1", 1, (a,), _p(a)),
            ("cp", 2, (a,), _p(a)),
        ]
    return cases


@pytest.mark.parametrize("name, width, params, matrix", _textbook_cases())
def test_lowered_base_is_the_textbook_matrix(name, width, params, matrix):
    specs = Gate(name, tuple(range(width)), params).to_specs(width)
    assert specs
    for spec in specs:
        assert np.abs(np.reshape(spec.base, (2, 2)) - np.array(matrix)).max() < 1e-15


def test_round_trip_bell():
    c = parse_qasm(BELL)
    again = parse_qasm(circuit_to_qasm(c))
    assert again.n == c.n
    assert again.gates == c.gates


def test_round_trip_empty_circuit():
    text = circuit_to_qasm(Circuit(1, name="empty"))
    assert "qreg q[1];" in text
    assert parse_qasm(text).gates == []


def test_round_trip_parametrized_exact():
    c = Circuit(2)
    c.add("rz", 0, params=(0.1234567890123456789,))
    c.add("cp", 0, 1, params=(-math.pi / 3,))
    again = parse_qasm(circuit_to_qasm(c))
    assert again.gates == c.gates


@pytest.mark.parametrize("n", [2, 8, 33, 64])
def test_round_trip_generator_outputs(n):
    from qdd import gen_bv, gen_ghz, gen_qft, gen_w

    for gen in (gen_ghz, gen_w, gen_bv, gen_qft):
        c = gen(n)
        again = parse_qasm(circuit_to_qasm(c))
        assert again.n == c.n
        assert again.gates == c.gates


def test_native_mcz_not_serializable():
    from qdd import gen_grover

    c = gen_grover(3, mcz="native")
    with pytest.raises(SerializationError):
        circuit_to_qasm(c)


def test_mcz_lowered_to_z_under_every_other_wire():
    assert Gate("mcz", (2, 0, 1)).to_specs(3) == [GateSpec((1, 0, 0, -1), 1, ((0, True), (2, True)))]
    assert Gate("mcz", (1,)).to_specs(2) == [GateSpec((1, 0, 0, -1), 0)]
    with pytest.raises(ValueError):
        Gate("mcz", ())


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("h", (0, 1))  # wrong arity
    with pytest.raises(ValueError):
        Gate("cx", (1, 1))  # duplicate wire
    with pytest.raises(ValueError):
        Gate("nope", (0,))
    with pytest.raises(ValueError):
        Gate("rz", (0,))  # missing parameter
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="not finite"):
            Gate("rz", (0,), (bad,))


def test_circuit_add_range_check():
    c = Circuit(2)
    with pytest.raises(ValueError):
        c.add("h", 2)


@pytest.mark.parametrize("wire", [1.7, 1.0, "1", None])
def test_non_integer_wire_rejected(wire):
    # int() would truncate 1.7 to wire 1 and parse "1"
    c = Circuit(2)
    with pytest.raises(ValueError, match="is not an integer"):
        c.add("h", wire)
    with pytest.raises(ValueError, match="is not an integer"):
        Gate("cx", (0, wire))
    assert c.gates == []


@pytest.mark.parametrize(
    "param", ["0.5", b"0.5", 1j, None], ids=["str", "bytes", "complex", "None"]
)
def test_non_real_parameter_rejected(param):
    # float() would parse "0.5"; None and a complex raised TypeError
    c = Circuit(1)
    with pytest.raises(ValueError, match="rz parameter .* is not a real number"):
        c.add("rz", 0, params=(param,))
    with pytest.raises(ValueError, match="rz parameter .* is not a real number"):
        Gate("rz", (0,), (param,))
    assert c.gates == []


def test_real_parameters_of_any_real_type_accepted():
    for param in (np.float64(0.5), np.float32(0.5), Fraction(1, 2)):
        gate = Gate("cp", (0, 1), (param,))
        assert gate.params == (0.5,)
        assert type(gate.params[0]) is float
    assert Gate("rz", (0,), (1,)).params == (1.0,)


def test_integer_wires_of_any_int_type_accepted():
    gate = Gate("cx", (np.int64(1), 0))
    assert gate.qubits == (1, 0)
    assert all(type(q) is int for q in gate.qubits)


def test_temporal_order_is_rightmost_factor_first():
    # x then h on one wire: operator is H X, so |0> maps to H|1>
    c = Circuit(1)
    c.add("x", 0)
    c.add("h", 0)
    state = simulate(c)
    s = 1 / math.sqrt(2)
    assert np.abs(state - np.array([s, -s])).max() < 1e-12


def _tokens_of(text):
    # crude re-tokenizer good enough for mutation: split keeping structure
    import re

    return re.findall(r"\"[^\"]*\"|[A-Za-z_][A-Za-z0-9_]*|\d+\.?\d*|->|\S", text)


def test_token_deletion_always_rejected_with_position():
    # fuzz property: deleting any single token leaves an invalid file
    tokens = _tokens_of(BELL)
    rebuilt = " ".join(tokens)
    assert parse_qasm(rebuilt).gates == parse_qasm(BELL).gates
    for drop in range(len(tokens)):
        mutated = " ".join(tokens[:drop] + tokens[drop + 1 :])
        with pytest.raises(QasmError) as err:
            parse_qasm(mutated)
        assert err.value.line >= 1
        assert err.value.col >= 1
