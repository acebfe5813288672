"""Circuit intermediate representation and an OpenQASM 2 subset parser.

Wire convention: wire q[0] is the most significant bit of state indices,
so |q0 q1 ... q_{n-1}> reads left to right, and wire i maps to DD level
n-1-i (q[0] is the top row of a diagram). Gate.to_specs performs that
mapping and lowers the few compound gates: swap becomes three cx, ccx
becomes a doubly-controlled X GateSpec.

Gate order in a Circuit is application order: the first gate in the list
acts first, i.e. it is the rightmost factor of the circuit's operator.

Supported QASM subset: `OPENQASM 2.0;` header, optional includes, one
qreg, the gate set below, `pi`-expressions in parameters. Classical
registers and measurements are parsed and dropped with a warning;
barriers are dropped silently.
"""

from __future__ import annotations

import cmath
import math
import re
import warnings
from dataclasses import dataclass, field

from .mdd import GateSpec

# correctly rounded 1/sqrt(2); 1/math.sqrt(2) lands one ulp low
_SQ2 = math.sqrt(0.5)


class QasmError(ValueError):
    """Base for parser errors; carries a 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class QasmSyntaxError(QasmError):
    pass


class QasmSemanticError(QasmError):
    pass


class SerializationError(ValueError):
    pass


def _base_x(_):
    return (0, 1, 1, 0)


def _base_y(_):
    return (0, -1j, 1j, 0)


def _base_z(_):
    return (1, 0, 0, -1)


def _base_h(_):
    return (_SQ2, _SQ2, _SQ2, -_SQ2)


def _base_s(_):
    return (1, 0, 0, 1j)


def _base_sdg(_):
    return (1, 0, 0, -1j)


def _base_t(_):
    return (1, 0, 0, cmath.exp(0.25j * math.pi))


def _base_tdg(_):
    return (1, 0, 0, cmath.exp(-0.25j * math.pi))


def _base_rx(p):
    c, s = math.cos(p[0] / 2), math.sin(p[0] / 2)
    return (c, -1j * s, -1j * s, c)


def _base_ry(p):
    c, s = math.cos(p[0] / 2), math.sin(p[0] / 2)
    return (c, -s, s, c)


def _base_rz(p):
    return (cmath.exp(-0.5j * p[0]), 0, 0, cmath.exp(0.5j * p[0]))


def _base_p(p):
    return (1, 0, 0, cmath.exp(1j * p[0]))


# name -> (controls, params, base builder); compound gates handled apart
_GATES = {
    "x": (0, 0, _base_x),
    "y": (0, 0, _base_y),
    "z": (0, 0, _base_z),
    "h": (0, 0, _base_h),
    "s": (0, 0, _base_s),
    "sdg": (0, 0, _base_sdg),
    "t": (0, 0, _base_t),
    "tdg": (0, 0, _base_tdg),
    "rx": (0, 1, _base_rx),
    "ry": (0, 1, _base_ry),
    "rz": (0, 1, _base_rz),
    "p": (0, 1, _base_p),
    "u1": (0, 1, _base_p),
    "cx": (1, 0, _base_x),
    "cz": (1, 0, _base_z),
    "cp": (1, 1, _base_p),
    "ccx": (2, 0, _base_x),
}
# variable control count, Z base on the last wire; not serializable
_MCZ = "mcz"


def _arity(name: str, qubits: int) -> bool:
    if name == "swap":
        return qubits == 2
    if name == _MCZ:
        return qubits >= 1
    controls, _params, _ = _GATES[name]
    return qubits == controls + 1


@dataclass(frozen=True)
class Gate:
    """One named gate on circuit wires; controls precede the target."""

    name: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if self.name != _MCZ and self.name != "swap":
            if self.name not in _GATES:
                raise ValueError(f"unsupported gate {self.name!r}")
            if len(self.params) != _GATES[self.name][1]:
                raise ValueError(f"{self.name} takes {_GATES[self.name][1]} parameter(s)")
        if not _arity(self.name, len(self.qubits)):
            raise ValueError(f"wrong operand count for {self.name}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate wire in {self.name}")

    def to_specs(self, n: int) -> list[GateSpec]:
        """Lower onto DD levels (level = n-1-wire)."""
        lv = [n - 1 - q for q in self.qubits]
        if self.name == "swap":
            a, b = lv
            x = (0, 1, 1, 0)
            return [
                GateSpec(x, b, ((a, True),)),
                GateSpec(x, a, ((b, True),)),
                GateSpec(x, b, ((a, True),)),
            ]
        if self.name == _MCZ:
            ctrls = tuple((c, True) for c in lv[:-1])
            return [GateSpec((1, 0, 0, -1), lv[-1], ctrls)]
        controls, _nparams, base = _GATES[self.name]
        ctrls = tuple((c, True) for c in lv[:controls])
        return [GateSpec(base(self.params), lv[controls], ctrls)]


@dataclass
class Circuit:
    n: int
    gates: list[Gate] = field(default_factory=list)
    name: str = ""

    def add(self, gate_name: str, *qubits: int, params: tuple[float, ...] = ()) -> None:
        for q in qubits:
            if not 0 <= q < self.n:
                raise ValueError(f"wire {q} out of range for {self.n} qubits")
        self.gates.append(Gate(gate_name, tuple(qubits), tuple(params)))

    def gate_count(self) -> int:
        return len(self.gates)

    def to_specs(self) -> list[GateSpec]:
        """Application-ordered level-indexed gate specs (compound gates
        lowered); this is what the simulators consume."""
        specs = []
        for gate in self.gates:
            for q in gate.qubits:
                if not 0 <= q < self.n:
                    raise ValueError(f"wire {q} out of range for {self.n} qubits")
            specs.extend(gate.to_specs(self.n))
        return specs


# -- parsing ------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<id>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)"
    r"|(?P<str>\"[^\"]*\")"
    r"|(?P<sym>->|[;,()\[\]*/+-])"
    r")"
)


def _tokenize(text: str):
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("//", 1)[0]
        pos = 0
        while pos < len(line):
            m = _TOKEN_RE.match(line, pos)
            if m is None or m.end() == m.start():
                stripped = line[pos:].lstrip()
                if not stripped:
                    break
                col = pos + (len(line[pos:]) - len(stripped)) + 1
                raise QasmSyntaxError(f"unexpected character {stripped[0]!r}", lineno, col)
            if m.lastgroup is not None:
                tokens.append((m.group(m.lastgroup), lineno, m.start(m.lastgroup) + 1))
            pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def _err(self, message: str, syntax: bool = True):
        if self.pos < len(self.tokens):
            _, line, col = self.tokens[self.pos]
        elif self.tokens:
            _, line, col = self.tokens[-1]
        else:
            line, col = 1, 1
        cls = QasmSyntaxError if syntax else QasmSemanticError
        raise cls(message, line, col)

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        if self.pos >= len(self.tokens):
            self._err("unexpected end of input")
        tok = self.tokens[self.pos][0]
        self.pos += 1
        return tok

    def expect(self, token: str) -> None:
        got = self.peek()
        if got != token:
            self._err(f"expected {token!r}, got {got!r}")
        self.pos += 1

    def skip_statement(self) -> None:
        while self.peek() not in (";", None):
            self.pos += 1
        if self.peek() == ";":
            self.pos += 1

    # expression := ['-'] factor (('*'|'/') factor)*  with factor = number | pi
    def parse_angle(self) -> float:
        sign = 1.0
        while self.peek() == "-":
            sign = -sign
            self.pos += 1
        value = self._factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self._factor()
            if op == "*":
                value *= rhs
            else:
                if rhs == 0.0:
                    self._err("division by zero in parameter")
                value /= rhs
        return sign * value

    def _factor(self) -> float:
        tok = self.peek()
        if tok == "pi":
            self.pos += 1
            return math.pi
        if tok is not None and (tok[0].isdigit() or tok[0] == "."):
            self.pos += 1
            return float(tok)
        self._err(f"expected a number or pi, got {tok!r}")

    def parse(self) -> Circuit:
        self.expect("OPENQASM")
        version = self.take()
        if version != "2.0":
            self._err(f"unsupported OPENQASM version {version!r}")
        self.expect(";")

        circuit: Circuit | None = None
        qreg_name = None

        while self.peek() is not None:
            tok = self.peek()
            if tok == "include":
                self.skip_statement()
                continue
            if tok == "OPENQASM":
                self._err("duplicate OPENQASM header")
            if tok == "qreg":
                line, col = self.tokens[self.pos][1:]
                if circuit is not None:
                    raise QasmSyntaxError("duplicate qreg declaration", line, col)
                self.pos += 1
                qreg_name = self.take()
                self.expect("[")
                size_tok = self.take()
                if not size_tok.isdigit() or int(size_tok) < 1:
                    self._err("qreg size must be a positive integer")
                self.expect("]")
                self.expect(";")
                circuit = Circuit(n=int(size_tok))
                continue
            if tok == "creg":
                line, col = self.tokens[self.pos][1:]
                warnings.warn(f"line {line}: classical register ignored", stacklevel=3)
                self.skip_statement()
                continue
            if tok == "measure":
                line, col = self.tokens[self.pos][1:]
                warnings.warn(f"line {line}: measure ignored", stacklevel=3)
                self.skip_statement()
                continue
            if tok == "barrier":
                self.skip_statement()
                continue
            if circuit is None:
                self._err("gate before qreg declaration")
            circuit.gates.append(self._parse_gate(circuit, qreg_name))

        if circuit is None:
            self._err("missing qreg declaration")
        return circuit

    def _parse_gate(self, circuit: Circuit | None, qreg_name: str | None) -> Gate:
        name_tok, line, col = self.tokens[self.pos]
        name = name_tok
        if name not in _GATES and name != "swap":
            raise QasmSyntaxError(f"unknown gate {name!r}", line, col)
        self.pos += 1
        params: list[float] = []
        if self.peek() == "(":
            self.pos += 1
            params.append(self.parse_angle())
            while self.peek() == ",":
                self.pos += 1
                params.append(self.parse_angle())
            self.expect(")")
        n_params = 0 if name == "swap" else _GATES[name][1]
        if len(params) != n_params:
            raise QasmSyntaxError(
                f"{name} takes {n_params} parameter(s), got {len(params)}", line, col
            )
        qubits: list[int] = []
        while True:
            _, rline, rcol = (
                self.tokens[self.pos] if self.pos < len(self.tokens) else (None, line, col)
            )
            reg = self.take()
            if reg != qreg_name:
                raise QasmSyntaxError(
                    f"unknown or broadcast operand {reg!r} (indexed {qreg_name}[k] required)",
                    rline,
                    rcol,
                )
            self.expect("[")
            _, iline, icol = self.tokens[self.pos] if self.pos < len(self.tokens) else (None, rline, rcol)
            idx = self.take()
            if not idx.isdigit():
                raise QasmSyntaxError(f"expected a qubit index, got {idx!r}", iline, icol)
            index = int(idx)
            if circuit is not None and index >= circuit.n:
                raise QasmSemanticError(
                    f"qubit index {index} out of range for qreg[{circuit.n}]", iline, icol
                )
            qubits.append(index)
            self.expect("]")
            if self.peek() == ",":
                self.pos += 1
                continue
            break
        self.expect(";")
        try:
            return Gate(name, tuple(qubits), tuple(params))
        except ValueError as exc:
            raise QasmSyntaxError(str(exc), line, col) from exc


def parse_qasm(text: str) -> Circuit:
    """Parse the supported OpenQASM 2 subset into a Circuit."""
    return _Parser(text).parse()


def circuit_to_qasm(circuit: Circuit) -> str:
    """Serialize a Circuit; parse_qasm(circuit_to_qasm(c)) == c gate-for-gate."""
    lines = ["OPENQASM 2.0;", f"qreg q[{circuit.n}];"]
    for gate in circuit.gates:
        if gate.name == _MCZ:
            raise SerializationError("multi-controlled z has no QASM form in this subset")
        if gate.name not in _GATES and gate.name != "swap":
            raise SerializationError(f"gate {gate.name!r} has no QASM form")
        params = f"({','.join(repr(p) for p in gate.params)})" if gate.params else ""
        operands = ",".join(f"q[{q}]" for q in gate.qubits)
        lines.append(f"{gate.name}{params} {operands};")
    return "\n".join(lines) + "\n"
