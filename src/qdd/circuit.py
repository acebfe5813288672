"""Circuit intermediate representation and an OpenQASM 2 subset parser.

Wire convention: wire q[0] is the most significant bit of state indices,
so |q0 q1 ... q_{n-1}> reads left to right, and wire i maps to DD level
n-1-i (q[0] is the top row of a diagram). Gate.to_specs performs that
mapping. Each gate is one row of the gate table, swap and mcz included:
ccx becomes a doubly-controlled X GateSpec, swap becomes cx, its mirror
and cx again, and mcz controls a Z on its last wire by all the others.
mcz takes any wire count, so it has no QASM form in this subset.

Gate order in a Circuit is application order: the first gate in the list
acts first, i.e. it is the rightmost factor of the circuit's operator.

Supported QASM subset: `OPENQASM 2.0;` header, optional includes, one
qreg whose name is an identifier, the gate set below but mcz,
`pi`-expressions in parameters, which must evaluate to finite numbers.
Classical registers and measurements are parsed and dropped with a
warning; barriers are dropped silently.
"""

from __future__ import annotations

import cmath
import math
import numbers
import re
import warnings
from dataclasses import dataclass, field

from .mdd import GateSpec, as_index

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


# the two bases that more than one gate row shares
_X = (0, 1, 1, 0)
_Z = (1, 0, 0, -1)


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


# name -> (controls, params, base, wire orders). base is the gate's flat
# 2x2 matrix, or for a gate with parameters the function that builds it
# from them. A gate lowers to one GateSpec per wire order, its wires taken
# in that order: controls first, the target after them. controls -1 makes
# every wire but the last a control, for any wire count; such a gate has
# no QASM form here.
_ONCE = (slice(None),)
_GATES = {
    "x": (0, 0, _X, _ONCE),
    "y": (0, 0, (0, -1j, 1j, 0), _ONCE),
    "z": (0, 0, _Z, _ONCE),
    "h": (0, 0, (_SQ2, _SQ2, _SQ2, -_SQ2), _ONCE),
    "s": (0, 0, (1, 0, 0, 1j), _ONCE),
    "sdg": (0, 0, (1, 0, 0, -1j), _ONCE),
    "t": (0, 0, (1, 0, 0, cmath.exp(0.25j * math.pi)), _ONCE),
    "tdg": (0, 0, (1, 0, 0, cmath.exp(-0.25j * math.pi)), _ONCE),
    "rx": (0, 1, _base_rx, _ONCE),
    "ry": (0, 1, _base_ry, _ONCE),
    "rz": (0, 1, _base_rz, _ONCE),
    "p": (0, 1, _base_p, _ONCE),
    "u1": (0, 1, _base_p, _ONCE),
    "cx": (1, 0, _X, _ONCE),
    "cz": (1, 0, _Z, _ONCE),
    "cp": (1, 1, _base_p, _ONCE),
    "ccx": (2, 0, _X, _ONCE),
    # cx, its mirror, cx
    "swap": (1, 0, _X, (slice(None), slice(None, None, -1), slice(None))),
    "mcz": (-1, 0, _Z, _ONCE),
}
_QASM_GATES = frozenset(name for name, row in _GATES.items() if row[0] >= 0)


@dataclass(frozen=True)
class Gate:
    """One named gate on circuit wires; controls precede the target."""

    name: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(as_index(q, "wire") for q in self.qubits))
        for p in self.params:
            # float() would parse "0.5" and take None or a complex to a TypeError
            if not isinstance(p, numbers.Real):
                raise ValueError(f"{self.name} parameter {p!r} is not a real number")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if self.name not in _GATES:
            raise ValueError(f"unsupported gate {self.name!r}")
        controls, nparams, _base, _orders = _GATES[self.name]
        if len(self.params) != nparams:
            raise ValueError(f"{self.name} takes {nparams} parameter(s)")
        if not all(map(math.isfinite, self.params)):
            raise ValueError(f"{self.name} parameter is not finite")
        if not self.qubits or controls >= 0 and len(self.qubits) != controls + 1:
            raise ValueError(f"wrong operand count for {self.name}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate wire in {self.name}")

    def to_specs(self, n: int) -> list[GateSpec]:
        """Lower onto DD levels (level = n-1-wire), one spec per wire order."""
        controls, nparams, base, orders = _GATES[self.name]
        u = base(self.params) if nparams else base
        levels = [n - 1 - q for q in self.qubits]
        specs = []
        for order in orders:
            lv = levels[order]
            specs.append(GateSpec(u, lv[controls], tuple((c, True) for c in lv[:controls])))
        return specs


@dataclass
class Circuit:
    n: int
    gates: list[Gate] = field(default_factory=list)
    name: str = ""

    def add(self, gate_name: str, *qubits: int, params: tuple[float, ...] = ()) -> None:
        gate = Gate(gate_name, tuple(qubits), tuple(params))
        for q in gate.qubits:
            if not 0 <= q < self.n:
                raise ValueError(f"wire {q} out of range for {self.n} qubits")
        self.gates.append(gate)

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
            # every alternative names a group and consumes a character
            m = _TOKEN_RE.match(line, pos)
            if m is None:
                stripped = line[pos:].lstrip()
                if not stripped:
                    break
                col = len(line) - len(stripped) + 1
                raise QasmSyntaxError(f"unexpected character {stripped[0]!r}", lineno, col)
            tokens.append((m.group(m.lastgroup), lineno, m.start(m.lastgroup) + 1))
            pos = m.end()
    return tokens


# statements dropped whole -> what the warning calls them (None: silently)
_DROPPED = {"include": None, "barrier": None, "creg": "classical register", "measure": "measure"}


class _Parser:
    """Checks grammar, register name and qubit indices; Gate checks the rest."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def _err(self, message: str, cls: type[QasmError] = QasmSyntaxError):
        """Raise cls at the current token, the last one at end of input."""
        if self.tokens:
            _, line, col = self.tokens[min(self.pos, len(self.tokens) - 1)]
        else:
            line, col = 1, 1
        raise cls(message, line, col)

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def current(self) -> str:
        """The current token, not taken, so that a check of it errs at it."""
        if self.pos >= len(self.tokens):
            self._err("unexpected end of input")
        return self.tokens[self.pos][0]

    def take(self) -> str:
        tok = self.current()
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
            if self.take() == "*":
                value *= self._factor()
            else:
                value /= self._factor(divisor=True)
        return sign * value

    def _factor(self, divisor: bool = False) -> float:
        tok = self.peek()
        if tok == "pi":
            self.pos += 1
            return math.pi
        if tok is not None and (tok[0].isdigit() or tok[0] == "."):
            value = float(tok)
            if divisor and value == 0.0:
                self._err("division by zero in parameter")
            self.pos += 1
            return value
        self._err(f"expected a number or pi, got {tok!r}")

    def parse(self) -> Circuit:
        self.expect("OPENQASM")
        version = self.current()
        if version != "2.0":
            self._err(f"unsupported OPENQASM version {version!r}")
        self.pos += 1
        self.expect(";")

        circuit: Circuit | None = None
        qreg_name = None

        while self.peek() is not None:
            tok = self.peek()
            if tok in _DROPPED:
                if _DROPPED[tok]:
                    line = self.tokens[self.pos][1]
                    warnings.warn(f"line {line}: {_DROPPED[tok]} ignored", stacklevel=3)
                self.skip_statement()
                continue
            if tok == "OPENQASM":
                self._err("duplicate OPENQASM header")
            if tok == "qreg":
                if circuit is not None:
                    self._err("duplicate qreg declaration")
                self.pos += 1
                qreg_name = self.current()
                if not qreg_name.isidentifier():
                    self._err(f"expected a register name, got {qreg_name!r}")
                self.pos += 1
                self.expect("[")
                size_tok = self.current()
                if not size_tok.isdigit() or int(size_tok) < 1:
                    self._err("qreg size must be a positive integer")
                self.pos += 1
                self.expect("]")
                self.expect(";")
                circuit = Circuit(n=int(size_tok))
                continue
            if circuit is None:
                self._err("gate before qreg declaration")
            circuit.gates.append(self._parse_gate(circuit.n, qreg_name))

        if circuit is None:
            self._err("missing qreg declaration")
        return circuit

    def _parse_gate(self, n: int, qreg_name: str) -> Gate:
        start = self.pos
        name = self.peek()
        if name not in _QASM_GATES:
            self._err(f"unknown gate {name!r}")
        self.pos += 1
        params: list[float] = []
        if self.peek() == "(":
            self.pos += 1
            params.append(self.parse_angle())
            while self.peek() == ",":
                self.pos += 1
                params.append(self.parse_angle())
            self.expect(")")
        qubits: list[int] = []
        while True:
            reg = self.peek()
            if reg != qreg_name:
                self._err(f"expected an operand {qreg_name}[k], got {reg!r}")
            self.pos += 1
            self.expect("[")
            idx = self.peek()
            if idx is None or not idx.isdigit():
                self._err(f"expected a qubit index, got {idx!r}")
            if int(idx) >= n:
                self._err(f"qubit index {int(idx)} out of range for qreg[{n}]", QasmSemanticError)
            qubits.append(int(idx))
            self.pos += 1
            self.expect("]")
            if self.peek() != ",":
                break
            self.pos += 1
        self.expect(";")
        try:
            return Gate(name, tuple(qubits), tuple(params))
        except ValueError as exc:
            self.pos = start
            self._err(str(exc))


def parse_qasm(text: str) -> Circuit:
    """Parse the supported OpenQASM 2 subset into a Circuit."""
    return _Parser(text).parse()


def circuit_to_qasm(circuit: Circuit) -> str:
    """Serialize a Circuit; parse_qasm(circuit_to_qasm(c)) == c gate-for-gate."""
    lines = ["OPENQASM 2.0;", f"qreg q[{circuit.n}];"]
    for gate in circuit.gates:
        if gate.name not in _QASM_GATES:
            raise SerializationError(f"gate {gate.name!r} has no QASM form in this subset")
        params = f"({','.join(repr(p) for p in gate.params)})" if gate.params else ""
        operands = ",".join(f"q[{q}]" for q in gate.qubits)
        lines.append(f"{gate.name}{params} {operands};")
    return "\n".join(lines) + "\n"
