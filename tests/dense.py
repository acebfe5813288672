"""Brute-force dense reference implementations used as test oracles.

Deliberately independent of the DD engine's arithmetic: states are numpy
arrays indexed so that bit `level` of an index is the qubit at that DD
level, and gates are applied by direct index manipulation.
"""

from __future__ import annotations

import numpy as np

from qdd import amplitude, make_vector_node, matrix_entry
from qdd.store import TERMINAL, ZERO_EDGE


def apply_spec(state: np.ndarray, spec, n: int) -> np.ndarray:
    """Apply one controlled 2x2 gate (level indices) to a dense state."""
    out = state.copy()
    idx = np.arange(state.size)
    ok = np.ones(state.size, dtype=bool)
    for level, positive in spec.controls:
        bit = (idx >> level) & 1
        ok &= bit == (1 if positive else 0)
    tbit = (idx >> spec.target) & 1
    i0 = idx[ok & (tbit == 0)]
    i1 = i0 | (1 << spec.target)
    u00, u01, u10, u11 = spec.base
    a0 = state[i0]
    a1 = state[i1]
    out[i0] = u00 * a0 + u01 * a1
    out[i1] = u10 * a0 + u11 * a1
    return out


def simulate(circuit) -> np.ndarray:
    state = np.zeros(1 << circuit.n, dtype=complex)
    state[0] = 1.0
    for spec in circuit.to_specs():
        state = apply_spec(state, spec, circuit.n)
    return state


def spec_matrix(spec, n: int) -> np.ndarray:
    dim = 1 << n
    m = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        e = np.zeros(dim, dtype=complex)
        e[col] = 1.0
        m[:, col] = apply_spec(e, spec, n)
    return m


def unitary(circuit) -> np.ndarray:
    u = np.eye(1 << circuit.n, dtype=complex)
    for spec in circuit.to_specs():
        u = spec_matrix(spec, circuit.n) @ u
    return u


def dft_matrix(n: int) -> np.ndarray:
    dim = 1 << n
    omega = np.exp(2j * np.pi / dim)
    grid = np.arange(dim)
    return omega ** np.outer(grid, grid) / np.sqrt(dim)


def build_vdd(store, vec: np.ndarray) -> tuple:
    """Build a vector DD from a dense vector by recursive halving."""

    def build(lo: int, hi: int, level: int) -> tuple:
        if level < 0:
            v = complex(vec[lo])
            if v == 0:
                return ZERO_EDGE
            return (TERMINAL, store.weights.intern(v.real, v.imag))
        mid = (lo + hi) // 2
        e0 = build(lo, mid, level - 1)
        e1 = build(mid, hi, level - 1)
        return make_vector_node(store, level, e0, e1)

    n = int(np.log2(vec.size))
    assert 1 << n == vec.size
    return build(0, vec.size, n - 1)


def read_state(store, edge: tuple, n: int) -> np.ndarray:
    return np.array([amplitude(store, edge, i) for i in range(1 << n)])


def read_matrix(store, edge: tuple, n: int) -> np.ndarray:
    dim = 1 << n
    return np.array(
        [[matrix_entry(store, edge, r, c, n) for c in range(dim)] for r in range(dim)]
    )


def random_state(n: int, rng, sparsity: float = 0.5) -> np.ndarray:
    """Random normalized state with a sparse support pattern."""
    dim = 1 << n
    vec = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) * (
        rng.random(dim) < sparsity
    )
    if not vec.any():
        vec[int(rng.integers(dim))] = 1.0
    return vec / np.linalg.norm(vec)
