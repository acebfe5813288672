"""Benchmark family generators: gate counts and prepared states."""

import math

import numpy as np
import pytest

from dense import dft_matrix, simulate, unitary
from qdd import (
    gen_bv,
    gen_ghz,
    gen_grover,
    gen_qft,
    gen_qpe,
    gen_w,
    generate,
    grover_iterations,
)
from qdd.bench import default_bv_secret

S2 = 1.0 / math.sqrt(2.0)


# -- gate-count formulas -------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 16, 256])
def test_ghz_gate_count(n):
    assert gen_ghz(n).gate_count() == n


@pytest.mark.parametrize("n", [2, 5, 256])
def test_w_gate_count(n):
    assert gen_w(n).gate_count() == 4 * n - 3


def test_w_count_at_256_is_1021():
    assert gen_w(256).gate_count() == 1021


@pytest.mark.parametrize("n", [1, 3, 256])
def test_qft_gate_count(n):
    assert gen_qft(n).gate_count() == n * (n + 1) // 2 + n // 2


def test_qft_count_at_256_is_33024():
    assert gen_qft(256).gate_count() == 33024


def test_qft_pre_and_post_lowering_counts():
    c = gen_qft(4)
    assert c.gate_count() == 12  # swaps counted once each
    assert len(c.to_specs()) == 16  # each swap becomes three cx


def test_bv_gate_count_formula():
    for n in (2, 7, 64):
        secret = default_bv_secret(n)
        pop = secret.count("1")
        assert gen_bv(n).gate_count() == 2 * (n - 1) + pop + 3


def test_bv_default_count_within_bounds_at_256():
    count = gen_bv(256).gate_count()
    assert 511 <= count <= 893


def test_grover_iteration_counts():
    assert grover_iterations(2) == 1
    assert grover_iterations(28) == 12867  # floor((pi/4) * 2^14)


def test_qpe_gate_count_order_of_magnitude():
    # 15 total qubits: exact value depends on lowering choices
    count = gen_qpe(14).gate_count()
    assert 50 <= count <= 400


# -- generator validation -------------------------------------------------


def test_generator_preconditions():
    with pytest.raises(ValueError):
        gen_ghz(0)
    with pytest.raises(ValueError):
        gen_w(1)
    with pytest.raises(ValueError):
        gen_bv(4, "11")  # wrong secret length
    with pytest.raises(ValueError):
        gen_qpe(3, 8)  # k out of range
    with pytest.raises(ValueError):
        gen_grover(4, "111")
    with pytest.raises(ValueError):
        generate("nope", 4)


# -- prepared states against the dense oracle ------------------------------


def test_ghz_2_is_bell():
    state = simulate(gen_ghz(2))
    assert np.abs(state - np.array([S2, 0, 0, S2])).max() < 1e-12


def test_ghz_1_is_plus():
    state = simulate(gen_ghz(1))
    assert np.abs(state - np.array([S2, S2])).max() < 1e-12


@pytest.mark.parametrize("n", [3, 6, 10])
def test_ghz_endpoints(n):
    state = simulate(gen_ghz(n))
    assert abs(state[0] - S2) < 1e-12
    assert abs(state[-1] - S2) < 1e-12
    assert np.abs(state[1:-1]).max() < 1e-12


def test_w_2_amplitudes():
    state = simulate(gen_w(2))
    assert abs(state[1] - S2) < 1e-12
    assert abs(state[2] - S2) < 1e-12
    assert abs(state[0]) < 1e-12 and abs(state[3]) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 5, 8, 10])
def test_w_uniform_one_hot(n):
    state = simulate(gen_w(n))
    hot = [1 << k for k in range(n)]
    probs = np.abs(state) ** 2
    assert probs[hot].sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(probs[hot], 1.0 / n, atol=1e-12)


@pytest.mark.parametrize("secret", ["11", "1010", "00110", "0000"])
def test_bv_recovers_secret(secret):
    n = len(secret) + 1
    state = simulate(gen_bv(n, secret))
    # data register reads the secret, ancilla ends in |1>
    index = (int(secret, 2) << 1) | 1
    assert abs(abs(state[index]) - 1.0) < 1e-10


def test_bv_all_zero_secret_returns_zero_register():
    state = simulate(gen_bv(5, "0000"))
    assert abs(abs(state[1]) - 1.0) < 1e-10  # |0000>|1>


def test_qft_of_basis_state_matches_dft_column():
    # oracle: dense DFT matrix of size 8 applied to |001>
    n = 3
    circuit = gen_qft(n)
    col = dft_matrix(n)[:, 1]
    state = np.zeros(1 << n, dtype=complex)
    state[1] = 1.0
    from dense import apply_spec

    for spec in circuit.to_specs():
        state = apply_spec(state, spec, n)
    assert np.abs(state - col).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_qft_unitary_is_dft(n):
    assert np.abs(unitary(gen_qft(n)) - dft_matrix(n)).max() < 1e-11


@pytest.mark.parametrize("bits,k", [(3, 5), (3, 0), (4, 9), (5, 17)])
def test_qpe_exact_dyadic_phase(bits, k):
    # dyadic eigenphase: the precision register ends exactly in |k>
    state = simulate(gen_qpe(bits, k))
    index = (k << 1) | 1  # eigenstate wire stays |1> at the bottom
    assert abs(abs(state[index]) - 1.0) < 1e-9
    others = np.abs(state) ** 2
    assert others.sum() == pytest.approx(1.0, abs=1e-12)


def test_grover_2_exact():
    state = simulate(gen_grover(2, "11"))
    assert abs(state[3]) ** 2 == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("marked", ["101101", "000000", "111111"])
def test_grover_6_high_success(marked):
    state = simulate(gen_grover(6, marked))
    assert abs(state[int(marked, 2)]) ** 2 >= 0.9


def test_grover_lowered_mcz_matches_native():
    # the parity-network lowering is exact, including global phase
    for n in (2, 3, 5):
        u_native = unitary(gen_grover(n, mcz="native"))
        u_lowered = unitary(gen_grover(n, mcz="lowered"))
        assert np.abs(u_native - u_lowered).max() < 1e-9


def test_grover_lowered_rejected_at_scale():
    with pytest.raises(ValueError):
        gen_grover(16, mcz="lowered")
