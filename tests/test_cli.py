"""End-to-end command-line interface checks (in-process)."""

import json
import math

import pytest

import qdd.cli
from qdd.circuit import Circuit
from qdd.cli import main
from qdd.store import MODE_LEGACY

S2 = 1.0 / math.sqrt(2.0)
BELL = "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n"


def test_simulate_benchmark_stats_json(tmp_path):
    out = tmp_path / "stats.json"
    code = main(
        [
            "simulate", "--benchmark", "ghz", "--qubits", "64",
            "--mode", "new", "--stats-json", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["matrix_nodes_created"] == 127
    assert payload["gc_runs"] == 0
    assert payload["mode"] == "new"
    assert payload["engine_version"]


def test_simulate_input_amplitudes(tmp_path, capsys):
    qasm = tmp_path / "bell.qasm"
    qasm.write_text(BELL)
    code = main(["simulate", "--input", str(qasm), "--amplitudes", "0,3"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("0.7071067811865476") == 2


def test_simulate_amplitudes_printed(capsys):
    argv = ["simulate", "--benchmark", "ghz", "--qubits", "8", "--amplitudes", "0,255,7"]
    assert main(argv) == 0
    printed = {}
    for line in capsys.readouterr().out.splitlines()[1:]:
        index, value = line.removeprefix("amplitude[").split("] = ")
        printed[int(index)] = complex(value)
    assert list(printed) == [0, 255, 7]
    assert abs(printed[0] - S2) < 1e-12
    assert abs(printed[255] - S2) < 1e-12
    assert printed[7] == 0


def test_stats_json_schema(tmp_path):
    out = tmp_path / "stats.json"
    argv = ["simulate", "--benchmark", "ghz", "--qubits", "4", "--amplitudes", "0"]
    assert main(argv + ["--stats-json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert list(payload) == [
        "benchmark", "n", "gate_count", "kind", "mode", "wall_time_seconds",
        "matrix_nodes_created", "vector_nodes_created", "peak_live_nodes",
        "gc_runs", "ct_hit_rate", "engine_version", "epsilon_w", "amplitudes",
    ]
    assert payload["amplitudes"]["0"][0] == pytest.approx(S2)


def test_simulate_dot_output(tmp_path):
    qasm = tmp_path / "bell.qasm"
    qasm.write_text(BELL)
    dot = tmp_path / "bell.dot"
    assert main(["simulate", "--input", str(qasm), "--dot", str(dot)]) == 0
    assert dot.read_text().startswith("digraph")


def test_compare_agrees(tmp_path):
    out = tmp_path / "cmp.json"
    code = main(
        ["compare", "--benchmark", "qft", "--qubits", "10", "--json", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["max_amplitude_deviation"] <= 1e-10
    assert payload["new"]["matrix_nodes_created"] <= payload["legacy"]["matrix_nodes_created"]


def test_compare_above_16_qubits_reads_last_index(monkeypatch):
    # GHZ without its last CX differs from GHZ only at index 2^n - 1 and
    # one index that is not a multiple of the sampling step
    real = qdd.cli.simulate_statevector

    def drop_last_gate_in_legacy(circuit, mode, store=None):
        if mode == MODE_LEGACY:
            circuit = Circuit(circuit.n, circuit.gates[:-1], circuit.name)
        return real(circuit, mode, store=store)

    monkeypatch.setattr(qdd.cli, "simulate_statevector", drop_last_gate_in_legacy)
    assert main(["compare", "--benchmark", "ghz", "--qubits", "17"]) == 1


def test_bench_emits_tables(tmp_path):
    csv_path = tmp_path / "rows.csv"
    json_path = tmp_path / "rows.json"
    code = main(
        [
            "bench", "--benchmark", "ghz", "--qubits", "8,16",
            "--modes", "new,legacy", "--csv", str(csv_path), "--json", str(json_path),
        ]
    )
    assert code == 0
    rows = json.loads(json_path.read_text())
    assert len(rows) == 4
    header = csv_path.read_text().splitlines()[0]
    assert "matrix_nodes_created" in header


def test_bench_without_modes_is_usage_error(tmp_path, capsys):
    json_path = tmp_path / "rows.json"
    code = main(
        ["bench", "--benchmark", "ghz", "--qubits", "8", "--modes", ",", "--json", str(json_path)]
    )
    assert code == 2
    assert "--modes" in capsys.readouterr().err
    assert not json_path.exists()


@pytest.mark.parametrize(
    "extra", [["--qubits", "4,0"], ["--qubits", "4,5", "--secret", "101"]], ids=["n0", "secret"]
)
def test_bench_bad_size_fails_before_any_run(tmp_path, capsys, extra):
    # every size is generated before the first run: no row is printed
    family = "bv" if "--secret" in extra else "ghz"
    csv_path = tmp_path / "rows.csv"
    code = main(["bench", "--benchmark", family, *extra, "--csv", str(csv_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not csv_path.exists()


def test_bench_bad_qubits_names_the_option(capsys):
    code = main(["bench", "--benchmark", "ghz", "--qubits", "4,x"])
    assert code == 2
    captured = capsys.readouterr()
    assert "bad --qubits list '4,x'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-1e-3"])
def test_compare_rejects_bad_tolerance(tolerance, capsys):
    # one token, so argparse does not read "-1e-3" as an option
    code = main(["compare", "--benchmark", "ghz", "--qubits", "4", f"--tolerance={tolerance}"])
    assert code == 2
    captured = capsys.readouterr()
    assert "--tolerance" in captured.err
    assert captured.out == ""


def test_usage_error_exit_2():
    assert main(["simulate", "--no-such-flag"]) == 2
    assert main([]) == 2
    assert main(["simulate", "--benchmark", "ghz"]) == 2  # missing --qubits
    assert main(["simulate"]) == 2  # neither input nor benchmark


def test_unitary_kind_via_cli(tmp_path):
    out = tmp_path / "u.json"
    code = main(
        [
            "simulate", "--benchmark", "qft", "--qubits", "4",
            "--kind", "unitary", "--stats-json", str(out),
        ]
    )
    assert code == 0
    assert json.loads(out.read_text())["kind"] == "unitary"


def test_engine_error_exit_1(tmp_path):
    bad = tmp_path / "bad.qasm"
    bad.write_text("OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];\n")
    assert main(["simulate", "--input", str(bad)]) == 1


def test_missing_file_exit_1():
    assert main(["simulate", "--input", "/nonexistent/x.qasm"]) == 1


def test_help_exit_0(capsys):
    assert main(["--help"]) == 0
    assert "simulate" in capsys.readouterr().out


def test_unitary_dot_ends_in_a_newline(tmp_path):
    qasm = tmp_path / "empty.qasm"
    qasm.write_text("OPENQASM 2.0;\nqreg q[2];\n")
    dot = tmp_path / "e.dot"
    assert main(["simulate", "--input", str(qasm), "--kind", "unitary", "--dot", str(dot)]) == 0
    assert dot.read_text().endswith("}\n")


@pytest.mark.parametrize("amplitudes", ["-1", "4", "0,4", ",", ""])
def test_bad_amplitudes_rejected_before_the_run(amplitudes, tmp_path, capsys):
    qasm = tmp_path / "bell.qasm"
    qasm.write_text(BELL)
    # one token, so argparse does not read "-1" as an option
    code = main(["simulate", "--input", str(qasm), f"--amplitudes={amplitudes}"])
    assert code == 2
    captured = capsys.readouterr()
    assert "--amplitudes" in captured.err
    assert captured.out == ""  # no run report: nothing was simulated
