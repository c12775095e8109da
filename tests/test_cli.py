"""CLI contract tests: exit codes, determinism, file outputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wirecut.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


# (method, cut width, `wirecut estimate` stdout without its newline)
ESTIMATE_BYTES = [
    ("mub", 1, '{"estimate": 0.9834, "gamma_total": 3.0, "seed": 0, "shots": 100000, '
     '"std_error": 0.008962703146957227, "tallies": [[33185, 33205, 33610]]}'),
    ("optimal1q", 1, '{"estimate": 0.9834, "gamma_total": 3.0, "seed": 0, "shots": 100000, '
     '"std_error": 0.008962703146957227, "tallies": [[33185, 33205, 33610]]}'),
    ("peng", 1, '{"estimate": 0.98544, "gamma_total": 4.0, "seed": 0, "shots": 100000, '
     '"std_error": 0.01225930597423156, '
     '"tallies": [[12414, 12363, 12492, 12531, 12394, 12641, 12614, 12551]]}'),
    ("randomized", 1, '{"estimate": 0.9761, "gamma_total": 5.0, "seed": 0, "shots": 100000, '
     '"std_error": 0.015507246455993611, "tallies": [[2495, 2393, 2530, 2477, 2519, 2469, '
     '2538, 2466, 2443, 2447, 2527, 2478, 2498, 2527, 2462, 2522, 2551, 2457, 2523, 2478, '
     '2557, 2485, 2465, 2454, 40239]]}'),
    ("teleport", 1, '{"estimate": 0.9834, "gamma_total": 3.0, "seed": 0, "shots": 100000, '
     '"std_error": 0.008962703146957227, "tallies": [[22079, 22159, 22152, 16815, 16795]]}'),
    ("mub", 2, '{"estimate": 0.46277, "gamma_total": 7.0, "seed": 0, "shots": 100000, '
     '"std_error": 0.015609598837470444, "tallies": [[14174, 14154, 14344, 14247, 43081]]}'),
    ("teleport", 2, '{"estimate": 0.46977, "gamma_total": 7.0, "seed": 0, "shots": 100000, '
     '"std_error": 0.015591802093213123, "tallies": [[3763, 3767, 3778, 3808, 3879, 3701, '
     '3759, 3756, 3904, 3726, 3903, 3821, 3775, 3844, 3735, 3527, 3565, 3621, 3636, 3567, '
     '3609, 3616, 3544, 3638, 3580, 3598, 3580]]}'),
]

def off_identity_optimal1q(edit):
    """The optimal1q file with edit() applied to its channel list; its gamma
    is the edited weights' one-norm, so only the residual is wrong."""
    from wirecut.channels import build_optimal_1q, decomposition_to_json

    data = decomposition_to_json(build_optimal_1q())
    edit(data["channels"])
    data["gamma"] = sum(abs(ch["weight"]) for ch in data["channels"])
    return data


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFamilies:
    def test_n2(self, capsys, tmp_path):
        out = tmp_path / "fams.json"
        code, _, _ = run(capsys, "families", "--n", "2", "--out", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["families"]) == 5
        assert set(data["families"][-1]["members"]) == {"ZI", "IZ", "ZZ"}

    def test_n1_count(self, capsys):
        code, out, _ = run(capsys, "families", "--n", "1")
        assert code == 0
        assert len(json.loads(out)["families"]) == 3

    def test_resource_limit_exit_2(self, capsys):
        code, _, err = run(capsys, "families", "--n", "13")
        assert code == 2
        assert "error" in err


class TestSynth:
    def test_n1_files_match_golden(self, capsys, tmp_path):
        code, _, _ = run(capsys, "synth", "--n", "1", "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "U001.txt").read_text().splitlines() == ["H 1"]
        assert (tmp_path / "U002.txt").read_text().splitlines() == ["H 1", "SDG 1"]
        stats = (tmp_path / "stats.csv").read_text().splitlines()
        assert stats[0] == "index,file,NH,NS,NCZ,depth"
        assert len(stats) == 3

    def test_n4_all_verified(self, capsys, tmp_path):
        code, _, _ = run(capsys, "synth", "--n", "4", "--out", str(tmp_path))
        assert code == 0
        assert len(list(tmp_path.glob("U*.txt"))) == 16

    def test_n7_symplectic_verification_path(self, capsys, tmp_path):
        code, _, _ = run(capsys, "synth", "--n", "7", "--out", str(tmp_path))
        assert code == 0
        assert len(list(tmp_path.glob("U*.txt"))) == 128


class TestVerify:
    @pytest.mark.parametrize(
        "method,n",
        [("peng", 1), ("optimal1q", 1), ("mub", 2), ("mub", 3), ("randomized", 1), ("teleport", 1), ("teleport", 2)],
    )
    def test_methods_pass(self, capsys, method, n):
        code, out, _ = run(capsys, "verify", "--method", method, "--n", str(n))
        assert code == 0
        assert f"method={method}" in out

    def test_mub_n3_values(self, capsys):
        code, out, _ = run(capsys, "verify", "--method", "mub", "--n", "3")
        assert code == 0
        assert "gamma=15.0" in out and "m=9" in out

    def test_mub_cap_exits_2_before_the_partition(self, capsys, monkeypatch):
        from wirecut import families

        def partition(n):
            raise AssertionError("the partition ran past the width cap")

        monkeypatch.setattr(families, "generate_partition", partition)
        code, out, err = run(capsys, "verify", "--method", "mub", "--n", "12")
        assert code == 2
        assert out == ""
        assert err == "error: builder capped at 6 qubits\n"

    def test_teleport_guard(self, capsys):
        code, _, err = run(capsys, "verify", "--method", "teleport", "--n", "3")
        assert code == 2

    def test_saved_file_passes_on_its_residual(self, capsys, tmp_path):
        """A saved file is held to its residual only: a mub n = 2 file passes
        whatever --n says, with the builder's line but for the method."""
        from wirecut.channels import build_mub_default, save_decomposition

        dec_file = tmp_path / "mub2.json"
        save_decomposition(build_mub_default(2), dec_file)
        code, built, _ = run(capsys, "verify", "--method", "mub", "--n", "2")
        assert code == 0
        code, out, err = run(capsys, "verify", "--method", f"file:{dec_file}")
        assert code == 0
        assert err == ""
        assert out == built.replace("method=mub", f"method=file:{dec_file}")

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda ch: ch[0].update(weight=2.0), id="weight"),
        pytest.param(lambda ch: ch[2].update(signs=[1, -1]), id="signs"),
    ])
    def test_saved_file_off_the_identity_exit_1(self, capsys, tmp_path, edit):
        """The edited optimal1q files are off the identity by 1.0: the
        residual line is printed and stderr names the file."""
        data = off_identity_optimal1q(edit)
        dec_file = tmp_path / "bad.json"
        dec_file.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", "--method", f"file:{dec_file}")
        assert code == 1
        assert out.startswith(f"method=file:{dec_file} n=1 ")
        assert abs(float(out.split("residual=")[1]) - 1.0) < 1e-9
        assert err.startswith(f"verification mismatch: {dec_file}: ")

    def test_saved_file_off_by_1e_8_exit_1(self, capsys, tmp_path):
        """A weight 1e-8 off gives a residual of about 1e-8: below 1e-6, but
        not below PTM_TOL = 1e-10."""
        data = off_identity_optimal1q(lambda ch: ch[0].update(weight=ch[0]["weight"] + 1e-8))
        dec_file = tmp_path / "near.json"
        dec_file.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", "--method", f"file:{dec_file}")
        assert code == 1
        assert 1e-9 < float(out.split("residual=")[1]) < 1e-7
        assert err.startswith(f"verification mismatch: {dec_file}: ")

    def test_randomized_held_to_its_24_clifford_m(self, capsys, monkeypatch):
        """The three-basis 2-design {I, H, S H} sums to the identity with
        gamma = 5 too, but its m = 4 is not the default ensemble's 25."""
        from fractions import Fraction

        import numpy as np

        from wirecut import channels
        from wirecut.dense import H_1Q, S_1Q

        bases = (np.eye(2), H_1Q, S_1Q @ H_1Q)
        three = channels.build_randomized_nq(1, [(u, Fraction(1, 3)) for u in bases])
        monkeypatch.setitem(channels.BUILDERS, "randomized", lambda n: three)
        code, out, err = run(capsys, "verify", "--method", "randomized", "--n", "1")
        assert code == 1
        assert out.startswith("method=randomized n=1 gamma=5.0 m=4 residual=")
        assert float(out.split("residual=")[1]) < 1e-10
        assert err == "verification mismatch against closed forms\n"

    @pytest.mark.parametrize("command", ["verify", "estimate"])
    @pytest.mark.parametrize("field, value, message", [
        ("gamma", 999, "field gamma is 999, but the channels' weights give 7.0"),
        ("m", 1, "field m is 1, but the file has 5 channels"),
    ], ids=["gamma", "m"])
    def test_file_stating_another_gamma_or_m_exit_2(
        self, capsys, tmp_path, command, field, value, message
    ):
        from wirecut.channels import build_mub_default, decomposition_to_json

        data = decomposition_to_json(build_mub_default(2))
        data[field] = value
        dec_file = tmp_path / "mub2.json"
        dec_file.write_text(json.dumps(data))
        argv = ["--method", f"file:{dec_file}"]
        if command == "estimate":
            argv += [
                "--circuit", str(DEMOS / "demo_ghz.json"),
                "--cuts", str(DEMOS / "demo_cut_2wire.json"),
                "--shots", "1000",
            ]
        code, out, err = run(capsys, command, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {dec_file}: {message}\n"

    def test_unknown_method_names_the_flag(self, capsys):
        code, out, err = run(capsys, "verify", "--method", "bogus")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --method: unknown method 'bogus'")


class TestExactAndEstimate:
    def test_exact_demo(self, capsys):
        code, out, _ = run(capsys, "exact", "--circuit", str(DEMOS / "demo_circuit.json"))
        assert code == 0
        assert out.strip() == "1.000000000000"

    def test_exact_ghz(self, capsys):
        code, out, _ = run(capsys, "exact", "--circuit", str(DEMOS / "demo_ghz.json"))
        assert code == 0
        assert out.strip() == "0.500000000000"

    def test_estimate_matches_exact_within_bound(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, _, _ = run(
            capsys,
            "estimate",
            "--circuit", str(DEMOS / "demo_circuit.json"),
            "--cuts", str(DEMOS / "demo_cut.json"),
            "--method", "optimal1q",
            "--shots", "100000",
            "--seed", "0",
            "--out", str(out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert abs(report["estimate"] - 1.0) <= 5 * 3.0 / (10**5) ** 0.5
        assert report["gamma_total"] == 3.0

    def test_estimate_out_of_memory_exits_2(self, capsys, monkeypatch):
        """numpy's failed allocation, a MemoryError, is a resource error:
        exit 2 and one error line, not a traceback and the mismatch code."""
        message = "Unable to allocate 16.0 GiB for an array with shape (65536, 32768)"

        def no_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr("wirecut.cli.run_monte_carlo", no_memory)
        code, out, err = run(
            capsys,
            "estimate",
            "--circuit", str(DEMOS / "demo_circuit.json"),
            "--cuts", str(DEMOS / "demo_cut.json"),
            "--shots", "10",
        )
        assert code == 2
        assert out == ""
        assert err == f"error: out of memory: {message}\n"

    def test_estimate_deterministic_bytes(self, capsys, tmp_path):
        files = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code, _, _ = run(
                capsys,
                "estimate",
                "--circuit", str(DEMOS / "demo_circuit.json"),
                "--cuts", str(DEMOS / "demo_cut.json"),
                "--method", "peng",
                "--shots", "2000",
                "--seed", "11",
                "--out", str(out),
            )
            assert code == 0
            files.append(out.read_bytes())
        assert files[0] == files[1]

    @pytest.mark.parametrize("seed", ["0", str(2**64 + 5)])
    def test_estimate_bytes_agree_across_processes(self, tmp_path, seed):
        """Two interpreters with different string-hash seeds write the same
        estimate bytes, for a seed that fits 64 bits and one that does not."""
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        files = []
        for hash_seed in ("1", "2"):
            out = tmp_path / f"hash{hash_seed}.json"
            subprocess.run(
                [
                    sys.executable, "-m", "wirecut.cli", "estimate",
                    "--circuit", str(DEMOS / "demo_circuit.json"),
                    "--cuts", str(DEMOS / "demo_cut.json"),
                    "--method", "mub",
                    "--shots", "20000",
                    "--seed", seed,
                    "--out", str(out),
                ],
                env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path},
                check=True,
            )
            files.append(out.read_bytes())
        assert files[0] == files[1]
        assert json.loads(files[0])["seed"] == int(seed)

    def test_estimate_from_exported_decomposition(self, capsys, tmp_path):
        from wirecut.channels import build_optimal_1q, save_decomposition

        dec_file = tmp_path / "opt.json"
        save_decomposition(build_optimal_1q(), dec_file)
        outputs = []
        for method in ("optimal1q", f"file:{dec_file}"):
            out = tmp_path / f"{method.split(':')[0]}.out"
            code, _, _ = run(
                capsys,
                "estimate",
                "--circuit", str(DEMOS / "demo_circuit.json"),
                "--cuts", str(DEMOS / "demo_cut.json"),
                "--method", method,
                "--shots", "5000",
                "--seed", "4",
                "--out", str(out),
            )
            assert code == 0
            outputs.append(json.loads(out.read_text()))
        assert outputs[0]["estimate"] == outputs[1]["estimate"]

    @pytest.mark.parametrize("method, n", [
        pytest.param(method, 1, id=method) for method in ("optimal1q", "peng", "mub")
    ] + [pytest.param(method, 2, id=f"{method}-2wire") for method in ("mub", "teleport")])
    def test_file_estimate_prints_the_same_bytes(self, capsys, tmp_path, method, n):
        """A saved file holds the builder's channel arrays, so the estimate's
        stdout is the same to the byte: one-wire cuts of the demo circuit,
        two-wire cuts of the GHZ demo."""
        from wirecut.channels import build_decomposition, save_decomposition

        circuit, cuts = {1: ("demo_circuit.json", "demo_cut.json"),
                         2: ("demo_ghz.json", "demo_cut_2wire.json")}[n]
        dec_file = tmp_path / f"{method}.json"
        save_decomposition(build_decomposition(method, n), dec_file)
        outputs = []
        for source in (method, f"file:{dec_file}"):
            code, out, _ = run(
                capsys,
                "estimate",
                "--circuit", str(DEMOS / circuit),
                "--cuts", str(DEMOS / cuts),
                "--method", source,
                "--shots", "20001",
                "--seed", "0",
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "method, n, stdout", ESTIMATE_BYTES, ids=[f"{m}-{n}" for m, n, _ in ESTIMATE_BYTES]
    )
    def test_two_wire_cut_demo_bytes(self, capsys, method, n, stdout):
        """Estimates at 100,000 shots and seed 0 print these bytes: every
        builder on the one-wire cut of the demo circuit, and mub and
        teleport on the 2-wire cut of the GHZ demo."""
        circuit, cuts = {1: ("demo_circuit.json", "demo_cut.json"),
                         2: ("demo_ghz.json", "demo_cut_2wire.json")}[n]
        code, out, _ = run(
            capsys,
            "estimate",
            "--circuit", str(DEMOS / circuit),
            "--cuts", str(DEMOS / cuts),
            "--method", method,
            "--shots", "100000",
            "--seed", "0",
        )
        assert code == 0
        assert out == stdout + "\n"

    def test_optimal1q_bytes_on_an_asymmetric_circuit(self, capsys, tmp_path):
        """A 2-qubit circuit whose cut wire carries <X>, <Y> and <Z> all
        nonzero, and whose layer after the cut tells |+i> from |-i>: the
        estimate's bytes change if the order of either basis's two outcomes
        does (the demo circuit's X and Y outcomes are symmetric)."""
        import numpy as np

        from wirecut.dense import CX_2Q
        from wirecut.estimator import CircuitLayer, LayeredCircuit, PostProcess, circuit_to_json

        b = 0.48 + 0.64j
        u = np.array([[0.6, -np.conj(b)], [b, 0.6]])
        circuit = LayeredCircuit(2, (CircuitLayer(1, u), CircuitLayer(1, u), CircuitLayer(1, CX_2Q)))
        circuit_file, cuts_file = tmp_path / "circuit.json", tmp_path / "cuts.json"
        circuit_file.write_text(json.dumps(circuit_to_json(circuit, PostProcess.bit(2, 2))))
        cuts_file.write_text(json.dumps({"locations": [{"after_layer": 1, "wires": [1]}]}))
        code, out, _ = run(
            capsys,
            "estimate",
            "--circuit", str(circuit_file),
            "--cuts", str(cuts_file),
            "--method", "optimal1q",
            "--shots", "100000",
            "--seed", "0",
        )
        assert code == 0
        assert out == (
            '{"estimate": 0.9057, "gamma_total": 3.0, "seed": 0, "shots": 100000, '
            '"std_error": 0.007194511290555259, "tallies": [[33185, 33205, 33610]]}\n'
        )

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda ch: ch[0].update(weight=2.0), id="weight"),
        pytest.param(lambda ch: ch[2].update(signs=[1, -1]), id="signs"),
    ])
    def test_file_off_the_identity_exit_1(self, capsys, tmp_path, edit):
        """An optimal1q file with one channel edited sums to a channel
        whose transfer matrix is off the identity by 1.0: the run stops before
        sampling, with the residual on stderr and nothing on stdout."""
        data = off_identity_optimal1q(edit)
        dec_file = tmp_path / "bad.json"
        dec_file.write_text(json.dumps(data))
        code, out, err = run(
            capsys,
            "estimate",
            "--circuit", str(DEMOS / "demo_circuit.json"),
            "--cuts", str(DEMOS / "demo_cut.json"),
            "--method", f"file:{dec_file}",
            "--shots", "100000",
        )
        assert code == 1
        assert out == ""
        assert str(dec_file) in err
        residual = float(err.split("residual=")[1].rstrip(")\n"))
        assert abs(residual - 1.0) < 1e-9

    def test_estimate_width_mismatch_from_file(self, capsys, tmp_path):
        from wirecut.channels import build_mub_default, save_decomposition

        dec_file = tmp_path / "two.json"
        save_decomposition(build_mub_default(2), dec_file)
        code, _, err = run(
            capsys,
            "estimate",
            "--circuit", str(DEMOS / "demo_circuit.json"),
            "--cuts", str(DEMOS / "demo_cut.json"),
            "--method", f"file:{dec_file}",
            "--shots", "10",
        )
        assert code == 2
        assert "width" in err

    @pytest.mark.parametrize("circuit", ["demo_circuit.json", "no_such_file.json"])
    def test_unknown_method_names_the_flag(self, capsys, circuit):
        code, out, err = run(
            capsys,
            "estimate",
            "--circuit", str(DEMOS / circuit),
            "--cuts", str(DEMOS / "demo_cut.json"),
            "--method", "bogus",
            "--shots", "10",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: --method: unknown method 'bogus'")
        assert ".json" not in err

    def test_zero_shots_exit_2(self, capsys):
        code, _, err = run(
            capsys,
            "estimate",
            "--circuit", str(DEMOS / "demo_circuit.json"),
            "--cuts", str(DEMOS / "demo_cut.json"),
            "--shots", "0",
        )
        assert code == 2

    @pytest.mark.parametrize("seed", ["-1", str(2**128)])
    def test_out_of_range_seed_exit_2(self, capsys, seed):
        code, _, err = run(
            capsys,
            "estimate",
            "--circuit", str(DEMOS / "demo_circuit.json"),
            "--cuts", str(DEMOS / "demo_cut.json"),
            "--shots", "10",
            "--seed", seed,
        )
        assert code == 2
        assert f"seed {seed}" in err
        assert "Traceback" not in err

    def test_shot_cap_exit_2(self, capsys):
        code, out, err = run(
            capsys,
            "estimate",
            "--circuit", str(DEMOS / "demo_circuit.json"),
            "--cuts", str(DEMOS / "demo_cut.json"),
            "--shots", "10000000000000",
        )
        assert code == 2
        assert out == ""
        assert "shots capped" in err
        assert "Traceback" not in err

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run(capsys, "exact", "--circuit", "no_such_file.json")
        assert code == 2


def _edited(name, edit):
    data = json.loads((DEMOS / name).read_text())
    edit(data)
    return json.dumps(data)


def _circuit(edit):
    return "circuit", _edited("demo_circuit.json", edit)


def _cuts(edit):
    return "cuts", _edited("demo_cut.json", edit)


def _layer(i, edit):
    return _circuit(lambda d: edit(d["layers"][i]))


def _location(edit):
    return _cuts(lambda d: edit(d["locations"][0]))


def _decomposition(edit):
    from wirecut.channels import build_optimal_1q, decomposition_to_json

    data = decomposition_to_json(build_optimal_1q())
    edit(data)
    return "decomposition", json.dumps(data)


def _channel(edit):
    return _decomposition(lambda d: edit(d["channels"][0]))


def _dense_term_format(data):
    """Rewrite each channel as the format written before channels were
    stored as arrays: dense {"a", "effect", "prep"} terms."""
    from wirecut.channels import _array_to_json, build_optimal_1q

    for entry, (_, ch) in zip(data["channels"], build_optimal_1q().channels):
        for key in ("signs", "effects", "prep_probs", "preps"):
            del entry[key]
        entry["terms"] = [
            {"a": a, "effect": _array_to_json(e), "prep": _array_to_json(p)}
            for a, e, p in zip(ch.signs.tolist(), *ch.dense_terms())
        ]


F_FORMS = 'field f must be "parity", "bit:k" with k in [1, 3], or "table"'

# case -> (which file is malformed, its text, what the error must name)
MALFORMED = {
    "circuit_truncated": (
        "circuit", (DEMOS / "demo_circuit.json").read_text()[:200], "not valid JSON"
    ),
    "circuit_not_object": ("circuit", "[1, 2]", "top level"),
    "width_missing": (*_circuit(lambda d: d.pop("width")), "width"),
    "width_not_int": (*_circuit(lambda d: d.update(width="3")), "width"),
    "width_zero": (*_circuit(lambda d: d.update(width=0)), "width"),
    "width_above_cap": (*_circuit(lambda d: d.update(width=13)), "width"),
    "layers_missing": (*_circuit(lambda d: d.pop("layers")), "layers"),
    "qubits_missing": (*_layer(1, lambda l: l.pop("qubits")), "layers[1].qubits"),
    "qubits_beyond_width": (*_layer(1, lambda l: l.update(qubits=[3, 4])), "layers[1].qubits"),
    "matrix_missing": (*_layer(0, lambda l: l.pop("matrix")), "layers[0].matrix"),
    "matrix_malformed": (*_layer(0, lambda l: l.update(matrix=[[1, 0]])), "layers[0].matrix"),
    "table_missing": (*_circuit(lambda d: d.update(f="table")), "table"),
    "table_nan": (
        *_circuit(lambda d: d.update(f="table", table=[float("nan")] + [0.5] * 7)),
        "field table: postprocess values must lie in [-1, 1]",
    ),
    "bad_postprocess": (*_circuit(lambda d: d.update(f="bit:x")), "field f"),
    "f_not_string": (*_circuit(lambda d: d.update(f=5)), F_FORMS),
    "f_null": (*_circuit(lambda d: d.update(f=None)), F_FORMS),
    "table_text": (
        *_circuit(lambda d: d.update(f="table", table=["1", "-1", "0.5"] + ["1"] * 5)),
        "field table must be an array of 8 numbers",
    ),
    "table_boolean": (
        *_circuit(lambda d: d.update(f="table", table=[True] + [0.5] * 7)),
        "field table must be an array of 8 numbers",
    ),
    "matrix_boolean_pair": (
        *_layer(0, lambda l: l["matrix"][0].__setitem__(0, [True, 0.0])),
        "field layers[0].matrix must be an array of 4 x 4 [re, im] pairs",
    ),
    "table_wrong_length": (
        *_circuit(lambda d: d.update(f="table", table=[1.0] * 7)),
        "field table must be an array of 8 numbers",
    ),
    "matrix_not_unitary": (
        *_layer(1, lambda l: l["matrix"][0].__setitem__(0, [2, 0])),
        "field layers[1].matrix: layer matrix is not unitary",
    ),
    "cuts_truncated": ("cuts", (DEMOS / "demo_cut.json").read_text()[:10], "not valid JSON"),
    "locations_missing": ("cuts", "{}", "locations"),
    "after_layer_missing": (
        *_location(lambda c: c.pop("after_layer")), "locations[0].after_layer"
    ),
    "wires_missing": (*_location(lambda c: c.pop("wires")), "locations[0].wires"),
    "wires_empty": (*_location(lambda c: c.update(wires=[])), "locations[0].wires"),
    "wires_below_one": (*_location(lambda c: c.update(wires=[0])), "locations[0].wires"),
    "wires_past_width": (*_location(lambda c: c.update(wires=[4])), "locations[0].wires"),
    "after_layer_negative": (
        *_location(lambda c: c.update(after_layer=-1)), "locations[0].after_layer"
    ),
    "after_layer_past_end": (
        *_location(lambda c: c.update(after_layer=3)), "locations[0].after_layer"
    ),
    "qubits_below_one": (*_layer(0, lambda l: l.update(qubits=[0, 1])), "layers[0].qubits"),
    "decomposition_truncated": (
        "decomposition", _decomposition(lambda d: None)[1][:200], "not valid JSON"
    ),
    "n_missing": (*_decomposition(lambda d: d.pop("n")), "field n"),
    "n_not_int": (*_decomposition(lambda d: d.update(n=1.0)), "field n"),
    "n_above_cap": (*_decomposition(lambda d: d.update(n=7)), "field n"),
    "channels_missing": (*_decomposition(lambda d: d.pop("channels")), "channels"),
    "channels_empty": (*_decomposition(lambda d: d.update(channels=[])), "channels"),
    "weight_missing": (
        *_decomposition(lambda d: d["channels"][0].pop("weight")), "channels[0].weight"
    ),
    "weight_not_number": (
        *_decomposition(lambda d: d["channels"][1].update(weight="1")), "channels[1].weight"
    ),
    "weights_zero": (
        *_decomposition(lambda d: [c.update(weight=0) for c in d["channels"]]), "channels"
    ),
    "weights_overflow": (
        *_decomposition(lambda d: [c.update(weight=1e308) for c in d["channels"][:2]]),
        "channels",
    ),
    "weight_infinite": (
        *_decomposition(lambda d: d["channels"][0].update(weight=float("inf"))),
        "channels[0].weight",
    ),
    "dense_term_format": (*_decomposition(_dense_term_format), "missing field channels[0].signs"),
    "terms_empty": (
        *_channel(lambda c: c.update(signs=[], effects=[], prep_probs=[], preps=[])),
        "channels[0].signs",
    ),
    "signs_missing": (*_channel(lambda c: c.pop("signs")), "missing field channels[0].signs"),
    "signs_not_integers": (
        *_channel(lambda c: c.update(signs=[1.0, 1.0])), "channels[0].signs must be an array"
    ),
    "signs_boolean": (
        *_channel(lambda c: c.update(signs=[True, 1])),
        "field channels[0].signs must be an array of integers",
    ),
    "signs_not_unit": (
        *_channel(lambda c: c.update(signs=[2, -2])), "channels[0]: outcome signs"
    ),
    "effect_missing": (*_channel(lambda c: c.pop("effects")), "missing field channels[0].effects"),
    "effect_malformed": (
        *_channel(lambda c: c["effects"][0].__setitem__(0, ["1", 0])),
        "channels[0].effects must be an array",
    ),
    "effect_wrong_width": (
        *_decomposition(lambda d: d.update(n=2)), "channels[0]: channel arrays do not match"
    ),
    "prep_not_finite": (
        *_channel(lambda c: c["preps"][0][0].__setitem__(0, [float("nan"), 0])),
        "channels[0]: channel arrays must be finite",
    ),
    "matrix_number_too_large": (
        *_layer(0, lambda l: l["matrix"][0].__setitem__(0, [10**400, 0])), "layers[0].matrix"
    ),
    "prep_weight_negative": (
        *_channel(lambda c: c.update(prep_probs=[[-1.0], [1.0]])),
        "channels[0]: prep weights must be non-negative",
    ),
    "prep_not_a_state": (
        *_channel(lambda c: c["preps"][0].__setitem__(0, [[2, 0], [0, 0]])),
        "channels[0]: prep vectors must have unit norm",
    ),
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_estimate_exit_2(self, capsys, tmp_path, case):
        which, text, named = MALFORMED[case]
        bad = tmp_path / f"{which}.json"
        bad.write_text(text)
        files = {"circuit": DEMOS / "demo_circuit.json", "cuts": DEMOS / "demo_cut.json"}
        method = "optimal1q"
        if which == "decomposition":
            method = f"file:{bad}"
        else:
            files[which] = bad
        code, out, err = run(
            capsys,
            "estimate",
            "--circuit", str(files["circuit"]),
            "--cuts", str(files["cuts"]),
            "--method", method,
            "--shots", "10",
        )
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert str(bad) in err and named in err


class TestBench:
    def test_overhead_rows(self, capsys):
        code, out, _ = run(capsys, "bench", "overhead", "--nmax", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 13  # header + 4 methods x 3 n
        assert lines[0] == "method,n,gamma_sq,m,m_bound"
        rows = [line.split(",") for line in lines[1:]]
        assert [row[4] for row in rows] == ["3"] * 4 + ["5"] * 4 + ["9"] * 4
        # only mub's channel count meets the lower bound
        assert [row[0] for row in rows if row[3] == row[4]] == ["mub"] * 3

    def test_timemodel_value(self, capsys):
        code, out, _ = run(
            capsys, "bench", "timemodel", "--m", "5", "--tc", "1", "--tq", "0.01", "--N", "1000"
        )
        assert code == 0
        assert out.strip() == "15.0"

    def test_gatecount_bounds(self, capsys):
        code, out, _ = run(capsys, "bench", "gatecount", "--nmax", "5")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        for row in rows:
            assert int(row[2]) <= int(row[4])  # NCZ_max <= bound_CZ

    def test_usage_error_exit_2(self, capsys):
        code, _, _ = run(capsys, "bench", "overhead")
        assert code == 2

    @pytest.mark.parametrize(
        "tc, tq, field",
        [("nan", "1", "t_compile"), ("1", "nan", "t_shot"),
         ("inf", "1", "t_compile"), ("1", "-inf", "t_shot")],
    )
    def test_timemodel_non_finite_exit_2(self, capsys, tc, tq, field):
        # the --opt=value form lets argparse take "-inf" as a value
        code, out, err = run(
            capsys, "bench", "timemodel", "--m", "3", f"--tc={tc}", f"--tq={tq}", "--N", "5"
        )
        assert code == 2
        assert out == ""
        assert field in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "tq, shots, field",
        [("1", "1" + "0" * 400, "shots"), ("1e308", "10", "predicted time")],
    )
    def test_timemodel_beyond_a_double_exit_2(self, capsys, tq, shots, field):
        """A count past the largest double, and a sum that overflows to inf,
        exit 2 rather than raising or printing inf."""
        code, out, err = run(
            capsys, "bench", "timemodel", "--m", "3", "--tc", "1", "--tq", tq, "--shots", shots
        )
        assert code == 2
        assert out == ""
        assert field in err and "Traceback" not in err


class TestRangeErrors:
    """A width below the range is reported as a range, not as a cap."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("families", "--n", "0"), "n must be in 1..12, got 0"),
            (("bench", "gatecount", "--nmax", "0"), "nmax must be in 1..12, got 0"),
            (("bench", "overhead", "--nmax", "0"), "nmax must be in 1..12, got 0"),
        ],
    )
    def test_zero_exit_2(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("n", ["0", "-1"])
    @pytest.mark.parametrize("method", ["peng", "optimal1q", "mub", "randomized", "teleport"])
    def test_verify_width_below_one_exit_2(self, capsys, method, n):
        code, out, err = run(capsys, "verify", "--method", method, "--n", n)
        assert code == 2
        assert out == ""
        assert err == f"error: the cut width must be at least 1, got {n}\n"

    def test_synth_zero_exit_2_before_writing(self, capsys, tmp_path):
        out_dir = tmp_path / "circuits"
        code, out, err = run(capsys, "synth", "--n", "0", "--out", str(out_dir))
        assert code == 2
        assert out == ""
        assert err == "error: n must be in 1..12, got 0\n"
        assert not out_dir.exists()
