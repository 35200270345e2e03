"""Tests for the command-line interface."""

import csv
import io
import json
import random

import pytest

from sfvs.cli import BENCH_COLUMNS, main
from sfvs.generators import GenSpec, generate_text
from sfvs.graph import Graph, Instance, format_instance, parse_instance
from sfvs.oracle import oracle_decide, vc_to_sfvs
from test_kernel import reduced_prone_instance

TRIANGLE = "p sfvs 3 3 1\ne 1 2\ne 1 3\ne 2 3\nt 1\n"
C4 = "p sfvs 4 4 1\ne 1 2\ne 2 3\ne 3 4\ne 1 4\nt 1\n"


def run(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_instance(tmp_path, text, name="inst.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestSolveCommand:
    def test_yes_with_solution(self, capsys, tmp_path):
        path = write_instance(tmp_path, TRIANGLE)
        code, out, _ = run(capsys, "solve", "-i", path, "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["answer"] == "yes" and payload["solution"] == [1]
        assert payload["nodes_visited"] >= 1 and "trace" in payload

    def test_no_exit_code(self, capsys, tmp_path):
        path = write_instance(tmp_path, TRIANGLE)
        code, out, _ = run(capsys, "solve", "-i", path, "--k", "0")
        assert code == 1 and json.loads(out)["answer"] == "no"

    def test_stdin_input(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "solve", "-i", "-", "--json",
                           stdin=TRIANGLE, monkeypatch=monkeypatch)
        assert code == 0 and json.loads(out)["answer"] == "yes"

    def test_non_chordal_certificate(self, capsys, tmp_path):
        path = write_instance(tmp_path, C4)
        code, out, _ = run(capsys, "solve", "-i", path)
        payload = json.loads(out)
        assert code == 3
        assert payload["error"] == "not-chordal" and len(payload["certificate"]) >= 4

    def test_parse_error(self, capsys, tmp_path):
        path = write_instance(tmp_path, "p sfvs 2 1 1\ne 1 5\n")
        code, _, err = run(capsys, "solve", "-i", path)
        assert code == 2 and "line 2" in err

    def test_declared_size_cap(self, capsys, tmp_path):
        path = write_instance(tmp_path, "p sfvs 1000000000000 0 0\n")
        code, _, err = run(capsys, "solve", "-i", path)
        assert code == 2 and "line 1" in err and "cap" in err

    def test_pruned_count(self, capsys, tmp_path):
        # four clique vertices need a cover of three, so the bound cuts
        # the root
        k4 = Graph(range(1, 5), [(u, w) for u in range(1, 5) for w in range(u + 1, 5)])
        path = write_instance(tmp_path, format_instance(vc_to_sfvs(k4, 2)))
        code, out, _ = run(capsys, "solve", "-i", path, "--json")
        payload = json.loads(out)
        assert code == 1 and payload["answer"] == "no"
        assert payload["nodes_visited"] == 1 and payload["pruned"] == 1

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve", "-i", str(tmp_path / "absent.txt"))
        assert code == 2 and err

    def test_non_utf8_file(self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(TRIANGLE.encode() + b"c caf\xe9\n")
        code, out, err = run(capsys, "solve", "-i", str(path))
        assert code == 2 and err.startswith("error:") and out == ""

    def test_directory_input(self, capsys, tmp_path):
        code, out, err = run(capsys, "solve", "-i", str(tmp_path))
        assert code == 2 and err.startswith("error:") and out == ""


class TestKernelizeCommand:
    def test_reduced_with_emitted_kernel(self, capsys, tmp_path):
        inst = reduced_prone_instance(random.Random(2024))
        path = write_instance(tmp_path, format_instance(inst))
        kernel_path = tmp_path / "kernel.txt"
        code, out, _ = run(capsys, "kernelize", "-i", path,
                           "--emit-kernel", str(kernel_path), "--json")
        payload = json.loads(out)
        assert code == 0 and payload["kind"] == "reduced"
        assert payload["clique_side"] <= 10 * payload["k"]
        emitted = parse_instance(kernel_path.read_text())
        want, _ = oracle_decide(parse_instance(format_instance(inst)))
        got, _ = oracle_decide(emitted)
        assert want is got

    def test_vc_cycle_outcome_answers_no(self, capsys, tmp_path):
        c5 = Graph(range(1, 6))
        for u, v in [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]:
            c5.add_edge(u, v)
        path = write_instance(tmp_path, format_instance(vc_to_sfvs(c5, 2)))
        kernel_path = tmp_path / "k.txt"
        code, out, _ = run(capsys, "kernelize", "-i", path, "--json",
                           "--emit-kernel", str(kernel_path))
        payload = json.loads(out)
        if payload["kind"] == "no":
            assert code == 1
        else:
            assert payload["kind"] == "reduced"
            answer, _ = oracle_decide(parse_instance(kernel_path.read_text()))
            assert answer is False

    def test_no_instance_exits_one(self, capsys, tmp_path):
        # triangle clique side, every clique edge covered by a terminal,
        # but two deletions are needed and only one is budgeted
        text = (
            "p sfvs 6 9 1\n"
            "e 1 2\ne 1 3\ne 2 3\n"
            "e 1 4\ne 2 4\ne 1 5\ne 3 5\ne 2 6\ne 3 6\n"
            "t 4\nt 5\nt 6\n"
        )
        path = write_instance(tmp_path, text)
        code, out, _ = run(capsys, "kernelize", "-i", path, "--json")
        payload = json.loads(out)
        assert code == 1 and payload["kind"] == "no"
        assert payload["kernel_file"] is None

    def test_non_split_certificate(self, capsys, tmp_path):
        path = write_instance(tmp_path, C4)
        code, out, _ = run(capsys, "kernelize", "-i", path)
        payload = json.loads(out)
        assert code == 3 and payload["error"] == "not-split"
        assert len(payload["certificate"]) == 2


class TestOracleCommand:
    def test_witness(self, capsys, tmp_path):
        path = write_instance(tmp_path, TRIANGLE)
        code, out, _ = run(capsys, "oracle", "-i", path, "--json")
        payload = json.loads(out)
        assert code == 0 and payload["answer"] == "yes" and payload["witness"] == [1]

    def test_guard_and_override(self, capsys, tmp_path):
        text = generate_text(GenSpec(family="chordal-random", n=27, k=2, seed=3))
        path = write_instance(tmp_path, text)
        code, out, _ = run(capsys, "oracle", "-i", path)
        assert code == 3 and json.loads(out)["error"] == "oracle-guard"
        code, out, _ = run(capsys, "oracle", "-i", path, "--max-oracle-n", "28")
        assert code in (0, 1) and "answer" in json.loads(out)


class TestVerifyCommand:
    def test_valid(self, capsys, tmp_path):
        path = write_instance(tmp_path, TRIANGLE)
        code, out, _ = run(capsys, "verify", "-i", path, "--solution", "1")
        assert code == 0 and json.loads(out)["valid"] is True

    def test_invalid_reports_cycle(self, capsys, tmp_path):
        path = write_instance(tmp_path, TRIANGLE)
        code, out, _ = run(capsys, "verify", "-i", path, "--solution", "")
        payload = json.loads(out)
        assert code == 1 and payload["valid"] is False
        assert sorted(payload["witness_cycle"]) == [1, 2, 3]

    def test_oversized_solution(self, capsys, tmp_path):
        path = write_instance(tmp_path, TRIANGLE)
        code, out, _ = run(capsys, "verify", "-i", path, "--solution", "1,2")
        payload = json.loads(out)
        assert code == 1 and "exceeds budget" in payload["reason"]

    def test_unknown_vertex(self, capsys, tmp_path):
        path = write_instance(tmp_path, TRIANGLE)
        code, out, _ = run(capsys, "verify", "-i", path, "--solution", "9")
        assert code == 1 and "unknown" in json.loads(out)["reason"]

    def test_negative_budget_agrees_with_solve(self, capsys, tmp_path):
        # a triangle-free path: the empty set hits every terminal cycle,
        # but no set fits a budget of -1
        path = write_instance(tmp_path, "p sfvs 3 2 -1\ne 1 2\ne 2 3\nt 1\n")
        code, out, _ = run(capsys, "verify", "-i", path, "--solution", "")
        payload = json.loads(out)
        assert code == 1 and payload["valid"] is False
        assert "exceeds budget" in payload["reason"]
        code, out, _ = run(capsys, "solve", "-i", path)
        assert code == 1 and json.loads(out)["answer"] == "no"


class TestGenCommand:
    def test_deterministic_bytes(self, capsys):
        args = ["gen", "--family", "split-random", "--n", "15", "--clique-side", "5",
                "--edge-prob", "0.3", "--seed", "1", "--k", "3"]
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second and first.startswith("p sfvs 15 ")

    def test_round_trip(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "chordal-random",
                           "--n", "13", "--seed", "5", "--k", "2")
        assert code == 0
        inst = parse_instance(out)
        assert format_instance(inst) == out

    def test_infeasible_parameters(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "split-random",
                           "--n", "4", "--clique-side", "9")
        assert code == 2 and "clique side" in err

    def test_size_cap(self, capsys):
        code, out, err = run(capsys, "gen", "--family", "split-random", "--n", "1000000000000")
        assert code == 2 and out == "" and "exceed the cap" in err


class TestBenchCommand:
    SUITE = [
        {"id": "s1", "family": "split-random", "n": 14, "clique_side": 5,
         "k": 3, "seed": 11},
        {"id": "c1", "family": "chordal-random", "n": 12, "k": 3, "seed": 12},
        {"id": "v1", "family": "vc-reduction", "n": 6, "k": 3, "seed": 13,
         "edge_prob": 0.5},
        {"id": "p1", "family": "planted", "n": 12, "k": 3, "seed": 14},
        {"id": "broken", "family": "nope", "n": 5, "k": 1, "seed": 1},
    ]

    def write_suite(self, tmp_path, suite=None):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(suite if suite is not None else self.SUITE))
        return str(path)

    def test_rows_sorted_and_complete(self, capsys, tmp_path):
        code, out, _ = run(capsys, "bench", "--suite", self.write_suite(tmp_path))
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["instance_id"] for r in rows] == sorted(r["instance_id"] for r in rows)
        assert list(rows[0]) == BENCH_COLUMNS
        by_id = {r["instance_id"]: r for r in rows}
        assert by_id["broken"]["status"] == "error:GenError"
        for row in rows:
            if row["status"] != "ok":
                continue
            assert row["answer"] in ("yes", "no")
            assert int(row["nodes_visited"]) <= 2 ** (int(row["k"]) + 2)
            if row["kernel_kind"] == "reduced":
                assert int(row["kernel_clique_side"]) <= 10 * int(row["k"])

    def test_ten_seeds_ten_rows(self, capsys, tmp_path):
        suite = [{"family": "planted", "n": 10, "k": 2, "seed": s} for s in range(10)]
        code, out, _ = run(capsys, "bench", "--suite", self.write_suite(tmp_path, suite))
        assert code == 0
        assert len(list(csv.DictReader(io.StringIO(out)))) == 10

    def test_append_keeps_single_header(self, capsys, tmp_path):
        suite_path = self.write_suite(tmp_path)
        out_path = tmp_path / "results.csv"
        assert main(["bench", "--suite", suite_path, "--out", str(out_path)]) == 0
        assert main(["bench", "--suite", suite_path, "--out", str(out_path)]) == 0
        capsys.readouterr()
        lines = out_path.read_text().splitlines()
        headers = [line for line in lines if line.startswith("instance_id")]
        assert len(headers) == 1 and len(lines) == 1 + 2 * len(self.SUITE)

    def test_malformed_suite(self, capsys, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps({"not": "a list"}))
        code, _, err = run(capsys, "bench", "--suite", str(path))
        assert code == 2 and "array" in err

    def test_truncated_suite(self, capsys, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(self.SUITE)[:40])
        code, out, err = run(capsys, "bench", "--suite", str(path))
        assert code == 2 and err.startswith("error:") and out == ""
