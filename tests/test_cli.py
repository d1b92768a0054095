"""CLI surface: subcommands, exit codes, machine output, file round trips.

Each test drives main(argv) directly so exit codes and streams stay visible
to pytest without subprocess overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from conftest import assert_no_child_left, bipartite_graphs, long_number
from hypothesis import given, settings
from hypothesis import strategies as st

import cuberep
from cuberep import parse_dump, parse_graph, serialize_graph, verify
from cuberep.builder import make_plan
from cuberep.cli import main


def write_graph(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def unwritable_outs(tmp_path):
    """--out paths no command can write, each with its one error line: in a
    missing directory, under a file, and a directory itself."""
    (tmp_path / "file.txt").write_text("")
    outs = (tmp_path / "missing" / "out.txt", tmp_path / "file.txt" / "out.txt")
    return [*((out, f"error: cannot write {out}: {out.parent} is not a directory\n")
              for out in outs),
            (tmp_path, f"error: cannot write {tmp_path}: it is a directory\n")]


DATA = Path(__file__).parent / "data"

SINGLE_EDGE = "p bipartite 2 1 1\ne 1 1\n"
COMPLETE_22 = "p bipartite 2 2 4\ne 1 1\ne 1 2\ne 2 1\ne 2 2\n"
SPARSE_23 = "p bipartite 2 3 2\ne 1 1\ne 2 3\n"
# gen 4 7 0.35 --seed 3 and gen 5 4 0.4 --seed 8; the second has more rows
# than columns, so its failure estimate runs on swapped sides, and its table
# permutes side B
GEN_47 = ("p bipartite 4 7 10\ne 1 1\ne 1 3\ne 1 5\ne 2 1\ne 2 4\ne 2 5\ne 2 6\n"
          "e 3 4\ne 3 5\ne 3 6\n")
GEN_54 = "p bipartite 5 4 6\ne 1 1\ne 2 4\ne 3 1\ne 3 4\ne 4 1\ne 4 2\n"
# probe --trials 40 --seed 11 --t 5 --format machine on the two graphs above,
# recorded from the implementation that built every dimension and verified
# every attempt in full, which counting in ranks must reproduce byte for byte
PROBE_GEN_47 = (
    '{"bound": "3/4", "delta_prime": 3, "failure": {"rate": 0.375'
    ', "t": 5}, "nonedges": [{"exact": "0", "observed": 0.0'
    ', "pair": "A1-B2"}, {"exact": "2/3", "observed": 0.725'
    ', "pair": "A1-B4"}, {"exact": "2/3", "observed": 0.725'
    ', "pair": "A1-B6"}, {"exact": "0", "observed": 0.0'
    ', "pair": "A1-B7"}, {"exact": "0", "observed": 0.0'
    ', "pair": "A2-B2"}, {"exact": "1/2", "observed": 0.5'
    ', "pair": "A2-B3"}, {"exact": "0", "observed": 0.0'
    ', "pair": "A2-B7"}, {"exact": "2/3", "observed": 0.7'
    ', "pair": "A3-B1"}, {"exact": "0", "observed": 0.0'
    ', "pair": "A3-B2"}, {"exact": "1/2", "observed": 0.425'
    ', "pair": "A3-B3"}, {"exact": "0", "observed": 0.0'
    ', "pair": "A3-B7"}, {"exact": "2/3", "observed": 0.675'
    ', "pair": "A4-B1"}, {"exact": "0", "observed": 0.0'
    ', "pair": "A4-B2"}, {"exact": "1/2", "observed": 0.425'
    ', "pair": "A4-B3"}, {"exact": "2/3", "observed": 0.7'
    ', "pair": "A4-B4"}, {"exact": "3/4", "observed": 0.75'
    ', "pair": "A4-B5"}, {"exact": "2/3", "observed": 0.7'
    ', "pair": "A4-B6"}, {"exact": "0", "observed": 0.0'
    ', "pair": "A4-B7"}], "permuted_side": "A", "seed": 11'
    ', "trials": 40}' + "\n")
PROBE_GEN_54 = (
    '{"bound": "2/3", "delta_prime": 2, "failure": {"rate": 0.375'
    ', "t": 5}, "nonedges": [{"exact": "1/2", "observed": 0.5'
    ', "pair": "A1-B2"}, {"exact": "1/2", "observed": 0.425'
    ', "pair": "A1-B3"}, {"exact": "1/2", "observed": 0.425'
    ', "pair": "A1-B4"}, {"exact": "1/2", "observed": 0.575'
    ', "pair": "A2-B1"}, {"exact": "1/2", "observed": 0.475'
    ', "pair": "A2-B2"}, {"exact": "1/2", "observed": 0.425'
    ', "pair": "A2-B3"}, {"exact": "2/3", "observed": 0.625'
    ', "pair": "A3-B2"}, {"exact": "2/3", "observed": 0.625'
    ', "pair": "A3-B3"}, {"exact": "2/3", "observed": 0.7'
    ', "pair": "A4-B3"}, {"exact": "2/3", "observed": 0.675'
    ', "pair": "A4-B4"}, {"exact": "0", "observed": 0.0'
    ', "pair": "A5-B1"}, {"exact": "0", "observed": 0.0'
    ', "pair": "A5-B2"}, {"exact": "0", "observed": 0.0'
    ', "pair": "A5-B3"}, {"exact": "0", "observed": 0.0'
    ', "pair": "A5-B4"}], "permuted_side": "B", "seed": 11'
    ', "trials": 40}' + "\n")


class TestGen:
    def test_writes_canonical_file(self, tmp_path, capsys):
        out = str(tmp_path / "g.txt")
        assert main(["gen", "3", "4", "0.5", "--seed", "9", "--out", out]) == 0
        assert "seed: 9" in capsys.readouterr().err
        g = parse_graph((tmp_path / "g.txt").read_text())
        assert (g.a_count, g.b_count) == (3, 4)

    def test_same_seed_same_bytes(self, tmp_path):
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        main(["gen", "5", "7", "0.4", "--seed", "31", "--out", str(first)])
        main(["gen", "5", "7", "0.4", "--seed", "31", "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_stdout_default(self, capsys):
        assert main(["gen", "1", "1", "1.0", "--seed", "0"]) == 0
        assert capsys.readouterr().out == "p bipartite 1 1 1\ne 1 1\n"

    def test_bad_probability_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["gen", "2", "2", "1.5", "--seed", "0"])
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_refuses_more_than_the_vertex_limit(self, tmp_path, capsys):
        # every other command would refuse the file, so none is written
        out = tmp_path / "g.txt"
        assert main(["gen", "40000", "1", "0.0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: 40000+1 vertices exceed the limit of 32768\n"
        assert not out.exists()

    def test_limit_itself_is_allowed(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        assert main(["gen", "32767", "1", "0.0", "--seed", "1", "--out", str(out)]) == 0
        assert parse_graph(out.read_text()).vertex_count == 32768

    @pytest.mark.parametrize("p", ["1e-310", "5e-324"])
    def test_subnormal_probability_writes_empty_graph(self, capsys, p):
        assert main(["gen", "4", "4", p, "--seed", "1"]) == 0
        assert capsys.readouterr().out == "p bipartite 4 4 0\n"

    def test_negative_seed_rejected_by_parser(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["gen", "2", "2", "0.5", "--seed", "-1"])
        assert excinfo.value.code == 2

    def test_unwritable_out_refused_before_seed(self, tmp_path, capsys):
        for out, error in unwritable_outs(tmp_path):
            files = sorted(tmp_path.rglob("*"))
            assert main(["gen", "2", "2", "0.5", "--seed", "1", "--out", str(out)]) == 2
            assert capsys.readouterr() == ("", error)
            assert sorted(tmp_path.rglob("*")) == files


class TestBuild:
    def test_build_then_verify_round_trip(self, tmp_path, capsys):
        graph = write_graph(tmp_path, "g.txt", SPARSE_23)
        dump = str(tmp_path / "rep.json")
        assert main(["build", graph, "--seed", "17", "--out", dump]) == 0
        out = capsys.readouterr().out
        assert "verification: PASS" in out
        assert f"dump: {dump}" in out
        assert main(["verify", graph, dump]) == 0
        assert "verification: PASS" in capsys.readouterr().out

    def test_same_seed_same_dump_bytes(self, tmp_path):
        graph = write_graph(tmp_path, "g.txt", SPARSE_23)
        first = tmp_path / "r1.json"
        second = tmp_path / "r2.json"
        main(["build", graph, "--seed", "17", "--out", str(first)])
        main(["build", graph, "--seed", "17", "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_unwritable_out_refused_before_build(self, tmp_path, capsys, monkeypatch):
        # refused after the graph is read, before a seed is logged or an
        # attempt is made
        graph = write_graph(tmp_path, "g.txt", SPARSE_23)
        monkeypatch.setattr("cuberep.cli.build_representation", None)
        for out, error in unwritable_outs(tmp_path):
            files = sorted(tmp_path.rglob("*"))
            assert main(["build", graph, "--seed", "1", "--out", str(out)]) == 2
            assert capsys.readouterr() == ("", error)
            assert sorted(tmp_path.rglob("*")) == files

    def test_machine_payload(self, tmp_path, capsys):
        graph = write_graph(tmp_path, "g.txt", COMPLETE_22)
        dump = str(tmp_path / "rep.json")
        rc = main(["build", graph, "--seed", "4", "--format", "machine",
                   "--out", dump])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verified"] is True
        assert payload["k"] == payload["t"] + payload["bits_a"] + payload["bits_b"]
        assert payload["seed"] == 4
        assert payload["swapped"] is False
        assert payload["dump"] == dump
        assert payload["timings"]["construct_seconds"] >= 0.0
        assert payload["timings"]["verify_seconds"] >= 0.0
        assert payload["timings"]["write_seconds"] > 0.0

    def test_machine_payload_without_out_writes_nothing(self, tmp_path, capsys):
        graph = write_graph(tmp_path, "g.txt", COMPLETE_22)
        assert main(["build", graph, "--seed", "4", "--format", "machine"]) == 0
        assert json.loads(capsys.readouterr().out)["timings"]["write_seconds"] == 0.0

    def test_human_output_shows_no_write_time(self, tmp_path, capsys):
        graph = write_graph(tmp_path, "g.txt", SPARSE_23)
        assert main(["build", graph, "--seed", "17", "--out", str(tmp_path / "rep.json")]) == 0
        keys = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
        assert keys == ["k", "t", "bits_a", "bits_b", "retries", "seed", "nominal_bound",
                        "swapped", "construct", "verify", "verification", "dump"]

    def test_t_zero_failure_exit_one(self, tmp_path, capsys):
        graph = write_graph(tmp_path, "g.txt", SPARSE_23)
        assert main(["build", graph, "--seed", "1", "--t", "0"]) == 1
        err = capsys.readouterr().err
        assert "extra-edge A1-B2" in err
        # one line per cross non-edge, after the reason
        assert err == ("seed: 1\n"
                       "error: zero random dimensions cannot remove cross non-edges\n"
                       "  extra-edge A1-B2\n  extra-edge A1-B3\n"
                       "  extra-edge A2-B1\n  extra-edge A2-B2\n")

    # build --seed 1 --t 3 --out on the graph, recorded from the implementation
    # that rendered dumps through json.dumps(indent=2); one graph is built as
    # it is, the other swapped (its first side is the larger), and both have a
    # side of more than 9 vertices, where the string order of keys matters
    @pytest.mark.parametrize("graph, dump, swapped", [
        ("graph_3x11.txt", "dump_3x11_seed1_t3.json", False),
        ("graph_11x3.txt", "dump_11x3_seed1_t3.json", True),
    ])
    def test_dump_golden(self, tmp_path, capsys, graph, dump, swapped):
        out = tmp_path / "rep.json"
        assert main(["build", str(DATA / graph), "--seed", "1", "--t", "3",
                     "--format", "machine", "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["swapped"] is swapped
        assert out.read_bytes() == (DATA / dump).read_bytes()

    @pytest.mark.parametrize("graph, dump, swapped", [
        ("graph_3x11.txt", "dump_3x11_seed1_t3.json", False),
        ("graph_11x3.txt", "dump_11x3_seed1_t3.json", True),
    ])
    def test_dump_rendered_beside_verification_is_golden(
            self, forks, temporary_files, tmp_path, capsys, graph, dump, swapped):
        out = tmp_path / "rep.json"
        assert main(["build", str(DATA / graph), "--seed", "1", "--t", "3",
                     "--format", "machine", "--out", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["swapped"] is swapped
        assert len(forks) == payload["retries"] + 1  # a render child per attempt
        assert out.read_bytes() == (DATA / dump).read_bytes()
        assert_no_child_left()
        assert all(file.closed for file in temporary_files)

    def test_t_zero_failure_leaves_an_existing_out_untouched(
            self, forks, temporary_files, tmp_path, capsys):
        graph = write_graph(tmp_path, "g.txt", SPARSE_23)
        out = tmp_path / "rep.json"
        out.write_text("an older dump\n")
        before = out.stat()
        assert main(["build", graph, "--seed", "1", "--t", "0", "--out", str(out)]) == 1
        assert "zero random dimensions" in capsys.readouterr().err
        assert len(forks) == 1  # the render child, killed when the attempt fails
        assert out.read_text() == "an older dump\n"
        assert (out.stat().st_mtime_ns, out.stat().st_ino) == (before.st_mtime_ns, before.st_ino)
        assert_no_child_left()
        assert all(file.closed for file in temporary_files)

    def test_unnormalized_input_keeps_original_labels(self, tmp_path, capsys):
        # more rows than columns: the builder works on the flipped graph but
        # the dump and the verifier speak the file's orientation
        graph = write_graph(tmp_path, "g.txt",
                            "p bipartite 3 2 2\ne 1 1\ne 3 2\n")
        dump = str(tmp_path / "rep.json")
        rc = main(["build", graph, "--seed", "8", "--format", "machine",
                   "--out", dump])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["swapped"] is True
        rep = parse_dump((tmp_path / "rep.json").read_text())
        assert (rep.a_count, rep.b_count) == (3, 2)
        assert main(["verify", graph, dump]) == 0

    def test_swapped_zero_t_failure_names_the_file_s_pairs(self, tmp_path, capsys):
        # the first side is the larger: the pairs are those of the file,
        # which has no vertex B3
        graph = write_graph(tmp_path, "g.txt", "p bipartite 3 2 2\ne 1 1\ne 2 2\n")
        assert main(["build", graph, "--seed", "1", "--t", "0"]) == 1
        listed = [line.strip() for line in capsys.readouterr().err.splitlines()
                  if line.startswith("  ")]
        assert listed == ["extra-edge A1-B2", "extra-edge A2-B1",
                          "extra-edge A3-B1", "extra-edge A3-B2"]

    def test_swapped_retry_failure_names_the_file_s_pairs(self, tmp_path, capsys):
        # side B is permuted and one random dimension never removes every
        # cross non-edge; seed 1's last attempt ranks B1 below B2, so A1-B2
        # and A3-B2 survive it (A2-B1 and A2-B3 in the flipped graph's labels)
        graph = write_graph(tmp_path, "g.txt", "p bipartite 3 2 3\ne 1 1\ne 2 2\ne 3 1\n")
        assert main(["build", graph, "--seed", "1", "--t", "1", "--max-retries", "2"]) == 1
        err = capsys.readouterr().err
        assert "verification still failing after 2 attempts" in err
        listed = [line.strip() for line in err.splitlines() if line.startswith("  ")]
        assert listed == ["extra-edge A1-B2", "extra-edge A3-B2"]

    def test_swapped_build_verifies_each_attempt_once(self, tmp_path, capsys, monkeypatch):
        calls = []

        def counting(rep, g):
            calls.append((rep.a_count, rep.b_count))
            return verify(rep, g)

        monkeypatch.setattr(cuberep.builder, "verify", counting)
        graph = write_graph(tmp_path, "g.txt", GEN_54)
        assert main(["build", graph, "--seed", "0", "--t", "2", "--format", "machine"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["swapped"] is True and payload["retries"] >= 1
        assert calls == [(5, 4)] * (payload["retries"] + 1)


# One mutation of a serialized graph file each: the first five break it at
# one line, the last two keep the graph it holds.
FILE_MUTATIONS = ("drop-header", "duplicate-edge", "out-of-range", "non-integer",
                  "extra-edge", "crlf", "comment")
NEEDS_AN_EDGE = ("drop-header", "duplicate-edge", "out-of-range", "extra-edge")
# characters that str.splitlines would split a comment at
COMMENT_MARKS = ("\x0c", "\x85", "\u2028")


@st.composite
def mutated_graph_files(draw):
    """A serialized random graph of at most 6x6 and one mutation of it:
    (mutated text, original text, the LF-counted line of the fault, or
    None where the mutated text holds the same graph)."""
    mutation = draw(st.sampled_from(FILE_MUTATIONS))
    graphs = bipartite_graphs(max_a=6, max_b=6)
    if mutation in NEEDS_AN_EDGE:
        graphs = graphs.filter(lambda g: g.edges)
    g = draw(graphs)
    original = serialize_graph(g)
    lines = original.split("\n")[:-1]  # the header, then one line per edge
    fault = None
    if mutation == "drop-header":
        del lines[0]
        fault = 1  # the first edge line comes before any header
    elif mutation == "duplicate-edge":
        i = draw(st.integers(1, len(lines) - 1))
        fault = draw(st.integers(i + 1, len(lines)))
        lines.insert(fault, lines[i])
        fault += 1
    elif mutation == "out-of-range":
        i = draw(st.integers(1, len(lines) - 1))
        field = draw(st.integers(1, 2))
        limit = g.a_count if field == 1 else g.b_count
        fields = lines[i].split()
        fields[field] = str(draw(st.one_of(st.integers(-2, 0),
                                           st.integers(limit + 1, limit + 3))))
        lines[i] = " ".join(fields)
        fault = i + 1
    elif mutation == "non-integer":
        i = draw(st.integers(0, len(lines) - 1))
        fields = lines[i].split()
        field = draw(st.integers(2 if i == 0 else 1, len(fields) - 1))
        fields[field] = draw(st.sampled_from(["x", "1.5", "1e3", "0x1", "--"]))
        lines[i] = " ".join(fields)
        fault = i + 1
    elif mutation == "extra-edge":
        lines[0] = f"p bipartite {g.a_count} {g.b_count} {g.edge_count - 1}"
        fault = len(lines)  # the last edge line is one too many
    elif mutation == "comment":
        mark = draw(st.sampled_from(COMMENT_MARKS))
        lines.insert(draw(st.integers(0, len(lines))), f"c note{mark}still the comment")
    text = "\n".join(lines) + "\n"
    if mutation == "crlf":
        text = text.replace("\n", "\r\n")
    return text, original, fault


def run_build(text: str) -> tuple[int, str, bytes | None]:
    """(exit code, stderr, dump bytes or None) of cuberep build --seed 0 on
    the text, written as UTF-8 bytes with its line ends as they are."""
    with tempfile.TemporaryDirectory() as tmp:
        graph, dump = Path(tmp, "g.txt"), Path(tmp, "rep.json")
        graph.write_bytes(text.encode("utf-8"))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["build", str(graph), "--seed", "0", "--out", str(dump)])
        return rc, err.getvalue(), dump.read_bytes() if dump.exists() else None


class TestGraphFileFuzz:
    @settings(max_examples=150, deadline=None)
    @given(mutated_graph_files())
    def test_build_reads_the_graph_or_names_the_faulty_line(self, case):
        text, original, fault = case
        rc, err, dump = run_build(text)
        if fault is None:
            assert (rc, err) == (0, "seed: 0\n")
            assert dump == run_build(original)[2]
        else:
            assert rc == 2 and dump is None
            assert err.startswith(f"error: line {fault}: ")
            assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("text, error", [
    (f"p bipartite 2 2 1\ne 1 {'1' * 5000}\n",
     "error: line 2: malformed edge, indices must have at most 4300 digits\n"),
    (f"p bipartite 2 {'2' * 5000} 1\ne 1 1\n",
     "error: line 1: malformed header, counts must have at most 4300 digits\n"),
])
def test_build_refuses_a_field_of_too_many_digits(text, error):
    # all ASCII digits, but more than int() reads
    assert run_build(text) == (2, error, None)


HUGE_HEADER = "p bipartite 100000000 100000000 0\n"
HUGE_HEADER_ERROR = "error: line 1: 100000000+100000000 vertices exceed the limit of 32768\n"


class TestVertexLimit:
    # Without the limit, build and verify would allocate per declared vertex.
    def test_build_refuses_huge_header(self, tmp_path, capsys):
        graph = write_graph(tmp_path, "g.txt", HUGE_HEADER)
        assert main(["build", graph, "--seed", "1"]) == 2
        assert capsys.readouterr().err == HUGE_HEADER_ERROR

    def test_verify_refuses_huge_header(self, tmp_path, capsys):
        graph = write_graph(tmp_path, "g.txt", HUGE_HEADER)
        dump = write_graph(tmp_path, "rep.json", json.dumps(
            {"a_count": 10 ** 8, "b_count": 10 ** 8, "dims": []}))
        assert main(["verify", graph, dump]) == 2
        assert capsys.readouterr().err == HUGE_HEADER_ERROR

    def test_verify_refuses_dump_declaring_huge_counts(self, tmp_path, capsys):
        graph = write_graph(tmp_path, "g.txt", SPARSE_23)
        dump = write_graph(tmp_path, "rep.json", json.dumps(
            {"a_count": 10 ** 8, "b_count": 10 ** 8, "dims": []}))
        assert main(["verify", graph, dump]) == 2
        assert capsys.readouterr().err == (
            "error: dump declares 100000000+100000000 vertices, more than the limit of 32768\n")


class TestVerify:
    def _dump_for(self, tmp_path, graph_text, seed="5"):
        graph = write_graph(tmp_path, "g.txt", graph_text)
        dump = str(tmp_path / "rep.json")
        assert main(["build", graph, "--seed", seed, "--out", dump]) == 0
        return graph, dump

    def test_mismatch_exit_one(self, tmp_path, capsys):
        _, dump = self._dump_for(tmp_path, SPARSE_23)
        other = write_graph(tmp_path, "h.txt", "p bipartite 2 3 1\ne 1 1\n")
        capsys.readouterr()
        assert main(["verify", other, dump]) == 1
        out = capsys.readouterr().out
        assert "verification: FAIL" in out
        assert "extra-edge A2-B3" in out

    def test_machine_equal(self, tmp_path, capsys):
        graph, dump = self._dump_for(tmp_path, COMPLETE_22)
        capsys.readouterr()
        assert main(["verify", graph, dump, "--format", "machine"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"equal": True, "violations": []}

    def test_machine_mismatch_names_pairs(self, tmp_path, capsys):
        _, dump = self._dump_for(tmp_path, SPARSE_23)
        other = write_graph(tmp_path, "h.txt", "p bipartite 2 3 1\ne 1 1\n")
        capsys.readouterr()
        assert main(["verify", other, dump, "--format", "machine"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["equal"] is False
        assert {"kind": "extra-edge", "pair": "A2-B3"} in payload["violations"]

    def test_truncated_dump_exit_two(self, tmp_path, capsys):
        graph, dump = self._dump_for(tmp_path, SPARSE_23)
        text = (tmp_path / "rep.json").read_text()
        (tmp_path / "rep.json").write_text(text[: len(text) // 2])
        capsys.readouterr()
        assert main(["verify", graph, dump]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_file_exit_two(self, tmp_path, capsys):
        graph = write_graph(tmp_path, "g.txt", SPARSE_23)
        assert main(["verify", graph, str(tmp_path / "absent.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_aliased_vertex_key_exit_two(self, tmp_path, capsys):
        # A01 names A1; letting it through let the later key win silently
        graph, dump = self._dump_for(tmp_path, SPARSE_23)
        payload = json.loads((tmp_path / "rep.json").read_text())
        payload["dims"][0]["placement"]["A01"] = 10 ** 6
        (tmp_path / "rep.json").write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["verify", graph, dump]) == 2
        assert capsys.readouterr().err == "error: bad vertex key 'A01'\n"

    def test_repeated_key_exit_two(self, tmp_path, capsys):
        graph, dump = self._dump_for(tmp_path, SPARSE_23)
        text = (tmp_path / "rep.json").read_text()
        (tmp_path / "rep.json").write_text(text.replace('"B2": ', '"B2": 0, "B2": ', 1))
        capsys.readouterr()
        assert main(["verify", graph, dump]) == 2
        assert capsys.readouterr().err == "error: dump repeats the key 'B2' in one object\n"

    def test_uncovered_dimension_named_by_position(self, tmp_path, capsys):
        # dims 1 (a random dimension, threshold 15) and 33 (a bit dimension,
        # threshold 1) lose A1: the dump is refused as it is read, naming the
        # first by position, before the graph's counts are compared
        graph = str(tmp_path / "g.txt")
        assert main(["gen", "6", "9", "0.3", "--seed", "1", "--out", graph]) == 0
        dump = tmp_path / "rep.json"
        assert main(["build", graph, "--seed", "3", "--out", str(dump)]) == 0
        payload = json.loads(dump.read_text())
        assert len(payload["dims"]) == 34
        for pos in (1, 33):
            del payload["dims"][pos]["placement"]["A1"]
        dump.write_text(json.dumps(payload))
        small = write_graph(tmp_path, "h.txt", "p bipartite 2 2 0\n")
        for target in (graph, small):
            capsys.readouterr()
            assert main(["verify", target, str(dump)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: dimension 1 placement does not cover the vertex set\n"

    def test_uncovered_dimension_refused_before_later_faults(self, tmp_path, capsys):
        # dim 0 loses A1 and dim 1 gets threshold 0: the placement is
        # refused at its own dimension, before dim 1 is read
        graph = str(tmp_path / "g.txt")
        assert main(["gen", "6", "9", "0.3", "--seed", "1", "--out", graph]) == 0
        dump = tmp_path / "rep.json"
        assert main(["build", graph, "--seed", "3", "--out", str(dump)]) == 0
        payload = json.loads(dump.read_text())
        assert len(payload["dims"]) == 34
        del payload["dims"][0]["placement"]["A1"]
        payload["dims"][1]["threshold"] = 0
        message = "dimension 0 placement does not cover the vertex set"
        with pytest.raises(ValueError) as excinfo:
            cuberep.rep_from_jsonable(payload)
        assert str(excinfo.value) == message
        dump.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["verify", graph, str(dump)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_malformed_graph_exit_two(self, tmp_path, capsys):
        graph = write_graph(tmp_path, "bad.txt", "p bipartite 2 2 1\ne 9 1\n")
        _, dump = self._dump_for(tmp_path, COMPLETE_22)
        capsys.readouterr()
        assert main(["verify", graph, dump]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_graph_index_in_other_digits_exit_two(self, tmp_path, capsys):
        # int() would read "\u0661" as 1 and "+2" as 2
        graph = write_graph(tmp_path, "bad.txt", "p bipartite 2 2 1\ne \u0661 +2\n")
        _, dump = self._dump_for(tmp_path, COMPLETE_22)
        capsys.readouterr()
        assert main(["verify", graph, dump]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: line 2: malformed edge, indices must be "
                                "ASCII digits\n")

    @pytest.mark.parametrize("field, error", [
        ("placement", "dump holds a number of more than 4300 digits"),
        ("threshold", "dump holds a number of more than 4300 digits"),
        ("key", "vertex key A... has more than 4300 digits"),
    ])
    def test_field_of_too_many_digits_exit_two(self, forks, monkeypatch, tmp_path, capsys,
                                               field, error):
        # the same line on two CPUs and on one; pass 1 refuses a number but
        # reads no key, so only the long key has its layout checked in a
        # child, which turns it down
        graph, dump = self._dump_for(tmp_path, GEN_47)
        Path(dump).write_text(long_number(Path(dump).read_text(), field))
        capsys.readouterr()
        built, outputs = len(forks), []
        for cpus in (2, 1):
            monkeypatch.setattr(cuberep.builder, "available_cpus", lambda: cpus)
            outputs.append((main(["verify", graph, dump]), *capsys.readouterr()))
        assert outputs == [(2, "", f"error: {error}\n")] * 2
        assert len(forks) == built + (field == "key")

    def test_graph_line_with_a_non_ascii_space_exit_two(self, tmp_path, capsys):
        # str.split() would read the no-break space as a space
        graph = write_graph(tmp_path, "bad.txt", "p bipartite 2 2 1\ne 1\u00a02\n")
        _, dump = self._dump_for(tmp_path, COMPLETE_22)
        capsys.readouterr()
        assert main(["verify", graph, dump]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 2: non-ASCII character outside a comment\n"

    def test_graph_line_with_a_control_separator_exit_two(self, tmp_path, capsys):
        # str.split() would read the unit separator as a space
        graph = write_graph(tmp_path, "bad.txt", "p bipartite 2 2 1\ne 1\x1f2\n")
        _, dump = self._dump_for(tmp_path, COMPLETE_22)
        capsys.readouterr()
        assert main(["verify", graph, dump]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 2: control character outside a comment\n"


def random_1(payload: dict) -> dict:
    return next(dim for dim in payload["dims"] if dim["provenance"] == "random-1")


# Edits of a dump's report or tags that make it contradict itself, each with
# the error line verify gives, for gen 20 40 0.1 --seed 1 built with --seed 7
# (k = 78: t = 67, bits_a = 5, bits_b = 6).
TAMPERINGS = {
    "the report's k and t, and a tag": (
        lambda d: (d["report"].update(k=1, t="x"),
                   random_1(d).update(provenance="side-a-bit-9")),
        "report k is 1, but the dump's dims give 78"),
    "t as text": (lambda d: d["report"].update(t="x"),
                  'report t is "x", but the dump\'s dims give 67'),
    "k as true": (lambda d: d["report"].update(k=True),
                  "report k is true, but the dump's dims give 78"),
    "k as a float": (lambda d: d["report"].update(k=78.0),
                     "report k is 78.0, but the dump's dims give 78"),
    "no k": (lambda d: d["report"].pop("k"), "report k is null, but the dump's dims give 78"),
    "a random tag on a bit": (lambda d: random_1(d).update(provenance="side-a-bit-9"),
                              "report t is 67, but the dump's dims give 66"),
    "bits exchanged": (lambda d: d["report"].update(bits_a=6, bits_b=5),
                       "report bits_a is 6, but the dump's dims give 5"),
    "no report": (lambda d: d.pop("report"), "dump needs a report object"),
    "a report list": (lambda d: d.update(report=[78]), "dump needs a report object"),
    **{f"tag {tag!r}": (lambda d, tag=tag: random_1(d).update(provenance=tag),
                        f"dim 0: provenance {json.dumps(tag)} is not random-j, "
                        "side-a-bit-i or side-b-bit-i")
       for tag in ("random-0", "random-01", "random-", "random-+1", "greedy-1",
                   "side-c-bit-1", "side-A-bit-1", "random-1 ", "random-1\n",
                   "random-\u0661", "dim-1")},
}


class TestReportCheck:
    """verify refuses a dump whose report or tags contradict its dims."""

    @pytest.fixture(scope="class")
    def built(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("report")
        graph, dump = tmp / "g.txt", tmp / "dump.json"
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["gen", "20", "40", "0.1", "--seed", "1", "--out", str(graph)]) == 0
            assert main(["build", str(graph), "--seed", "7", "--out", str(dump)]) == 0
        return graph, dump.read_text()

    @pytest.mark.parametrize("case", TAMPERINGS)
    @pytest.mark.parametrize("indent", [2, 4])
    def test_a_tampered_dump_exits_two_with_one_line(self, built, tmp_path, capsys,
                                                     case, indent):
        # indent 2 is the canonical layout, which the stream reader reads;
        # indent 4 takes the full decode: both hand on the same report
        graph, text = built
        payload = json.loads(text)
        assert random_1(payload) is payload["dims"][0]
        edit, error = TAMPERINGS[case]
        edit(payload)
        dump = tmp_path / "tampered.json"
        dump.write_text(json.dumps(payload, sort_keys=True, indent=indent) + "\n")
        capsys.readouterr()
        assert main(["verify", str(graph), str(dump)]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")

    def test_the_untouched_dump_passes(self, built, tmp_path, capsys):
        graph, text = built
        dump = tmp_path / "dump.json"
        dump.write_text(text)
        report = json.loads(text)["report"]
        assert [report[key] for key in ("k", "t", "bits_a", "bits_b")] == [78, 67, 5, 6]
        assert main(["verify", str(graph), str(dump)]) == 0

    def test_a_swapped_build_passes(self, tmp_path, capsys):
        # bits_a and bits_b follow the dump's labels, as its tags do
        graph, dump = tmp_path / "h.txt", tmp_path / "hdump.json"
        assert main(["gen", "40", "20", "0.1", "--seed", "1", "--out", str(graph)]) == 0
        assert main(["build", str(graph), "--seed", "7", "--out", str(dump)]) == 0
        report = json.loads(dump.read_text())["report"]
        assert (report["swapped"], report["bits_a"], report["bits_b"]) == (True, 6, 5)
        assert main(["verify", str(graph), str(dump)]) == 0


class TestProbe:
    def test_machine_payload_frozen(self, tmp_path, capsys):
        graph = write_graph(tmp_path, "g.txt", SINGLE_EDGE)
        rc = main(["probe", graph, "--trials", "2000", "--seed", "5",
                   "--format", "machine"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        # a swapped tie: the estimate permutes the file's side B, which never
        # reaches the isolated A2, and the table now permutes the same side
        assert payload["permuted_side"] == "B"
        assert payload["delta_prime"] == 1
        assert payload["bound"] == "1/2"
        assert payload["nonedges"] == [
            {"pair": "A2-B1", "observed": 0.0, "exact": "0"}]
        assert payload["failure"] == {"t": 5, "rate": 0.0}

    def test_complete_graph_has_empty_table(self, tmp_path, capsys):
        graph = write_graph(tmp_path, "g.txt", COMPLETE_22)
        assert main(["probe", graph, "--trials", "50", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "no cross non-edges" in out
        assert "failure rate (t=7): 0.0000" in out

    @pytest.mark.parametrize("text, expected", [(GEN_47, PROBE_GEN_47),
                                                (GEN_54, PROBE_GEN_54)])
    def test_machine_output_golden(self, tmp_path, capsys, text, expected):
        graph = write_graph(tmp_path, "g.txt", text)
        assert main(["probe", graph, "--trials", "40", "--seed", "11", "--t", "5",
                     "--format", "machine"]) == 0
        assert capsys.readouterr().out == expected

    # probe --trials 200 --t 3 --seed 1 on the graph, recorded from the
    # implementation that drew every permutation with random.Random.shuffle
    # and counted the table one trial at a time; the two files are the same
    # graph in both orientations
    @pytest.mark.parametrize("graph, expected", [
        ("graph_11x3.txt", "probe_11x3_seed1_t3.json"),
        ("graph_3x11.txt", "probe_3x11_seed1_t3.json"),
    ])
    def test_machine_output_golden_files(self, capsys, graph, expected):
        assert main(["probe", str(DATA / graph), "--trials", "200", "--t", "3",
                     "--seed", "1", "--format", "machine"]) == 0
        assert capsys.readouterr().out == (DATA / expected).read_text()

    # probe --trials 300 --t 50 --seed 1 on `gen 30 60 0.15 --seed 1`,
    # recorded from the failure estimate that ANDed each dimension's
    # reached_below row into the live rows: 38% of the attempts fail, and
    # the others draw up to 50 dimensions before nothing is live
    def test_machine_output_golden_many_dimensions(self, capsys):
        assert main(["probe", str(DATA / "graph_30x60.txt"), "--trials", "300", "--t", "50",
                     "--seed", "1", "--format", "machine"]) == 0
        assert capsys.readouterr().out == (DATA / "probe_30x60_seed1_t50.json").read_text()

    def test_forked_estimate_writes_one_output(self, tmp_path):
        # 200 trials x t = 30 is enough work for a child on every CPU but
        # one; a child writes nothing, so each stream holds what one
        # process writes, and the exit code is the parent's
        graph = write_graph(tmp_path, "g.txt", serialize_graph(
            cuberep.gen_random_bipartite(20, 40, 0.1, seed=1)))
        src = str(Path(cuberep.__file__).resolve().parent.parent)
        result = subprocess.run(
            [sys.executable, "-m", "cuberep.cli", "probe", graph, "--trials", "200",
             "--seed", "3", "--t", "30"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert result.returncode == 0
        assert result.stderr == "seed: 3\n"
        lines = result.stdout.splitlines()
        assert lines[0] == f"permuted side: {make_plan(parse_graph(Path(graph).read_text())).side}"
        assert [line.split(":")[0] for line in lines].count("permuted side") == 1
        assert [line for line in lines if "failure rate" in line] == [lines[-1]]
        assert lines[-1].startswith("single-attempt failure rate (t=30): ")

    def test_side_follows_normalized_graph_on_swapped_tie(self, tmp_path, capsys):
        # the first side is the larger and both side maxima are 1: the build
        # and the failure estimate permute the normalized side A, which is the
        # file's side B, so the table must permute side B as well
        graph = write_graph(tmp_path, "g.txt", "p bipartite 3 2 2\ne 1 1\ne 2 2\n")
        assert main(["probe", graph, "--trials", "40", "--seed", "3",
                     "--format", "machine"]) == 0
        payload = json.loads(capsys.readouterr().out)
        normalized, swapped = cuberep.normalize_sides(parse_graph(Path(graph).read_text()))
        assert swapped and make_plan(normalized).side == "A"
        assert payload["permuted_side"] == "B"
        # A3 is isolated: permuting side B never reaches it
        assert [row for row in payload["nonedges"] if row["pair"].startswith("A3")] == [
            {"pair": "A3-B1", "observed": 0.0, "exact": "0"},
            {"pair": "A3-B2", "observed": 0.0, "exact": "0"}]

    def test_t_override_flows_into_estimate(self, tmp_path, capsys):
        graph = write_graph(tmp_path, "g.txt", SINGLE_EDGE)
        rc = main(["probe", graph, "--trials", "400", "--seed", "2",
                   "--t", "0", "--format", "machine"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failure"]["t"] == 0
        assert payload["failure"]["rate"] == 1.0


class TestBench:
    def test_machine_summary(self, tmp_path, capsys):
        graph = write_graph(tmp_path, "g.txt", COMPLETE_22)
        rc = main(["bench", graph, "--t", "2", "--trials", "2", "--seed", "0",
                   "--format", "machine"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["t"] == 2
        assert payload["rounds"] == 2
        assert payload["passes"] == 2  # complete graph: nothing can survive
        assert payload["per_invocation_seconds"] > 0.0
        assert payload["verify_min_seconds"] >= 0.0

    def test_machine_keys_and_counts_pinned(self, tmp_path, capsys):
        graph = write_graph(tmp_path, "g.txt", GEN_47)
        assert main(["bench", graph, "--t", "3", "--trials", "6", "--seed", "2",
                     "--format", "machine"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "n1", "n2", "m", "t", "rounds", "passes", "construct_mean_seconds",
            "construct_min_seconds", "per_invocation_seconds", "verify_mean_seconds",
            "verify_min_seconds", "seed"}
        assert {key: payload[key] for key in ("n1", "n2", "m", "t", "rounds", "passes")} \
            == {"n1": 4, "n2": 7, "m": 10, "t": 3, "rounds": 6, "passes": 3}

    def test_swapped_graph_counts_pinned(self, tmp_path, capsys):
        graph = write_graph(tmp_path, "g.txt", GEN_54)
        assert main(["bench", graph, "--t", "4", "--trials", "6", "--seed", "2",
                     "--format", "machine"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["n1"], payload["n2"], payload["t"], payload["passes"]) == (4, 5, 4, 1)

    # round i is attempt i, checked as build checks it, so the passes are the
    # attempts that probe's survivor filter finds clean; the second graph's
    # first side is the larger
    @pytest.mark.parametrize("n1, n2, passes, rate", [(20, 40, 35, 0.125),
                                                      (40, 20, 33, 0.175)])
    def test_passes_match_probe_failure_rate(self, tmp_path, capsys, n1, n2, passes, rate):
        graph = str(tmp_path / "g.txt")
        assert main(["gen", str(n1), str(n2), "0.1", "--seed", "1", "--out", graph]) == 0
        shared = ["--t", "30", "--trials", "40", "--seed", "5", "--format", "machine"]
        assert main(["bench", graph, *shared]) == 0
        bench = json.loads(capsys.readouterr().out)
        assert main(["probe", graph, *shared]) == 0
        probe = json.loads(capsys.readouterr().out)
        assert (bench["passes"], probe["failure"]["rate"]) == (passes, rate)
        assert bench["passes"] == pytest.approx(40 * (1 - probe["failure"]["rate"]))

    def test_human_summary(self, tmp_path, capsys):
        graph = write_graph(tmp_path, "g.txt", SPARSE_23)
        assert main(["bench", graph, "--t", "3", "--trials", "2",
                     "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "t: 3  rounds: 2" in out
        assert "per random dimension" in out


def test_no_command_calls_shuffle(tmp_path, capsys, monkeypatch):
    # every draw goes through shuffled_ranks, which consumes the stream
    # exactly as shuffle would, so shuffle itself is never called
    def refuse(self, x):
        raise AssertionError("random.Random.shuffle was called")

    monkeypatch.setattr(random.Random, "shuffle", refuse)
    graph = write_graph(tmp_path, "g.txt", GEN_54)
    dump = str(tmp_path / "rep.json")
    assert main(["build", graph, "--seed", "3", "--out", dump]) == 0
    assert main(["verify", graph, dump]) == 0
    assert main(["probe", graph, "--trials", "20", "--seed", "3", "--t", "4"]) == 0
    assert main(["bench", graph, "--trials", "2", "--seed", "3"]) == 0


class TestParser:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_no_arguments(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", ["probe", "bench"])
    @pytest.mark.parametrize("trials", ["0", "-3", "many"])
    def test_bad_trials_is_usage_error(self, tmp_path, capsys, command, trials):
        graph = write_graph(tmp_path, "g.txt", SPARSE_23)
        with pytest.raises(SystemExit) as excinfo:
            main([command, graph, "--trials", trials, "--seed", "0"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error" in line]
        assert len(errors) == 1 and "argument --trials: trials must be" in errors[0]

    @pytest.mark.parametrize("command", ["build", "probe", "bench"])
    @pytest.mark.parametrize("t", ["-1", "-3", "few"])
    def test_bad_t_is_usage_error(self, tmp_path, capsys, command, t):
        graph = write_graph(tmp_path, "g.txt", SPARSE_23)
        with pytest.raises(SystemExit) as excinfo:
            main([command, graph, "--t", t, "--seed", "0"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before any work is done
        assert "Traceback" not in captured.err
        errors = [line for line in captured.err.splitlines() if "error" in line]
        assert len(errors) == 1 and "argument --t: t must be" in errors[0]

    @pytest.mark.parametrize("retries", ["0", "-3", "many"])
    def test_bad_max_retries_is_usage_error(self, tmp_path, capsys, retries):
        graph = write_graph(tmp_path, "g.txt", SPARSE_23)
        with pytest.raises(SystemExit) as excinfo:
            main(["build", graph, "--max-retries", retries, "--seed", "0"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before any work is done
        assert "Traceback" not in captured.err and "seed:" not in captured.err
        errors = [line for line in captured.err.splitlines() if "error" in line]
        assert len(errors) == 1 and "argument --max-retries: max-retries must be" in errors[0]

    @pytest.mark.parametrize("n1, n2, p", [
        ("2", "2", "1.5"), ("2", "2", "-0.1"), ("2", "2", "nan"), ("2", "2", "x"),
        ("0", "5", "0.5"), ("5", "-2", "0.5"), ("two", "2", "0.5"),
    ])
    def test_bad_gen_arguments_are_usage_errors(self, capsys, n1, n2, p):
        with pytest.raises(SystemExit) as excinfo:
            main(["gen", n1, n2, p, "--seed", "0"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before any work is done
        assert "Traceback" not in captured.err and "seed:" not in captured.err
        errors = [line for line in captured.err.splitlines() if "error" in line]
        assert len(errors) == 1 and "cuberep gen: error: argument" in errors[0]

    def test_import_loads_no_numpy(self):
        # the command line must stay free of heavy imports: numpy alone adds
        # about 14 MB of resident memory to every run
        src = str(Path(cuberep.__file__).resolve().parent.parent)
        code = "import sys, cuberep.cli; print('numpy' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                text=True, check=True,
                                env={**os.environ, "PYTHONPATH": src})
        assert result.stdout.strip() == "False"
