"""Dump parsing into value columns: hostile payloads against a per-key
reference decoder, the command line's exits, the garbage collector's state,
and the memory a representation keeps."""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import tempfile
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import matching_report, stale_cube
from cuberep import (
    SIDE_A,
    SIDE_B,
    BuildParams,
    BuildReport,
    CubeRepresentation,
    UnitIntervalRep,
    build_representation,
    gen_random_bipartite,
    parse_dump,
    parse_graph,
    read_dump,
    render_dump,
    rep_from_jsonable,
    serialize_graph,
    to_unit_cubes,
    verify,
)
from cuberep import builder
from cuberep.cli import main
from cuberep.intervals import parse_vertex_key, random_dim_tag, vertex_key

EMPTY_REPORT = BuildReport(0, 0, 0, 0, 0, 0, 0, 0.0, 0.0)


def reference_rep_from_jsonable(obj: object) -> CubeRepresentation:
    """One dict per dimension, key by key through parse_vertex_key in item
    order: the oracle for payloads with at most one fault, whose results and
    error texts rep_from_jsonable keeps.  With several faults the two may
    name different ones: this decoder leaves a placement that misses a
    vertex to CubeRepresentation, after every dimension is read, while
    rep_from_jsonable refuses it at its own dimension.  The cubes block is
    then compared, vertex by vertex, with to_unit_cubes' exact rationals."""
    if not isinstance(obj, dict):
        raise ValueError("dump must be a JSON object")
    a_count, b_count = obj.get("a_count"), obj.get("b_count")
    if not all(isinstance(n, int) and not isinstance(n, bool) for n in (a_count, b_count)):
        raise ValueError("dump needs integer a_count and b_count")
    raw_dims = obj.get("dims")
    if not isinstance(raw_dims, list):
        raise ValueError("dump needs a list of dims")
    dims, tags = [], []
    for pos, raw in enumerate(raw_dims):
        if not isinstance(raw, dict):
            raise ValueError(f"dim {pos} must be an object")
        threshold = raw.get("threshold")
        raw_placement = raw.get("placement")
        if not isinstance(raw_placement, dict):
            raise ValueError(f"dim {pos} needs a placement object")
        placement = {}
        for key, value in raw_placement.items():
            side, index = v = parse_vertex_key(key)
            if index > (a_count if side == SIDE_A else b_count):
                raise ValueError(f"dim {pos}: vertex {key} outside declared counts")
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"dim {pos}: placement of {key} must be an integer")
            placement[v] = value
        if not isinstance(threshold, int) or isinstance(threshold, bool) or threshold <= 0:
            raise ValueError(f"dim {pos}: threshold must be a positive integer")
        dims.append(UnitIntervalRep(placement, threshold))
        tag = raw.get("provenance", f"dim-{pos + 1}")
        if not isinstance(tag, str):
            raise ValueError(f"dim {pos}: provenance must be a string")
        tags.append(tag)
    rep = CubeRepresentation(a_count, b_count, tuple(dims), tuple(tags))
    cubes = obj.get("cubes")
    if not isinstance(cubes, dict):
        raise ValueError("dump needs a cubes object")
    for v, cells in to_unit_cubes(rep).items():
        key = vertex_key(v)
        if key not in cubes:
            raise ValueError(f"cubes miss vertex {key}")
        row = cubes[key]
        if not isinstance(row, list):
            raise ValueError(f"cubes of {key} must be a list")
        for pos, (lo, hi) in enumerate(cells):
            if pos >= len(row) or row[pos] != [str(lo), str(hi)]:
                raise ValueError(f"dim {pos}: cube of {key} differs from its placement")
        if len(row) != len(cells):
            raise ValueError(f"cubes of {key} hold {len(row)} cells for {len(cells)} dims")
    keys = {vertex_key(v) for v in rep.vertices()}
    for key in cubes:
        if key not in keys:
            raise ValueError(f"cubes hold {key!r}, which is not a declared vertex")
    return rep


MUTATIONS = ("none", "remove", "out-of-range", "alias", "reorder", "value",
             "all-lists", "other-vertex-set", "cube", "cubes-keys")
BAD_VALUES = (True, 1.0, "1", None, 10 ** 30)


@st.composite
def hostile_payloads(draw):
    """The payload of a rendered random representation (sides 1 to 12, zero
    to four dimensions, negative and tied values), then one mutation of it:
    (mutation, payload)."""
    a_count, b_count = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    verts = CubeRepresentation(a_count, b_count, (), ()).vertices()
    reach = draw(st.integers(0, 6))
    dims = tuple(
        UnitIntervalRep({v: draw(st.integers(-reach, reach)) for v in verts},
                        draw(st.integers(1, 7)))
        for _ in range(draw(st.integers(0, 4))))
    rep = CubeRepresentation(a_count, b_count, dims,
                             tuple(random_dim_tag(j + 1) for j in range(len(dims))))
    payload = json.loads(render_dump(rep, matching_report(rep)))
    mutation = draw(st.sampled_from(MUTATIONS))
    if mutation == "other-vertex-set":
        # well formed, but every placement now misses a declared vertex
        payload[draw(st.sampled_from(["a_count", "b_count"]))] += 1
    elif mutation == "cubes-keys":
        cubes = payload["cubes"]
        key = draw(st.sampled_from(sorted(cubes)))
        change = draw(st.sampled_from(["remove", "alias", "out-of-range", "not-a-row",
                                       "not-an-object"]))
        if change == "remove":
            del cubes[key]
        elif change == "alias":
            cubes[f"{key[0]}0{key[1:]}"] = cubes[key]
        elif change == "out-of-range":
            cubes[f"B{b_count + 1}"] = cubes[key]
        elif change == "not-a-row":
            cubes[key] = {}
        else:
            payload["cubes"] = list(cubes.values())
    elif mutation == "cube" and dims:
        row = payload["cubes"][draw(st.sampled_from(sorted(payload["cubes"])))]
        pos = draw(st.integers(0, len(dims) - 1))
        change = draw(st.sampled_from(["swap", "zero", "number", "extra", "drop"]))
        if change == "swap":
            row[pos] = row[pos][::-1]
        elif change == "zero":  # the right cell when the placement is 0
            row[pos] = ["0", "1"]
        elif change == "number":
            row[pos] = [0, 1]
        elif change == "extra":
            row.append(row[pos])
        else:
            del row[pos]
    elif mutation != "none" and dims:
        placement = payload["dims"][draw(st.integers(0, len(dims) - 1))]["placement"]
        keys = list(placement)
        key = draw(st.sampled_from(keys))
        if mutation == "remove":
            del placement[key]
        elif mutation == "out-of-range":
            side = draw(st.sampled_from(["A", "B"]))
            index = (a_count if side == "A" else b_count) + draw(st.integers(1, 3))
            placement[f"{side}{index}"] = 0
        elif mutation == "alias":
            placement[f"{key[0]}0{key[1:]}"] = placement[key]
        elif mutation == "reorder":
            shuffled = draw(st.permutations(keys))
            values = dict(placement)
            placement.clear()
            placement.update((k, values[k]) for k in shuffled)
        elif mutation == "value":
            placement[key] = draw(st.sampled_from(BAD_VALUES))
        elif mutation == "all-lists":
            placement.update((k, [v]) for k, v in placement.items())
    return mutation, payload


def outcome(decode, payload):
    try:
        return "accepted", decode(payload)
    except ValueError as exc:
        return "rejected", str(exc)


def run_verify(payload: dict) -> tuple[int, str]:
    """(exit code, stderr) of cuberep verify on the payload as a dump file,
    against an edgeless graph of the declared counts."""
    with tempfile.TemporaryDirectory() as tmp:
        graph, dump = Path(tmp, "g.txt"), Path(tmp, "rep.json")
        graph.write_text(f"p bipartite {payload['a_count']} {payload['b_count']} 0\n")
        dump.write_text(json.dumps(payload))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["verify", str(graph), str(dump)])
    return rc, err.getvalue()


class TestHostileDumps:
    @settings(max_examples=300, deadline=None)
    @given(hostile_payloads())
    def test_column_parse_matches_per_key_decoder(self, case):
        mutation, payload = case
        expected = outcome(reference_rep_from_jsonable, payload)
        assert outcome(rep_from_jsonable, payload) == expected
        # through the text, whose object hook refuses only repeated keys: an
        # all-lists placement is refused by its values, as in the payload
        assert outcome(parse_dump, json.dumps(payload)) == expected
        if mutation in ("none", "reorder"):
            assert expected[0] == "accepted"

    @settings(max_examples=150, deadline=None)
    @given(hostile_payloads())
    def test_verify_command_exits_two_with_one_line(self, case):
        _, payload = case
        verdict, result = outcome(reference_rep_from_jsonable, payload)
        rc, err = run_verify(payload)
        if verdict == "rejected":
            assert (rc, err) == (2, f"error: {result}\n")
        else:
            assert rc in (0, 1) and err == ""

    def test_reordered_keys_give_a_canonical_column(self):
        rep = CubeRepresentation(2, 1, (UnitIntervalRep(
            {(SIDE_A, 1): 5, (SIDE_A, 2): -1, (SIDE_B, 1): 5}, 2),), ("random-1",))
        payload = json.loads(render_dump(rep, EMPTY_REPORT))
        payload["dims"][0]["placement"] = {"B1": 5, "A2": -1, "A1": 5}
        dim = rep_from_jsonable(payload).dims[0]
        assert dim.verts == tuple(rep.vertices()) and dim.values == [5, -1, 5]


VALID_DUMP = render_dump(CubeRepresentation(1, 1, (UnitIntervalRep(
    {(SIDE_A, 1): 0, (SIDE_B, 1): 1}, 1),), ("random-1",)), EMPTY_REPORT)


class TestGarbageCollectorState:
    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("text, error", [
        (VALID_DUMP, None),
        (VALID_DUMP[:-10], "not valid JSON"),
        (VALID_DUMP.replace('"A1"', '"A01"'), "bad vertex key 'A01'"),
        ("[" * 100_000, "nests too deeply"),
    ])
    def test_parse_dump_restores_the_state_it_found(self, tmp_path, enabled, text, error):
        path = tmp_path / "rep.json"
        path.write_text(text)
        was = gc.isenabled()
        gc.enable() if enabled else gc.disable()
        try:
            for read, source in ((parse_dump, text), (read_dump, path)):
                if error is None:
                    assert read(source).dimension == 1
                else:
                    with pytest.raises(ValueError, match=error):
                        read(source)
                assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()


def raised(call) -> BaseException:
    """The exception call() raises."""
    with pytest.raises(Exception) as info:
        call()
    return info.value


class TestReadErrors:
    """read_dump raises what parse_dump of Path.read_text raises, and verify
    prints it as its one error line, whatever the file."""

    @pytest.fixture
    def graph(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("p bipartite 1 1 0\n")
        return path

    def bad_byte(self, tmp_path, at: int):
        """VALID_DUMP with a byte that is not UTF-8 at position `at`."""
        path = tmp_path / f"bad-{at}.json"
        data = VALID_DUMP.encode()
        path.write_bytes(data[:at] + b"\xff" + data[at:])
        return path

    def stale(self, tmp_path):
        """VALID_DUMP with the cube of A1 that its placement does not give."""
        path = tmp_path / "stale.json"
        path.write_text(stale_cube(VALID_DUMP))
        return path

    @pytest.mark.parametrize("case", ["missing", "directory", "bad byte in the first piece",
                                      "bad byte past the first piece", "stale cube"])
    def test_same_error_as_the_whole_read(self, tmp_path, graph, case):
        path = {"missing": lambda: tmp_path / "missing.json",
                "directory": lambda: tmp_path,
                "bad byte in the first piece": lambda: self.bad_byte(tmp_path, 3),
                "bad byte past the first piece": lambda: self.bad_byte(tmp_path, 60),
                "stale cube": lambda: self.stale(tmp_path)}[case]()
        expected = raised(lambda: parse_dump(Path(path).read_text()))
        with mock.patch.object(builder, "_READ_PIECE", 16):
            error = raised(lambda: read_dump(path))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(["verify", str(graph), str(path)])
        assert (type(error), str(error)) == (type(expected), str(expected))
        assert (rc, out.getvalue(), err.getvalue()) == (2, "", f"error: {expected}\n")


def read_through_fifo(fifo: Path, text: str) -> tuple[str, object]:
    """read_dump, run in a thread, of the FIFO at `fifo` while `text` is
    written into it once: ("accepted", representation) or ("rejected",
    error text)."""
    result = []
    reader = threading.Thread(target=lambda: result.append(outcome(read_dump, fifo)))
    reader.start()
    with open(fifo, "w") as pipe:
        pipe.write(text)
    reader.join(timeout=10)
    if reader.is_alive():
        # a reader that opens the FIFO again waits for a second writer: one
        # that writes nothing lets it go on to an empty text
        open(fifo, "w").close()
        reader.join(timeout=10)
    assert not reader.is_alive()
    return result[0]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
@pytest.mark.parametrize("layout", ["canonical", "re-indented", "compact", "stale-cube"])
def test_a_dump_through_a_pipe_reads_as_its_text(tmp_path, layout):
    # a pipe cannot be read twice: the text is read whole, once
    g = gen_random_bipartite(20, 40, 0.1, seed=1)
    text = render_dump(*build_representation(g, BuildParams(master_seed=7)))
    text = {"canonical": text,
            "re-indented": json.dumps(json.loads(text), indent=4),
            "compact": json.dumps(json.loads(text)),
            "stale-cube": stale_cube(text)}[layout]
    fifo = tmp_path / "dump.fifo"
    os.mkfifo(fifo)
    expected = outcome(parse_dump, text)
    assert expected == (("rejected", "dim 0: cube of A1 differs from its placement")
                        if layout == "stale-cube" else ("accepted", expected[1]))
    assert read_through_fifo(fifo, text) == expected


def retained_bytes(make):
    """(result, bytes still allocated after make() returned)."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = make()
        return result, tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()


def test_representations_keep_under_half_the_dict_storage():
    # With one dict per dimension (CPython 3.11), this build kept 6,197 kB
    # and its parsed dump 5,487 kB; the bounds are half of each.
    g = parse_graph(serialize_graph(gen_random_bipartite(150, 300, 4 / 150, seed=11)))
    g.neighbours(SIDE_A), g.neighbours(SIDE_B)  # the graph's caches are not the representation's
    (rep, report), built = retained_bytes(
        lambda: build_representation(g, BuildParams(master_seed=5)))
    text = render_dump(rep, report)
    parsed, held = retained_bytes(lambda: parse_dump(text))
    assert rep.dimension == 206 and parsed == rep and verify(parsed, g) == []
    assert built < 6_197_000 // 2
    assert held < 5_487_000 // 2
