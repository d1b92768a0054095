"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

import itertools
import json
import os
import tempfile

import pytest
from hypothesis import strategies as st

from cuberep import BipartiteGraph, BuildReport, SIDE_A, SIDE_B, builder
from cuberep.intervals import tag_kind


@st.composite
def bipartite_graphs(draw, max_a: int = 5, max_b: int = 5):
    n1 = draw(st.integers(1, max_a))
    n2 = draw(st.integers(1, max_b))
    cells = [(a, b) for a in range(1, n1 + 1) for b in range(1, n2 + 1)]
    chosen = draw(st.sets(st.sampled_from(cells)))
    return BipartiteGraph(n1, n2, frozenset(chosen))


def brute_force_degree(g: BipartiteGraph, v) -> int:
    side, index = v
    if side == SIDE_A:
        return sum(1 for a, _ in g.edges if a == index)
    return sum(1 for _, b in g.edges if b == index)


def all_graphs(n1: int, n2: int):
    """Every bipartite graph on fixed side sizes, one per edge subset."""
    cells = [(a, b) for a in range(1, n1 + 1) for b in range(1, n2 + 1)]
    for mask in range(2 ** len(cells)):
        edges = frozenset(cells[k] for k in range(len(cells)) if mask >> k & 1)
        yield BipartiteGraph(n1, n2, edges)


def all_pairs(vertices):
    return itertools.combinations(vertices, 2)


@pytest.fixture
def forks(monkeypatch):
    """The builder forks for any work on two CPUs: the failure estimate for
    any number of draws, the build and verify_dump for a dump of any size.
    Yields the list of the pids of the children it forks."""
    monkeypatch.setattr(builder, "available_cpus", lambda: 2)
    monkeypatch.setattr(builder, "MIN_CHILD_DRAWS", 1)
    monkeypatch.setattr(builder, "MIN_CHILD_CELLS", 1)
    fork, forked = os.fork, []

    def recording_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return forked


@pytest.fixture
def temporary_files(monkeypatch):
    """Yields the list of the unnamed temporary files made from now on."""
    make, made = tempfile.TemporaryFile, []

    def recording(*args, **kwargs):
        made.append(make(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(tempfile, "TemporaryFile", recording)
    return made


def stale_cube(text: str) -> str:
    """The dump text with the first cube of A1 replaced by another cell."""
    payload = json.loads(text)
    lo, hi = payload["cubes"]["A1"][0]
    payload["cubes"]["A1"][0] = [hi, lo]
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def matching_report(rep, swapped: bool = False) -> BuildReport:
    """A report that agrees with rep's dims, as render_dump(rep, report,
    swapped) writes it: k is their number, and t, bits_a and bits_b are the
    numbers of their random-j, side-a-bit-i and side-b-bit-i tags."""
    kinds = [tag_kind(tag) for tag in rep.provenance]
    bits = [kinds.count("side-a-bit"), kinds.count("side-b-bit")]
    if swapped:  # the block exchanges bits_a and bits_b
        bits.reverse()
    return BuildReport(len(kinds), kinds.count("random"), *bits, 0, 0, 0, 0.0, 0.0)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
