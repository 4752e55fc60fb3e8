"""Shared helpers: random long-edge graphs for property sweeps, both as a
seeded generator and as a Hypothesis strategy, and Hypothesis strategies
for malformed graph and diagram text."""

from __future__ import annotations

import os
import random
from pathlib import Path

from hypothesis import strategies as st

from longedge import LongEdgeGraph, make_graph

# The tests that start a fresh interpreter need the package too: put
# src/, which pyproject's pytest `pythonpath` gives this process, on the
# PYTHONPATH they inherit.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])
)

# (length, weight) pairs for a single edge of each small cogenus
_EDGE_SHAPES = {
    1: [(2, 1), (1, 2)],
    2: [(3, 1), (1, 3)],
    3: [(4, 1), (2, 2), (1, 4)],
    4: [(5, 1), (1, 5)],
    5: [(6, 1), (3, 2), (2, 3), (1, 6)],
}


def _graph(randint, choice, max_cogenus: int, max_start: int) -> LongEdgeGraph:
    """A nonempty long-edge graph with cogenus in 1..max_cogenus, built
    from the given randint(a, b) and choice(seq) sources."""
    budget = randint(1, max_cogenus)
    triples = []
    while budget > 0:
        c = randint(1, budget)
        length, weight = choice(_EDGE_SHAPES[c])
        start = randint(0, max_start)
        triples.append((start, start + length, weight))
        budget -= c
    return make_graph(triples)


def random_graph(rng: random.Random, max_cogenus: int, max_start: int = 8) -> LongEdgeGraph:
    """A random nonempty long-edge graph with cogenus in 1..max_cogenus."""
    return _graph(rng.randint, rng.choice, max_cogenus, max_start)


@st.composite
def long_edge_graphs(draw, max_cogenus: int = 5, max_start: int = 8) -> LongEdgeGraph:
    """Hypothesis strategy drawing the graphs :func:`random_graph` draws."""
    return _graph(
        lambda a, b: draw(st.integers(a, b)),
        lambda seq: draw(st.sampled_from(seq)),
        max_cogenus,
        max_start,
    )


# one whitespace-separated field of a text line: small and huge integers,
# near-integers and junk
_SMALL = st.integers(-3, 12).map(str)
_FIELDS = st.one_of(
    _SMALL,
    st.integers(-(10**12), 10**12).map(str),
    st.sampled_from(["", "x", "1.5", "0x10", "+3", "1_0", "--", "#", "\t", "\u0663"]),
)


@st.composite
def graph_texts(draw) -> str:
    """Text in or near the graph file format: up to five lines, each three
    small integers, a few fields or arbitrary characters (five edges keep
    q-graph's partition sum small)."""
    line = st.one_of(
        st.lists(_SMALL, min_size=3, max_size=3).map(" ".join),
        st.lists(_FIELDS, max_size=4).map(" ".join),
        st.text(max_size=8),
    )
    return "\n".join(draw(st.lists(line, max_size=5)))


@st.composite
def diagram_texts(draw) -> str:
    """Text in or near the diagram format: a degree header, with degrees
    up to 10^12, or a broken one, then graph-like lines."""
    header = draw(
        st.one_of(
            st.integers(-3, 10**12).map(lambda n: f"d={n}"),
            st.sampled_from(["", "d=", "d = 4", "d=x", "4", "# d=3"]),
        )
    )
    return header + "\n" + draw(graph_texts())
