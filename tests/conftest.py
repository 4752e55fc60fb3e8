"""Shared helpers: random long-edge graphs for property sweeps, both as a
seeded generator and as a Hypothesis strategy."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from longedge import LongEdgeGraph, make_graph

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
