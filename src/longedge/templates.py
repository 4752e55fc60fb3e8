"""Template enumeration and composition of allowable long-edge graphs.

A template is the atomic building block: a nonempty graph starting at
vertex 0 whose internal vertices are all covered.  Every long-edge graph
is a unique disjoint union of rightward-translated templates, so the
allowable graphs of a given cogenus can be enumerated by composing
templates along the vertex line.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .graphs import (
    Edge,
    LongEdgeGraph,
    disjoint_union,
    offset,
    weight_profile,
)


def _candidate_edges(delta: int) -> list[Edge]:
    """Edges that can appear in a cogenus-delta template.

    Each edge contributes length*weight - 1 >= 1 to the cogenus, so
    length*weight <= delta + 1; covering forces the right end <= delta + 1,
    hence start <= delta.
    """
    return sorted(
        Edge(s, s + length, weight)
        for length in range(1, delta + 2)
        for weight in range(1, (delta + 1) // length + 1)
        if length * weight > 1
        for s in range(0, delta + 2 - length)
    )


@lru_cache(maxsize=None)
def enumerate_templates(delta: int) -> tuple[LongEdgeGraph, ...]:
    """Complete catalog of templates with the given cogenus, sorted.

    Candidates go by start; one starting at or past ``reach``, the largest
    end so far, leaves vertex ``reach`` uncovered, as does every later one,
    so each finished multiset is a template.  delta = 0 yields the empty
    catalog (a long edge always has cogenus >= 1)."""
    if delta < 0:
        raise ValueError("cogenus must be nonnegative")
    if delta == 0:
        return ()
    candidates = _candidate_edges(delta)
    found: list[LongEdgeGraph] = []

    def rec(start_idx: int, remaining: int, reach: int, acc: list[Edge]) -> None:
        if remaining == 0:
            found.append(LongEdgeGraph(tuple(acc)))
            return
        for i in range(start_idx, len(candidates)):
            edge = candidates[i]
            if edge.start >= reach:
                break
            if edge.cogenus <= remaining:
                acc.append(edge)
                rec(i, remaining - edge.cogenus, max(reach, edge.end), acc)
                acc.pop()

    rec(0, delta, 1, [])
    return tuple(found)


def min_allowable_offset(template: LongEdgeGraph) -> int:
    """Smallest rightward translation after which every gap weight fits
    under its gap index: max over gaps i of (w_i - i)."""
    return max(wi - i for i, wi in weight_profile(template).items())


def allowable_offsets(template: LongEdgeGraph, d: int) -> range:
    """The contiguous offsets k for which the translated template is
    allowable for d; possibly empty for small d."""
    lo = min_allowable_offset(template)
    right = template.right_end
    hi = d + 1 - right
    if any(e.end == right and e.weight != 1 for e in template.edges):
        hi -= 1
    return range(lo, hi + 1)


def placements(delta: int, d: int, v: int) -> Iterator[tuple[int, LongEdgeGraph, int]]:
    """Every allowable offset template of cogenus 1..delta with left end
    ``v``, as (cogenus, offset template, next free vertex).  A long-edge
    graph is the union of a unique left-to-right sequence of such pieces,
    each at or after the previous one's right end."""
    if delta < 0:
        raise ValueError("cogenus must be nonnegative")
    for c in range(1, delta + 1):
        for template in enumerate_templates(c):
            if v in allowable_offsets(template, d):
                yield c, offset(template, v), v + template.right_end


def enumerate_graphs(delta: int, d: int) -> Iterator[LongEdgeGraph]:
    """All long-edge graphs of cogenus delta allowable for d, lazily.

    Graphs are unions of :func:`placements` sequences; uniqueness of the
    template decomposition makes the stream duplicate-free.  Order is
    deterministic, piece by piece.  delta = 0 yields the empty graph.
    """

    def build(start: int, remaining: int, acc: list[LongEdgeGraph]):
        if remaining == 0:
            yield disjoint_union(acc)
            return
        for v in range(start, d + 1):
            for c, piece, nxt in placements(remaining, d, v):
                acc.append(piece)
                yield from build(nxt, remaining - c, acc)
                acc.pop()

    yield from build(0, delta, [])
