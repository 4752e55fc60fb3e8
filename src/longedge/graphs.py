"""Long-edge graphs: weighted multigraphs on the vertex line 0, 1, 2, ...

A long-edge graph is a finite multiset of weighted edges drawn left to
right between nonnegative integer vertices.  Loops are forbidden, weights
are positive, and "short" edges (length 1, weight 1) are excluded; short
edges only ever appear implicitly, when a graph is extended for counting.

Values are immutable and canonically sorted, so two graphs are equal
exactly when their edge multisets agree.  All operations here are pure.
"""

from __future__ import annotations

from collections import Counter
from functools import total_ordering
from math import factorial
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence


class Edge(NamedTuple):
    """A single weighted edge from ``start`` to ``end`` (start < end)."""

    start: int
    end: int
    weight: int

    @property
    def length(self) -> int:
        return self.end - self.start

    @property
    def cogenus(self) -> int:
        return self.length * self.weight - 1


def make_edge(start: int, end: int, weight: int) -> Edge:
    """Validate and build an edge; rejects anything a long-edge graph may not hold."""
    if start < 0 or end < 0:
        raise ValueError(f"negative vertex in edge ({start}, {end}, {weight})")
    if end == start:
        raise ValueError(f"loop at vertex {start} is not allowed")
    if end < start:
        raise ValueError(
            f"edge ({start}, {end}, {weight}) must run left to right (end > start)"
        )
    if weight < 1:
        raise ValueError(f"edge ({start}, {end}, {weight}) has non-positive weight")
    if end - start == 1 and weight == 1:
        raise ValueError(
            f"short edge ({start}, {end}, {weight}): length-1 weight-1 edges are excluded"
        )
    return Edge(start, end, weight)


@total_ordering
class LongEdgeGraph:
    """Canonical long-edge graph: edges sorted by (start, end, weight).

    The empty graph is a legitimate value (cogenus 0, multiplicity 1,
    allowable for every d).  Edge positions in the sorted tuple serve as
    the internal edge labels used by distributions and partition sums.
    Immutable; equal, ordered and hashed by its edge tuple, and equal only
    to another graph.
    """

    __slots__ = ("edges",)

    def __init__(self, edges: tuple[Edge, ...]) -> None:
        object.__setattr__(self, "edges", edges)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    # Pickle and copy rebuild through __init__; the default would restore
    # the slot through the raising __setattr__.
    def __reduce__(self):
        return (self.__class__, (self.edges,))

    def __repr__(self) -> str:
        return f"LongEdgeGraph(edges={self.edges!r})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.edges == other.edges
        return NotImplemented

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self.edges < other.edges
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.edges,))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def is_empty(self) -> bool:
        return not self.edges

    @property
    def left_end(self) -> int:
        """Smallest vertex carrying an edge; 0 for the empty graph."""
        if not self.edges:
            return 0
        return min(e.start for e in self.edges)

    @property
    def right_end(self) -> int:
        """Smallest vertex with every later vertex of degree 0; 0 if empty."""
        if not self.edges:
            return 0
        return max(e.end for e in self.edges)

    def __iter__(self):
        return iter(self.edges)


EMPTY_GRAPH = LongEdgeGraph(())


def make_graph(edge_triples: Iterable[tuple[int, int, int]]) -> LongEdgeGraph:
    """Build the canonical graph from (start, end, weight) triples.

    Input order is irrelevant; the result is sorted.  Invalid triples raise
    ValueError with a diagnostic naming the offending edge.
    """
    edges = sorted(make_edge(s, e, w) for (s, e, w) in edge_triples)
    return LongEdgeGraph(tuple(edges))


def cogenus(g: LongEdgeGraph) -> int:
    """Sum of length*weight - 1 over all edges; additive over disjoint unions."""
    return sum(e.cogenus for e in g.edges)


def multiplicity(g: LongEdgeGraph) -> int:
    """Product of squared edge weights; 1 for the empty graph."""
    mu = 1
    for e in g.edges:
        mu *= e.weight * e.weight
    return mu


def weight_profile(g: LongEdgeGraph) -> dict[int, int]:
    """Total edge weight over each unit gap [i, i+1], as a dict.

    Gaps not under any edge are omitted (weight 0).
    """
    profile: dict[int, int] = {}
    for e in g.edges:
        for i in range(e.start, e.end):
            profile[i] = profile.get(i, 0) + e.weight
    return profile


def allowable_profile(g: LongEdgeGraph, d: int) -> dict[int, int] | None:
    """Weight profile if the graph fits the degree-d counting window, else
    None: no edge past vertex d+1, only weight-1 edges touching d+1, and
    weight over gap [i, i+1] at most i everywhere (one pass; weights are
    positive, so a gap over its bound part-way stays over it)."""
    profile: dict[int, int] = {}
    for e in g.edges:
        if e.end > d + 1 or (e.end == d + 1 and e.weight != 1):
            return None
        for i in range(e.start, e.end):
            wi = profile.get(i, 0) + e.weight
            if wi > i:
                return None
            profile[i] = wi
    return profile


def is_allowable(g: LongEdgeGraph, d: int) -> bool:
    """Whether the graph fits the degree-d counting window."""
    return allowable_profile(g, d) is not None


def offset(g: LongEdgeGraph, k: int) -> LongEdgeGraph:
    """Translate every edge rightward by k units (k may be negative if room allows)."""
    if k == 0:
        return g
    if g.edges and g.left_end + k < 0:
        raise ValueError(f"offset by {k} would push vertices below 0")
    return LongEdgeGraph(
        tuple(Edge(e.start + k, e.end + k, e.weight) for e in g.edges)
    )


def automorphism_count(g: LongEdgeGraph) -> int:
    """Edge permutations fixing all vertices: product of factorials of
    multiplicities of identical (start, end, weight) edges."""
    alpha = 1
    for count in Counter(g.edges).values():
        alpha *= factorial(count)
    return alpha


def automorphism_count_with(g: LongEdgeGraph, dist: Sequence[int]) -> int:
    """Like :func:`automorphism_count`, but identical edges are further split
    by the gap the distribution assigns them; divides automorphism_count(g)."""
    alpha = 1
    for count in Counter(zip(g.edges, dist)).values():
        alpha *= factorial(count)
    return alpha


def _uncovered(g: LongEdgeGraph) -> Iterator[int]:
    """Vertices strictly between the two ends that no edge passes strictly
    over, in increasing order: one pass over the sorted edges, tracking the
    furthest end reached by the edges starting left of each vertex."""
    reach = g.left_end + 1
    for e in g.edges:
        yield from range(reach, e.start + 1)
        reach = max(reach, e.end)


def is_offset_template(g: LongEdgeGraph) -> bool:
    """Nonempty with every vertex between the two ends covered, i.e. a
    template translated rightward by some amount."""
    return not g.is_empty and next(_uncovered(g), None) is None


def is_template(g: LongEdgeGraph) -> bool:
    """Nonempty, left end at vertex 0, and every internal vertex covered
    by an edge passing strictly over it."""
    return is_offset_template(g) and g.left_end == 0


def decompose(g: LongEdgeGraph) -> list[tuple[LongEdgeGraph, int]]:
    """Split a graph at its uncovered vertices into offset templates.

    Returns [(template, offset), ...] ordered by offset; reassembling with
    offset + disjoint_union reproduces the graph exactly.  The empty graph
    decomposes into the empty list.
    """
    if g.is_empty:
        return []
    breaks = [g.left_end, *_uncovered(g), g.right_end]
    parts: list[tuple[LongEdgeGraph, int]] = []
    for lo, hi in zip(breaks, breaks[1:]):
        segment = [e for e in g.edges if lo <= e.start and e.end <= hi]
        if not segment:
            continue
        base = min(e.start for e in segment)
        template = make_graph((e.start - base, e.end - base, e.weight) for e in segment)
        parts.append((template, base))
    return parts


def disjoint_union(parts: Iterable[LongEdgeGraph]) -> LongEdgeGraph:
    """Multiset union of the edge sets; cogenus adds, multiplicity multiplies."""
    edges: list[Edge] = []
    for p in parts:
        edges.extend(p.edges)
    return LongEdgeGraph(tuple(sorted(edges)))


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, line) for each line that is neither blank nor a "#"
    comment, numbered from 1."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, raw


def _read_triples(lines: Iterable[tuple[int, str]], fields: str, make: Callable) -> list:
    """``make(a, b, c)`` on the three integers of each numbered line.  A
    line without exactly three integer fields, or a ValueError from
    ``make``, raises ValueError naming the line; ``fields`` names the three
    fields in the message."""
    out = []
    for lineno, raw in lines:
        parts = raw.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected '{fields}', got {raw!r}")
        try:
            a, b, c = (int(f) for f in parts)
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer field in {raw!r}") from None
        try:
            out.append(make(a, b, c))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return out


def parse_graph_text(text: str) -> LongEdgeGraph:
    """Parse the one-edge-per-line text format: "start end weight".

    Lines starting with "#" and blank lines are ignored; an empty file is
    the empty graph.  Raises ValueError naming the offending line number.
    """
    return make_graph(_read_triples(_content_lines(text), "start end weight", make_edge))


def format_graph_text(g: LongEdgeGraph) -> str:
    """Inverse of :func:`parse_graph_text` (canonical edge order)."""
    return "\n".join(f"{e.start} {e.end} {e.weight}" for e in g.edges)
