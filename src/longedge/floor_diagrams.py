"""Floor diagrams: weighted acyclic multigraphs on linearly ordered floors.

A floor diagram of degree d lives on vertices 1..d with edges directed up
the order and divergence (out-weight minus in-weight) at most 1 at every
vertex.  Restoring divergence exactly 1 with weight-1 edges to a virtual
vertex d+1 and erasing short edges turns a diagram into a long-edge graph
and vice versa; diagrams are nevertheless enumerated directly, from their
own definition, so that the two counting routes stay independent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .counting import orderings_oracle
from .graphs import (
    LongEdgeGraph,
    allowable_profile,
    automorphism_count,
    disjoint_union,
    make_graph,
    multiplicity,
)

MAX_DIAGRAM_DEGREE = 5
MAX_DIAGRAM_COGENUS = 3


@dataclass(frozen=True, order=True)
class DiagramEdge:
    source: int
    target: int
    weight: int


@dataclass(frozen=True)
class FloorDiagram:
    """Degree (vertex count) plus a canonical sorted edge multiset."""

    degree: int
    edges: tuple[DiagramEdge, ...]


def divergences(diagram: FloorDiagram) -> dict[int, int]:
    """Out-weight minus in-weight at every vertex carrying an edge; every
    other vertex has divergence 0."""
    div: dict[int, int] = {}
    for e in diagram.edges:
        div[e.source] = div.get(e.source, 0) + e.weight
        div[e.target] = div.get(e.target, 0) - e.weight
    return div


def make_diagram(degree: int, triples: Iterable[tuple[int, int, int]]) -> FloorDiagram:
    """Validate and build a floor diagram from (source, target, weight) triples."""
    if degree < 1:
        raise ValueError("diagram degree must be >= 1")
    edges = []
    for s, t, w in triples:
        if not (1 <= s < t <= degree):
            raise ValueError(
                f"diagram edge ({s}, {t}, {w}) must satisfy 1 <= source < target <= {degree}"
            )
        if w < 1:
            raise ValueError(f"diagram edge ({s}, {t}, {w}) has non-positive weight")
        edges.append(DiagramEdge(s, t, w))
    diagram = FloorDiagram(degree, tuple(sorted(edges)))
    bad = [v for v, dv in divergences(diagram).items() if dv > 1]
    if bad:
        raise ValueError(f"divergence exceeds 1 at vertices {bad}")
    return diagram


def from_long_edge(g: LongEdgeGraph, d: int) -> FloorDiagram:
    """Floor diagram of an allowable graph: its edges plus the implied
    short edges per gap, with everything touching vertex d+1 erased."""
    w = allowable_profile(g, d)
    if w is None:
        raise ValueError(f"graph is not allowable for d={d}")
    if g.edges and g.left_end < 1:
        raise ValueError("graph edges must lie within vertices 1..d+1")
    triples = [(e.start, e.end, e.weight) for e in g.edges if e.end <= d]
    for i in range(1, d):
        triples.extend([(i, i + 1, 1)] * (i - w.get(i, 0)))
    return make_diagram(d, triples)


def to_long_edge(diagram: FloorDiagram) -> LongEdgeGraph:
    """Erase the short edges (length 1, weight 1); keeps everything else."""
    return make_graph(
        (e.source, e.target, e.weight)
        for e in diagram.edges
        if not (e.target - e.source == 1 and e.weight == 1)
    )


def restored_long_edge(diagram: FloorDiagram) -> LongEdgeGraph:
    """Long-edge graph the diagram stands for: top up each vertex with
    weight-1 edges to the virtual vertex d+1 until its divergence is 1,
    then erase all short edges.  Always allowable for d = degree."""
    d = diagram.degree
    div = divergences(diagram)
    # v = d would only add short edges
    top_up = [(v, d + 1, 1) for v in range(1, d) for _ in range(1 - div.get(v, 0))]
    return disjoint_union([to_long_edge(diagram), make_graph(top_up)])


def _components(diagram: FloorDiagram) -> list[tuple[int, int]]:
    """(vertex count, edge count) per connected component, isolated
    vertices included as (1, 0) components."""
    parent = list(range(diagram.degree + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in diagram.edges:
        ra, rb = find(e.source), find(e.target)
        if ra != rb:
            parent[ra] = rb
    sizes: dict[int, int] = {}
    edge_counts: dict[int, int] = {}
    for v in range(1, diagram.degree + 1):
        r = find(v)
        sizes[r] = sizes.get(r, 0) + 1
        edge_counts.setdefault(r, 0)
    for e in diagram.edges:
        edge_counts[find(e.source)] += 1
    return [(sizes[r], edge_counts[r]) for r in sorted(sizes)]


def fd_cogenus(diagram: FloorDiagram) -> int:
    """Cogenus of a diagram: per-component genus defects plus the product
    terms between component degrees."""
    comps = _components(diagram)
    total = 0
    for d_j, e_j in comps:
        g_j = e_j - d_j + 1
        delta_j = (d_j - 1) * (d_j - 2) // 2 - g_j
        if delta_j < 0:
            raise ValueError(
                f"malformed diagram: component with {d_j} vertices and "
                f"{e_j} edges has negative cogenus"
            )
        total += delta_j
    for (da, _), (db, _) in itertools.combinations(comps, 2):
        total += da * db
    return total


def fd_multiplicity(diagram: FloorDiagram) -> int:
    """Product of squared weights over all diagram edges; the erased short
    edges have weight 1, so this is the multiplicity of the long-edge graph."""
    return multiplicity(to_long_edge(diagram))


def marking_count(diagram: FloorDiagram) -> int:
    """Equivalence classes of markings: ordering classes of the subdivided
    extension of the diagram's long-edge graph, counted by the explicit
    ordering enumeration."""
    g = restored_long_edge(diagram)
    labeled = orderings_oracle(g, diagram.degree)
    alpha = automorphism_count(g)
    q, r = divmod(labeled, alpha)
    if r:
        raise RuntimeError(
            f"internal invariant violation: automorphism count {alpha} does "
            f"not divide the labeled ordering count for {g}"
        )
    return q


def enumerate_floor_diagrams(d: int, delta: int) -> list[FloorDiagram]:
    """Every floor diagram of the given degree and cogenus, by direct
    search over edge multisets with the divergence bound; guarded to the
    scales where the exhaustive search is cheap."""
    if d < 1 or delta < 0:
        raise ValueError("need d >= 1 and delta >= 0")
    if d > MAX_DIAGRAM_DEGREE or delta > MAX_DIAGRAM_COGENUS:
        raise ValueError(
            f"floor diagram enumeration guarded at d <= {MAX_DIAGRAM_DEGREE}, "
            f"delta <= {MAX_DIAGRAM_COGENUS}"
        )

    def out_options(v: int, cap: int) -> list[list[tuple[int, int]]]:
        """Multisets of (target, weight) from vertex v with total weight <= cap."""
        pairs = [(t, w) for t in range(v + 1, d + 1) for w in range(1, cap + 1)]
        options: list[list[tuple[int, int]]] = []

        def rec(idx: int, budget: int, acc: list[tuple[int, int]]):
            options.append(list(acc))
            for i in range(idx, len(pairs)):
                t, w = pairs[i]
                if w <= budget:
                    acc.append((t, w))
                    rec(i, budget - w, acc)
                    acc.pop()

        rec(0, cap, [])
        return options

    results: list[FloorDiagram] = []

    def rec(v: int, in_weight: list[int], acc: list[tuple[int, int, int]]):
        if v == d:
            diagram = make_diagram(d, acc)
            if fd_cogenus(diagram) == delta:
                results.append(diagram)
            return
        cap = in_weight[v] + 1
        for option in out_options(v, cap):
            for t, w in option:
                in_weight[t] += w
                acc.append((v, t, w))
            rec(v + 1, in_weight, acc)
            for t, w in option:
                in_weight[t] -= w
                acc.pop()

    rec(1, [0] * (d + 1), [])
    return results


def fmcount(d: int, delta: int) -> int:
    """Severi degree via the floor diagram route: the sum of multiplicity
    times marking count over all diagrams of degree d and cogenus delta."""
    return sum(
        fd_multiplicity(diagram) * marking_count(diagram)
        for diagram in enumerate_floor_diagrams(d, delta)
    )


def parse_diagram_text(text: str) -> FloorDiagram:
    """Parse the diagram text format: a "d=<n>" header line, then one
    "source target weight" line per edge."""
    lines = [
        (i, line.strip())
        for i, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.strip().startswith("#")
    ]
    if not lines or not lines[0][1].replace(" ", "").startswith("d="):
        raise ValueError("diagram text must start with a 'd=<n>' header")
    header = lines[0][1].replace(" ", "")
    try:
        degree = int(header[2:])
    except ValueError:
        raise ValueError(f"line {lines[0][0]}: bad degree header {lines[0][1]!r}") from None
    triples = []
    for lineno, line in lines[1:]:
        fields = line.split()
        if len(fields) != 3:
            raise ValueError(f"line {lineno}: expected 'source target weight'")
        try:
            triples.append(tuple(int(f) for f in fields))
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer field in {line!r}") from None
    return make_diagram(degree, triples)


def format_diagram_text(diagram: FloorDiagram) -> str:
    lines = [f"d={diagram.degree}"]
    lines += [f"{e.source} {e.target} {e.weight}" for e in diagram.edges]
    return "\n".join(lines)
