"""Exact ordering counts and Severi degrees.

The count attached to a long-edge graph is the number of linear orderings
of the vertices of its subdivided degree-d extension, refined by the
distribution of the subdivision midpoints into gaps.  Per gap the count is
a falling factorial; everything here is arbitrary-precision integer
arithmetic, never floating point.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Iterable, Iterator, Mapping, Sequence

from .graphs import (
    LongEdgeGraph,
    allowable_profile,
    automorphism_count,
    multiplicity,
)
from .templates import placements

DEFAULT_ORACLE_TOKENS = 12


def falling_factorial(a: int, m: int) -> int:
    """a (a-1) ... (a-m+1), with the empty product equal to 1."""
    out = 1
    for j in range(m):
        out *= a - j
    return out


def enumerate_distributions(g: LongEdgeGraph) -> Iterator[tuple[int, ...]]:
    """Every assignment of one spanned gap to each edge, lazily, as tuples
    aligned with the canonical edge order.  The empty graph has one empty
    assignment."""
    return itertools.product(*(range(e.start, e.end) for e in g.edges))


def gap_product(profile: Mapping[int, int], gaps: Iterable[int]) -> int:
    """Product over gaps i of the falling factorial (i - w_i + m_i)_(m_i),
    where w is the weight profile and m_i counts the midpoints placed in
    gap i; strictly positive when the profile is allowable."""
    m: dict[int, int] = {}
    for gap in gaps:
        m[gap] = m.get(gap, 0) + 1
    out = 1
    for gap, mi in m.items():
        out *= falling_factorial(gap - profile.get(gap, 0) + mi, mi)
    return out


def n_star(g: LongEdgeGraph, dist: Sequence[int], d: int) -> int:
    """Ordering count for labeled edges under one midpoint distribution:
    zero when the graph is not allowable for d, else its gap product."""
    w = allowable_profile(g, d)
    return 0 if w is None else gap_product(w, dist)


def labeled_count(g: LongEdgeGraph, d: int) -> int:
    """Ordering count for labeled edges: the gap product summed over all
    distributions, with the profile resolved once.  A graph that is not
    allowable counts 0 and costs no distribution."""
    w = allowable_profile(g, d)
    if w is None:
        return 0
    return sum(gap_product(w, dist) for dist in enumerate_distributions(g))


def n_graph(g: LongEdgeGraph, d: int) -> int:
    """Full weighted ordering count: multiplicity times the labeled count,
    divided by the automorphism count.

    The division is always exact (automorphisms act freely on labeled
    orderings); a remainder indicates a bug and aborts loudly.
    """
    alpha = automorphism_count(g)
    q, r = divmod(multiplicity(g) * labeled_count(g, d), alpha)
    if r:
        raise RuntimeError(
            f"internal invariant violation: automorphism count {alpha} "
            f"does not divide weighted ordering sum for {g}"
        )
    return q


def severi_series(d: int, delta: int) -> list[int]:
    """Severi degrees N^{d,r} for r = 0..delta in one walk over the
    vertices v = d, ..., 0.  Row v sums n_graph, per cogenus, over the
    allowable graphs with no edge left of v: row v+1 plus, for each
    template piece starting at v, n_graph(piece) times the row at its right
    end (n_graph is multiplicative over pieces).  A piece ends at most
    delta+1 vertices right of v, so delta+2 rows are kept."""
    if delta < 0:
        raise ValueError("cogenus must be nonnegative")
    rows = deque([[1] + [0] * delta], maxlen=delta + 2)
    for v in range(d, -1, -1):
        row = list(rows[0])
        for c, piece, nxt in placements(delta, d, v):
            count = n_graph(piece, d)
            after = rows[nxt - v - 1]
            for r in range(c, delta + 1):
                row[r] += count * after[r - c]
        rows.appendleft(row)
    return rows[0]


def severi_degree(d: int, delta: int) -> int:
    """Number of degree-d plane curves with delta nodes through the
    matching number of general points: the last entry of :func:`severi_series`."""
    return severi_series(d, delta)[delta]


def _distinct_permutations(tokens: tuple) -> Iterable[tuple]:
    """All distinct orderings of a multiset, one per equivalence class."""
    if not tokens:
        yield ()
        return
    seen = set()
    for i, t in enumerate(tokens):
        if t in seen:
            continue
        seen.add(t)
        for rest in _distinct_permutations(tokens[:i] + tokens[i + 1 :]):
            yield (t,) + rest


def orderings_oracle(
    g: LongEdgeGraph, d: int, max_tokens: int = DEFAULT_ORACLE_TOKENS
) -> int:
    """Labeled ordering count by brute enumeration, independent of n_star.

    Builds the degree-d extension explicitly: i - w_i indistinct short
    tokens over each gap i plus one labeled midpoint per long edge, then
    enumerates every midpoint-to-gap assignment and every distinct
    interleaving inside each gap, collecting canonical outcomes in a set.
    Refuses to run when the extension holds more than ``max_tokens`` edges
    over the graph's span.
    """
    w = allowable_profile(g, d)
    if w is None:
        return 0
    if g.is_empty:
        return 1
    lo, hi = g.left_end, g.right_end
    span_gaps = [i for i in range(lo, hi) if i <= d]
    shorts = {i: i - w.get(i, 0) for i in span_gaps}
    token_count = sum(shorts.values()) + g.n_edges
    if token_count > max_tokens:
        raise ValueError(
            f"oracle too large: {token_count} extension edges over the span "
            f"exceed the bound of {max_tokens}"
        )
    spans = [range(e.start, e.end) for e in g.edges]
    outcomes = set()
    for assignment in itertools.product(*spans):
        per_gap = []
        for i in span_gaps:
            tokens = tuple(["s"] * shorts[i]) + tuple(
                f"e{j}" for j, gap in enumerate(assignment) if gap == i
            )
            per_gap.append(tuple(_distinct_permutations(tokens)))
        for combo in itertools.product(*per_gap):
            outcomes.add(combo)
    return len(outcomes)
