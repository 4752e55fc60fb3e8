"""Logarithmic counting quantities from set-partition alternating sums.

Taking the formal log of the Severi-degree generating series produces
quantities that collapse, graph by graph, to alternating sums over set
partitions of the edge labels.  These vanish unless the graph is a single
translated template, grow linearly in the translation offset, and sum to
a quantity quadratic in the degree; the routines here compute them two
independent ways (per-graph partition sums vs. the power-series log) so
the structure theorems can be checked exactly.

The partition sum c(S) over a label set S is itself a log: by the
exponential formula, value(S) = sum of c(T) value(S - T) over the T in S
holding min S, with value(empty) = 1.  Solving this for c on the sets
holding label 0 costs 3^(n-1) terms instead of the Bell(n) partitions.

Also houses the small combinatorial lemmas behind those facts: the
partition sum of an auxiliary simple graph, its identity with the
chromatic-polynomial derivative at zero, and the vanishing pairing sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Mapping, Sequence

from .counting import labeled_count, n_star, severi_series
from .graphs import (
    LongEdgeGraph,
    allowable_profile,
    automorphism_count,
    multiplicity,
    offset,
)
from .templates import enumerate_templates

# q-graph on 12 edges, fresh process, 2-vCPU box: 12 weight-2 stubs ~0.25 s,
# a chain of 12 edges (k, k + 2, 1) ~3.4 s; each further edge about triples
# the cost (a 13-edge chain ~11 s).
PARTITION_GUARD = 12


def _partition_sum(n: int, value: Callable[[tuple[int, ...]], int]) -> int:
    """Sum over set partitions of {0, ..., n-1} of (-1)^(p-1) (p-1)! times
    the product of ``value`` over the p blocks, 0 for n = 0: the recursion
    of the module docstring, over the sets holding 0 in increasing bitmask
    order.  ``value`` gets each block as a sorted tuple of labels, at most
    once, and a block without label 0 only if a term it enters has c != 0."""
    if n > PARTITION_GUARD:
        raise ValueError(
            f"set partition enumeration guarded at n <= {PARTITION_GUARD}, got {n}"
        )
    if n == 0:
        return 0
    values: dict[int, int] = {}

    def block(mask: int) -> int:
        if mask not in values:
            values[mask] = value(tuple(i for i in range(n) if mask >> i & 1))
        return values[mask]

    c = [0] * (1 << (n - 1))  # c[S >> 1] for each set S holding 0
    for s in range(1, 1 << n, 2):
        rest = s ^ 1
        total = block(s)
        sub = rest
        while sub:  # T = sub + {0} over the proper subsets sub of rest
            sub = (sub - 1) & rest
            if c[sub >> 1]:
                total -= c[sub >> 1] * block(rest ^ sub)
        c[s >> 1] = total
    return c[-1]


def _subgraph(g: LongEdgeGraph, block: tuple[int, ...]) -> LongEdgeGraph:
    """The positioned subgraph on a block of edge labels."""
    return LongEdgeGraph(tuple(g.edges[i] for i in block))


def q_star(g: LongEdgeGraph, dist: Sequence[int], d: int) -> int:
    """Alternating sum over set partitions of the labeled edges of the
    products of block ordering counts; blocks keep their positions and
    inherit the distribution.  Always an integer."""
    return _partition_sum(
        g.n_edges,
        lambda block: n_star(_subgraph(g, block), [dist[i] for i in block], d),
    )


def q_graph(g: LongEdgeGraph, d: int) -> Fraction:
    """Log-series coefficient attached to one graph: multiplicity over
    automorphisms times the sum of :func:`q_star` over all labeled
    distributions.

    Each block's value depends only on the distribution restricted to that
    block, so the sum over distributions factors block by block (Fubini):
    one partition sum per graph, over the blocks' labeled counts.  Zero
    whenever the graph is not a translated template, including at offsets
    where the graph itself is not allowable, and zero for the empty graph
    (the log has no constant term).  A single edge that does not
    fit zeroes every block holding it (weights only grow), so every
    partition term, and the graph costs no block count.
    """
    if any(allowable_profile(LongEdgeGraph((e,)), d) is None for e in g.edges):
        return Fraction(0)
    total = _partition_sum(
        g.n_edges, lambda block: labeled_count(_subgraph(g, block), d)
    )
    return Fraction(multiplicity(g) * total, automorphism_count(g))


def q_delta_templates(d: int, delta: int) -> Fraction:
    """Log coefficient for one cogenus via the template route: sum of
    q_graph over every template of that cogenus at every offset 0..d+1.

    The offset sum deliberately runs over all translations, not only the
    allowable ones: a translated template can carry a nonzero value even
    where it is not itself allowable, and dropping those offsets breaks
    the exact match with the power-series log route.
    """
    if delta < 1:
        raise ValueError("delta must be >= 1")
    total = Fraction(0)
    for template in enumerate_templates(delta):
        for k in range(0, d + 2):
            total += q_graph(offset(template, k), d)
    return total


def _series_log(coeffs: list[Fraction]) -> list[Fraction]:
    """Formal log of a power series with constant term 1, same truncation."""
    if coeffs[0] != 1:
        raise ValueError("series log needs constant term 1")
    q = [Fraction(0)] * len(coeffs)
    for n in range(1, len(coeffs)):
        acc = n * coeffs[n]
        for j in range(1, n):
            acc -= j * q[j] * coeffs[n - j]
        q[n] = Fraction(acc, n)
    return q


def _series_exp(coeffs: list[Fraction]) -> list[Fraction]:
    """Formal exp of a power series with constant term 0, same truncation."""
    if coeffs[0] != 0:
        raise ValueError("series exp needs constant term 0")
    b = [Fraction(1)] + [Fraction(0)] * (len(coeffs) - 1)
    for n in range(1, len(coeffs)):
        acc = Fraction(0)
        for j in range(1, n + 1):
            acc += j * coeffs[j] * b[n - j]
        b[n] = acc / n
    return b


def q_delta_log(d: int, delta: int) -> Fraction:
    """Log coefficient for one cogenus via the generating series: the
    degree-delta coefficient of log(sum of Severi degrees x^cogenus)."""
    if delta < 1:
        raise ValueError("delta must be >= 1")
    return _series_log([Fraction(n) for n in severi_series(d, delta)])[delta]


def exp_recover_n(d: int, delta: int, q_values: Mapping[int, Fraction]) -> int:
    """Invert the log: rebuild the Severi degree from the table of log
    coefficients up to ``delta``.  The result must be an integer; anything
    else is an invariant violation."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if delta == 0:
        return 1
    missing = [dd for dd in range(1, delta + 1) if dd not in q_values]
    if missing:
        raise ValueError(f"q_values table is missing cogenus entries {missing}")
    series = [Fraction(0)] + [Fraction(q_values[dd]) for dd in range(1, delta + 1)]
    out = _series_exp(series)[delta]
    if out.denominator != 1:
        raise RuntimeError(
            f"internal invariant violation: exp of log coefficients gave "
            f"non-integer {out} at d={d}, delta={delta}"
        )
    return int(out)


@dataclass(frozen=True)
class SimpleGraphH:
    """Auxiliary simple graph: n vertices 0..n-1, unordered edges, loops
    allowed, no parallel edges."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one vertex")
        for u, v in self.edges:
            if not (0 <= u <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range or unordered")


def make_simple_graph(n: int, edges) -> SimpleGraphH:
    return SimpleGraphH(n, frozenset(tuple(sorted(e)) for e in edges))


def sigma(h: SimpleGraphH) -> int:
    """Alternating-factorial sum over vertex partitions in which no block
    contains two adjacent vertices; a loop makes every partition invalid."""
    if h.n > PARTITION_GUARD:
        raise ValueError(f"sigma guarded at n <= {PARTITION_GUARD}, got {h.n}")
    if any(u == v for u, v in h.edges):
        return 0
    adjacency = {v: set() for v in range(h.n)}
    for u, v in h.edges:
        adjacency[u].add(v)
        adjacency[v].add(u)

    def independent(block: tuple[int, ...]) -> int:
        return int(not any(adjacency[a].intersection(block) for a in block))

    return _partition_sum(h.n, independent)


def chromatic_polynomial(h: SimpleGraphH) -> list[int]:
    """Integer coefficient list (constant first) via deletion-contraction;
    identically zero when the graph has a loop."""
    if h.n > PARTITION_GUARD:
        raise ValueError(f"chromatic polynomial guarded at n <= {PARTITION_GUARD}")

    def rec(n: int, edges: frozenset[tuple[int, int]]) -> list[int]:
        if any(u == v for u, v in edges):
            return [0]
        if not edges:
            return [0] * n + [1]
        u, v = min(edges)
        deleted = edges - {(u, v)}
        # contract v into u (u < v); duplicates merge, no loop can appear
        contracted = set()
        for a, b in deleted:
            a2 = u if a == v else a
            b2 = u if b == v else b
            a2, b2 = (a2, b2) if a2 <= b2 else (b2, a2)
            contracted.add((a2 - (a2 > v), b2 - (b2 > v)))
        return _poly_sub(rec(n, deleted), rec(n - 1, frozenset(contracted)))

    return rec(h.n, h.edges)


def _poly_sub(a: list[int], b: list[int]) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def chromatic_derivative_at_zero(h: SimpleGraphH) -> int:
    """Derivative of the chromatic polynomial at 0; equals sigma(h) for
    loopless graphs and vanishes when h is disconnected."""
    poly = chromatic_polynomial(h)
    return poly[1] if len(poly) > 1 else 0


def pair_identity(a: int, b: int) -> int:
    """Pairing sum between an a-block and a b-block side: contracts to
    zero for every a, b >= 1.  Returned (not asserted) so tests can check."""
    if not (1 <= a <= 20 and 1 <= b <= 20):
        raise ValueError("pair_identity arguments must be in 1..20")
    total = 0
    for q in range(0, min(a, b) + 1):
        total += (
            (-1) ** (a + b - q - 1)
            * factorial(a + b - q - 1)
            * comb(a, q)
            * comb(b, q)
            * factorial(q)
        )
    return total
