"""Acceptance suite: every shipping-gate check as a named, runnable criterion.

Each criterion is a zero-argument callable that raises AssertionError on
failure and returns a one-line detail string on success.  The CLI `verify`
command and the pytest acceptance module both run this registry, so there
is exactly one definition of "done".
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable

from .counting import (
    enumerate_distributions,
    labeled_count,
    n_graph,
    orderings_oracle,
    severi_degree,
    severi_series,
)
from .floor_diagrams import fmcount
from .graphs import (
    LongEdgeGraph,
    automorphism_count,
    disjoint_union,
    is_allowable,
    is_offset_template,
    make_graph,
    multiplicity,
    offset,
)
from .polynomials import (
    FACTORED_NODE_POLYNOMIALS,
    RationalPolynomial,
    finite_difference_degree,
    node_polynomial,
)
from .qcalc import (
    exp_recover_n,
    chromatic_derivative_at_zero,
    make_simple_graph,
    pair_identity,
    q_delta_log,
    q_delta_templates,
    q_graph,
    q_star,
    sigma,
)
from .templates import enumerate_graphs, enumerate_templates, min_allowable_offset

# Worked three-edge example of cogenus 3: one weighted edge nested under
# two overlapping weight-1 edges.
WORKED_EXAMPLE = make_graph([(3, 5, 1), (4, 5, 2), (4, 6, 1)])

# Three-edge template whose translated family has a linear q_graph tail:
# a weight-2 stub under two parallel weight-1 edges.
THREE_EDGE_TEMPLATE = make_graph([(0, 1, 2), (0, 2, 1), (0, 2, 1)])

ORACLE_TOKENS = 16  # criterion 12 needs extensions with up to 13 edges in span


def _shift_dist(dist: tuple[int, ...], k: int) -> tuple[int, ...]:
    return tuple(gap + k for gap in dist)


def check_severi_cogenus1() -> str:
    for d in range(1, 16):
        expected = 3 * (d - 1) ** 2
        got = severi_degree(d, 1)
        assert got == expected, f"severi_degree({d},1) = {got}, expected {expected}"
    return "severi_degree(d,1) = 3(d-1)^2 for d = 1..15"


def check_worked_example_count() -> str:
    got = n_graph(WORKED_EXAMPLE, 5)
    assert got == 148, f"n_graph(worked example, 5) = {got}, expected 148"
    return "n_graph = 148 on the three-edge cogenus-3 example"


def check_node_polynomials() -> str:
    got2 = node_polynomial(2)
    assert got2 == FACTORED_NODE_POLYNOMIALS[2][1], f"node_polynomial(2) = {got2.to_strings()}"
    expected3 = RationalPolynomial.from_coefficients(
        [
            525,
            Fraction(-829, 2),
            -229,
            Fraction(423, 2),
            Fraction(9, 2),
            -27,
            Fraction(9, 2),
        ]
    )
    got3 = node_polynomial(3)
    assert got3 == expected3, f"node_polynomial(3) = {got3.to_strings()}"
    return "node polynomials for 2 and 3 nodes match the classical coefficients"


def check_floor_route() -> str:
    via_templates = severi_degree(4, 3)
    via_floors = fmcount(4, 3)
    assert via_templates == 675, f"severi_degree(4,3) = {via_templates}"
    assert via_floors == 675, f"fmcount(4,3) = {via_floors}"
    return "severi_degree(4,3) = fmcount(4,3) = 675"


def check_qgraph_family() -> str:
    expected = {0: 0, 1: 0, 2: 76, 3: 104}
    expected.update({k: 40 * k - 16 for k in range(4, 9)})
    for k, want in sorted(expected.items()):
        got = q_graph(offset(THREE_EDGE_TEMPLATE, k), k + 2)
        assert got == want, f"q_graph at offset {k}: {got}, expected {want}"
    return "q_graph on the translated three-edge family: 0, 0, 76, 104, then 40k-16"


def check_dual_route() -> str:
    for delta in (1, 2, 3):
        for d in range(1, 11):
            via_templates = q_delta_templates(d, delta)
            via_log = q_delta_log(d, delta)
            assert via_templates == via_log, (
                f"route mismatch at d={d}, delta={delta}: "
                f"templates {via_templates} vs log {via_log}"
            )
    return "template route equals log route for cogenus <= 3, d <= 10"


def check_linearity() -> str:
    checked = 0
    for delta in (1, 2, 3):
        for template in enumerate_templates(delta):
            k_min = min_allowable_offset(template)
            ks = range(k_min, k_min + 6)
            d = ks[-1] + template.right_end + 1
            for dist in enumerate_distributions(template):
                values = [
                    Fraction(q_star(offset(template, k), _shift_dist(dist, k), d))
                    for k in ks
                ]
                assert finite_difference_degree(values) <= 1, (
                    f"q_star not linear for template {template} "
                    f"distribution {dist}: values {values}"
                )
                checked += 1
    return f"second differences vanish for {checked} (template, distribution) pairs"


def q_graph_by_distribution(g: LongEdgeGraph, d: int) -> Fraction:
    """q_graph summed in the other order: one partition sum per
    distribution, multiplicity over automorphisms times the q_star sum."""
    total = sum(q_star(g, dist, d) for dist in enumerate_distributions(g))
    return Fraction(multiplicity(g) * total, automorphism_count(g))


def check_fubini_vs_distribution() -> str:
    checked = 0
    for delta in (1, 2, 3, 4):
        for template in enumerate_templates(delta):
            d = template.right_end + 3
            for k in range(0, d + 2):
                g = offset(template, k)
                got = q_graph(g, d)
                want = q_graph_by_distribution(g, d)
                assert got == want, f"q_graph({g}, {d}) = {got}, per distribution {want}"
                checked += 1
    return (
        f"q_graph equals the per-distribution q_star sum on {checked} "
        f"offset templates of cogenus <= 4"
    )


def check_quadraticity() -> str:
    for delta in (1, 2, 3):
        values = [q_delta_templates(d, delta) for d in range(delta + 2, delta + 11)]
        assert finite_difference_degree(values) <= 2, (
            f"third differences of the cogenus-{delta} log quantity "
            f"do not vanish: {values}"
        )
    return "third differences vanish on d in [delta+2, delta+10] for delta <= 3"


def check_vanishing() -> str:
    unions: set[LongEdgeGraph] = set()
    for da, db in ((1, 1), (1, 2)):
        for ta in enumerate_templates(da):
            for tb in enumerate_templates(db):
                for ka in range(0, 6):
                    for kb in range(0, 6):
                        g = disjoint_union([offset(ta, ka), offset(tb, kb)])
                        if not is_offset_template(g):
                            unions.add(g)
    for g in sorted(unions):
        for d in range(1, 11):
            got = q_graph(g, d)
            assert got == 0, f"q_graph({g}, {d}) = {got}, expected exact 0"
    return f"q_graph = 0 on {len(unions)} non-template two-part unions, d <= 10"


def check_partition_sum_vanishing() -> str:
    checked = 0
    for n in range(2, 7):
        pairs = list(combinations(range(n), 2))
        for count in range(0, n - 1):
            for edges in combinations(pairs, count):
                h = make_simple_graph(n, edges)
                got = sigma(h)
                assert got == 0, f"sigma nonzero on n={n}, edges={edges}: {got}"
                checked += 1
    rng = random.Random(97)
    for _ in range(100):
        n = rng.randint(2, 7)
        pairs = list(combinations(range(n), 2))
        edges = [p for p in pairs if rng.random() < 0.4]
        h = make_simple_graph(n, edges)
        assert sigma(h) == chromatic_derivative_at_zero(h), (
            f"sigma disagrees with chromatic derivative on n={n}, edges={edges}"
        )
    return f"sigma = 0 on {checked} sparse graphs; matches chromatic derivative on 100 random"


def check_pairing_identity() -> str:
    for a in range(1, 9):
        for b in range(1, 9):
            got = pair_identity(a, b)
            assert got == 0, f"pair_identity({a},{b}) = {got}"
    return "pairing sum vanishes for all 1 <= a, b <= 8"


def check_formula_vs_oracle() -> str:
    checked = 0
    for delta in (1, 2):
        for template in enumerate_templates(delta):
            for k in range(min_allowable_offset(template), 5):
                g = offset(template, k)
                for d in (k + 2, k + 3):
                    if not is_allowable(g, d):
                        continue
                    formula = labeled_count(g, d)
                    oracle = orderings_oracle(g, d, max_tokens=ORACLE_TOKENS)
                    assert formula == oracle, (
                        f"formula {formula} != oracle {oracle} for {g} at d={d}"
                    )
                    checked += 1
    return f"falling-factorial formula matches brute enumeration on {checked} cases"


def check_exp_log_roundtrip() -> str:
    for d in range(1, 13):
        q_table = {dd: q_delta_log(d, dd) for dd in range(1, 5)}
        for delta, want in enumerate(severi_series(d, 4)):
            got = exp_recover_n(d, delta, q_table)
            assert got == want, (
                f"exp of log coefficients gave {got} at d={d}, delta={delta}, "
                f"expected {want}"
            )
    return "exp recovers every Severi degree for cogenus <= 4, d <= 12"


def check_placements_vs_graph_sum() -> str:
    for d in range(1, 11):
        for delta, got in enumerate(severi_series(d, 4)):
            via_graphs = sum(n_graph(g, d) for g in enumerate_graphs(delta, d))
            assert got == via_graphs, f"severi_series({d},4)[{delta}] = {got} != {via_graphs}"
    return "vertex walk series equals graph-by-graph sum for cogenus <= 4, d <= 10"


def check_d_independence() -> str:
    checked = 0
    for delta in (1, 2, 3):
        for template in enumerate_templates(delta):
            for k in range(min_allowable_offset(template), 6):
                g = offset(template, k)
                values = {n_graph(g, d) for d in range(1, 11) if is_allowable(g, d)}
                if not values:
                    continue
                assert len(values) == 1, (
                    f"n_graph varies with d for {g}: {sorted(values)}"
                )
                checked += 1
    return f"n_graph constant across allowable d <= 10 for {checked} offset templates"


@dataclass(frozen=True)
class Criterion:
    name: str
    quick: bool
    run: Callable[[], str]


CRITERIA: tuple[Criterion, ...] = (
    Criterion("severi-cogenus1-closed-form", True, check_severi_cogenus1),
    Criterion("ngraph-worked-example", True, check_worked_example_count),
    Criterion("node-polynomials-2-3", True, check_node_polynomials),
    Criterion("floor-route-d4-cogenus3", True, check_floor_route),
    Criterion("qgraph-three-edge-family", True, check_qgraph_family),
    Criterion("q-dual-route", True, check_dual_route),
    Criterion("qstar-offset-linearity", True, check_linearity),
    Criterion("qdelta-quadratic-in-d", True, check_quadraticity),
    Criterion("qgraph-vanishing-nontemplates", True, check_vanishing),
    Criterion("partition-sum-sparse-vanishing", True, check_partition_sum_vanishing),
    Criterion("pairing-identity-zero", True, check_pairing_identity),
    Criterion("ordering-formula-vs-oracle", True, check_formula_vs_oracle),
    Criterion("exp-log-roundtrip", False, check_exp_log_roundtrip),
    Criterion("ngraph-d-independence", True, check_d_independence),
    Criterion("severi-placements-vs-graph-sum", False, check_placements_vs_graph_sum),
    Criterion("qgraph-fubini-vs-distribution", False, check_fubini_vs_distribution),
)


@dataclass(frozen=True)
class CriterionOutcome:
    name: str
    passed: bool
    detail: str
    seconds: float


def run_criteria(level: str = "full") -> list[CriterionOutcome]:
    """Run the quick subset or the full registry; never raises."""
    if level not in ("quick", "full"):
        raise ValueError("level must be 'quick' or 'full'")
    outcomes = []
    for criterion in CRITERIA:
        if level == "quick" and not criterion.quick:
            continue
        start = time.perf_counter()
        try:
            detail = criterion.run()
            passed = True
        except AssertionError as exc:
            detail = str(exc)
            passed = False
        outcomes.append(
            CriterionOutcome(criterion.name, passed, detail, time.perf_counter() - start)
        )
    return outcomes
