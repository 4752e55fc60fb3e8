from __future__ import annotations

import random

import pytest

from longedge import (
    EMPTY_GRAPH,
    automorphism_count,
    decompose,
    disjoint_union,
    enumerate_distributions,
    is_allowable,
    make_graph,
    multiplicity,
    n_graph,
    n_star,
    offset,
    orderings_oracle,
    severi_degree,
    severi_series,
)
from longedge.templates import placements
from conftest import random_graph

GEX = make_graph([(3, 5, 1), (4, 5, 2), (4, 6, 1)])


def cyc(k):
    return make_graph([(k, k + 2, 1)])


def stub(k):
    return make_graph([(k, k + 1, 2)])


class TestDistributions:
    def test_three_edge_template(self):
        g = make_graph([(4, 5, 2), (4, 6, 1), (4, 6, 1)])
        dists = list(enumerate_distributions(g))
        assert len(dists) == 4
        # collapse by multiset of (edge, gap) pairs: three distinct shapes
        shapes = {tuple(sorted(zip(g.edges, d))) for d in dists}
        assert len(shapes) == 3

    def test_empty(self):
        assert list(enumerate_distributions(EMPTY_GRAPH)) == [()]

    def test_worked_example(self):
        assert len(list(enumerate_distributions(GEX))) == 4


class TestNStar:
    def test_cyclops_by_gap(self):
        for k in range(1, 6):
            d = k + 2
            assert n_star(cyc(k), (k,), d) == k
            assert n_star(cyc(k), (k + 1,), d) == k + 1
            total = sum(n_star(cyc(k), dist, d) for dist in enumerate_distributions(cyc(k)))
            assert total == 2 * k + 1

    def test_stub_forced(self):
        for k in range(2, 7):
            assert n_star(stub(k), (k,), k + 2) == k - 1

    def test_worked_example_distribution(self):
        # first edge in gap 3, the two others in gap 4
        dist_for_sorted_edges = (3, 4, 4)
        assert n_star(GEX, dist_for_sorted_edges, 5) == 6

    def test_not_allowable_is_zero(self):
        assert n_star(GEX, (3, 4, 4), 4) == 0
        assert n_star(cyc(0), (0,), 5) == 0

    def test_positive_when_allowable(self):
        rng = random.Random(31)
        for _ in range(200):
            g = random_graph(rng, 4)
            d = g.right_end + 3
            k = 0
            while not is_allowable(offset(g, k), d + k):
                k += 1
            shifted, dd = offset(g, k), d + k
            for dist in enumerate_distributions(shifted):
                assert n_star(shifted, dist, dd) >= 1


class TestNGraph:
    def test_worked_example(self):
        assert n_graph(GEX, 5) == 148

    def test_empty(self):
        for d in (1, 3, 8):
            assert n_graph(EMPTY_GRAPH, d) == 1

    def test_stub_family(self):
        for d in range(3, 9):
            for k in range(2, d):
                assert n_graph(stub(k), d) == 4 * (k - 1)

    def test_cyclops_family(self):
        for d in range(2, 9):
            for k in range(1, d):
                assert n_graph(cyc(k), d) == 2 * k + 1

    def test_zero_iff_not_allowable(self):
        rng = random.Random(3)
        for _ in range(200):
            g = random_graph(rng, 3)
            for d in range(1, 9):
                assert (n_graph(g, d) == 0) == (not is_allowable(g, d))

    def test_not_allowable_enumerates_no_distribution(self, monkeypatch):
        import longedge.counting as counting

        def forbidden(g):
            raise AssertionError("distributions enumerated for a non-allowable graph")

        monkeypatch.setattr(counting, "enumerate_distributions", forbidden)
        # five long edges of span 30: about 24 million distributions
        wide = make_graph([(0, 30, 1), (1, 31, 1), (2, 32, 1), (3, 33, 1), (4, 34, 1)])
        assert n_graph(wide, 5) == 0
        assert n_graph(GEX, 4) == 0

    def test_multiplicative_over_decomposition(self):
        rng = random.Random(17)
        found = 0
        while found < 200:
            g = random_graph(rng, 4)
            parts = decompose(g)
            if len(parts) < 2:
                continue
            found += 1
            d = g.right_end + 2
            product = 1
            for t, k in parts:
                product *= n_graph(offset(t, k), d)
            assert n_graph(g, d) == product

    def test_alpha_divides_weighted_sum(self):
        rng = random.Random(29)
        for _ in range(200):
            g = random_graph(rng, 4)
            d = g.right_end + cogenus_bound(g)
            total = sum(n_star(g, dist, d) for dist in enumerate_distributions(g))
            assert (multiplicity(g) * total) % automorphism_count(g) == 0

    def test_per_distribution_refinement(self):
        # summing mu/alpha(G, D) * n_star over one representative per
        # distribution shape gives the same count as the labeled route
        from fractions import Fraction

        from longedge import automorphism_count_with, enumerate_templates, offset
        from longedge.templates import min_allowable_offset

        for delta in (1, 2, 3):
            for t in enumerate_templates(delta):
                g = offset(t, min_allowable_offset(t))
                d = g.right_end + 3
                shapes = {}
                for dist in enumerate_distributions(g):
                    shapes.setdefault(tuple(sorted(zip(g.edges, dist))), dist)
                refined = sum(
                    Fraction(multiplicity(g), automorphism_count_with(g, dist))
                    * n_star(g, dist, d)
                    for dist in shapes.values()
                )
                assert refined == n_graph(g, d)


def cogenus_bound(g):
    return 8 + sum(e.weight * (e.end - e.start) for e in g.edges)


class TestSeveriDegree:
    def test_cogenus_one_closed_form(self):
        for d in range(1, 16):
            assert severi_degree(d, 1) == 3 * (d - 1) ** 2

    def test_cogenus_zero(self):
        for d in (1, 5, 11):
            assert severi_degree(d, 0) == 1

    def test_two_nodes_on_quartics(self):
        assert severi_degree(4, 2) == 225

    def test_assembles_no_graph(self, monkeypatch):
        import longedge.templates as templates

        def forbidden(parts):
            raise AssertionError("severi_degree assembled a graph")

        monkeypatch.setattr(templates, "disjoint_union", forbidden)
        assert severi_degree(6, 3) == 41310

    def test_series_holds_every_cogenus(self):
        assert severi_series(4, 3) == [1, 27, 225, 675]
        assert severi_series(7, 0) == [1]
        with pytest.raises(ValueError):
            severi_series(4, -1)

    def test_one_n_graph_call_per_piece(self, monkeypatch):
        import longedge.counting as counting

        calls = []
        real = counting.n_graph

        def counted(g, d):
            calls.append(g)
            return real(g, d)

        monkeypatch.setattr(counting, "n_graph", counted)
        severi_series(9, 5)
        pieces = {piece for v in range(10) for _, piece, _ in placements(5, 9, v)}
        assert len(calls) == len(pieces) == 2235
        assert set(calls) == pieces

    def test_cogenus_two_closed_form_at_large_d(self):
        d = 2000
        assert 2 * severi_degree(d, 2) == 3 * (d - 1) * (d - 2) * (3 * d * d - 3 * d - 11)


class TestOrderingsOracle:
    def test_cyclops(self):
        for k in (1, 2, 3):
            assert orderings_oracle(cyc(k), k + 2) == 2 * k + 1

    def test_worked_example_labeled_total(self):
        assert orderings_oracle(GEX, 5) == 37

    def test_empty(self):
        assert orderings_oracle(EMPTY_GRAPH, 4) == 1

    def test_matches_formula(self):
        rng = random.Random(41)
        checked = 0
        for _ in range(120):
            g = random_graph(rng, 3, max_start=4)
            d = g.right_end + 1
            if not is_allowable(g, d):
                continue
            try:
                oracle = orderings_oracle(g, d, max_tokens=16)
            except ValueError:
                continue  # extension too large for the brute enumeration
            formula = sum(n_star(g, dist, d) for dist in enumerate_distributions(g))
            assert oracle == formula
            checked += 1
        assert checked >= 40

    def test_bound_exceeded_raises(self):
        with pytest.raises(ValueError, match="oracle too large"):
            orderings_oracle(make_graph([(2, 9, 1)]), 9, max_tokens=12)

    def test_union_of_far_apart_parts(self):
        g = disjoint_union([cyc(1), stub(4)])
        d = 6
        formula = sum(n_star(g, dist, d) for dist in enumerate_distributions(g))
        assert orderings_oracle(g, d, max_tokens=16) == formula == n_graph(g, d) // 4


class TestDIndependence:
    def test_worked_example(self):
        values = {n_graph(GEX, d) for d in range(5, 12)}
        assert values == {148}

    def test_families(self):
        for k in (1, 2, 3):
            assert len({n_graph(cyc(k), d) for d in range(k + 1, k + 8)}) == 1
