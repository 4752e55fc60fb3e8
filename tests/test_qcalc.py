from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest

from longedge import (
    EMPTY_GRAPH,
    automorphism_count,
    automorphism_count_with,
    chromatic_derivative_at_zero,
    chromatic_polynomial,
    disjoint_union,
    enumerate_distributions,
    enumerate_templates,
    exp_recover_n,
    is_offset_template,
    make_graph,
    make_simple_graph,
    min_allowable_offset,
    multiplicity,
    n_star,
    offset,
    pair_identity,
    q_delta_log,
    q_delta_templates,
    q_graph,
    q_star,
    severi_degree,
    sigma,
)
import longedge.qcalc as qcalc
from longedge.acceptance import q_graph_by_distribution
from conftest import random_graph

# weight-2 stub under two parallel weight-1 edges, at offset k
def three_edge(k):
    return make_graph([(k, k + 1, 2), (k, k + 2, 1), (k, k + 2, 1)])


def set_partitions(n):
    """Reference enumeration: every partition of {0, ..., n-1} into
    nonempty blocks, each once, blocks ordered by smallest element."""

    def rec(i, blocks):
        if i == n:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def literal_partition_sum(n, value):
    """Reference: (-1)^(p-1) (p-1)! times the product of the p block
    values, added over every set partition; 0 for n = 0."""
    if n == 0:
        return 0
    total = 0
    for partition in set_partitions(n):
        p = len(partition)
        term = (-1) ** (p - 1) * factorial(p - 1)
        for block in partition:
            term *= value(block)
        total += term
    return total


class TestSetPartitions:
    @pytest.mark.parametrize("n,bell", [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52)])
    def test_bell_numbers(self, n, bell):
        parts = list(set_partitions(n))
        assert len(parts) == bell
        assert len(set(parts)) == bell
        for partition in parts:
            flat = sorted(x for block in partition for x in block)
            assert flat == list(range(n))

    def test_guard(self):
        def forbidden(block):
            raise AssertionError("a block was evaluated")

        with pytest.raises(ValueError, match="guarded at n <= 12, got 13"):
            qcalc._partition_sum(13, forbidden)


class TestPartitionSum:
    @pytest.mark.parametrize("n", range(9))
    def test_equals_literal_sum(self, n):
        rng = random.Random(1000 + n)
        for _ in range(3):
            table = {
                block: rng.choice([0, 0, 0, 1, -1, 2, 5, -7])
                for size in range(1, n + 1)
                for block in combinations(range(n), size)
            }
            assert qcalc._partition_sum(n, table.__getitem__) == (
                literal_partition_sum(n, table.__getitem__)
            )

    def test_each_block_at_most_once(self):
        seen = []

        def value(block):
            assert block == tuple(sorted(block))
            seen.append(block)
            return len(block) + 1

        total = qcalc._partition_sum(6, value)
        assert total == literal_partition_sum(6, lambda b: len(b) + 1)
        assert len(seen) == len(set(seen)) == 2**6 - 1

    def test_empty_graph_has_no_log_term(self):
        assert qcalc._partition_sum(0, lambda block: 1) == 0
        for d in (1, 4):
            assert q_graph(EMPTY_GRAPH, d) == 0
            assert q_star(EMPTY_GRAPH, (), d) == 0


class TestQStar:
    def test_three_edge_distributions(self):
        # the three distribution shapes give 2k+2, 6k-2, 6k-6
        for k in (4, 5, 6, 7):
            d = k + 2
            g = three_edge(k)
            # edges sorted: (k,k+1,2), (k,k+2,1), (k,k+2,1)
            both_right = (k, k + 1, k + 1)
            split = (k, k, k + 1)
            both_left = (k, k, k)
            assert q_star(g, both_right, d) == 2 * k + 2
            assert q_star(g, split, d) == 6 * k - 2
            assert q_star(g, both_left, d) == 6 * k - 6

    def test_single_edge_equals_n_star(self):
        rng = random.Random(19)
        for _ in range(50):
            k = rng.randint(1, 6)
            g = make_graph([(k, k + 2, 1)])
            d = k + 2
            for dist in enumerate_distributions(g):
                assert q_star(g, dist, d) == n_star(g, dist, d)


class TestQGraph:
    def test_three_edge_family(self):
        assert q_graph(three_edge(0), 2) == 0
        assert q_graph(three_edge(1), 3) == 0
        assert q_graph(three_edge(2), 4) == 76
        assert q_graph(three_edge(3), 5) == 104
        for k in range(4, 9):
            assert q_graph(three_edge(k), k + 2) == 40 * k - 16

    def test_value_stable_in_d(self):
        for d in range(5, 10):
            assert q_graph(three_edge(4), d) == 144

    def test_cyclops_single_partition(self):
        for d in range(3, 8):
            for k in range(1, d):
                assert q_graph(make_graph([(k, k + 2, 1)]), d) == 2 * k + 1

    def test_linear_in_offset(self):
        for delta in (1, 2):
            for t in enumerate_templates(delta):
                k0 = min_allowable_offset(t)
                d = k0 + 5 + t.right_end + 1
                values = [q_graph(offset(t, k), d) for k in range(k0, k0 + 6)]
                first = [b - a for a, b in zip(values, values[1:])]
                second = [b - a for a, b in zip(first, first[1:])]
                assert all(x == 0 for x in second)

    def test_one_partition_sum_per_graph(self, monkeypatch):
        calls = []
        real = qcalc._partition_sum

        def counted(n, value):
            calls.append(n)
            return real(n, value)

        monkeypatch.setattr(qcalc, "_partition_sum", counted)
        g = three_edge(4)
        assert len(list(enumerate_distributions(g))) == 4
        assert q_graph(g, 6) == 144
        assert calls == [3]

    def test_unfit_edge_enumerates_no_distribution(self, monkeypatch):
        def forbidden(g, d):
            raise AssertionError("block counted with an unfit edge")

        monkeypatch.setattr(qcalc, "labeled_count", forbidden)
        # five long edges of span 30, none fitting d = 5: 24 million distributions
        wide = make_graph([(0, 30, 1), (1, 31, 1), (2, 32, 1), (3, 33, 1), (4, 34, 1)])
        assert q_graph(wide, 5) == 0
        # one unfit weight-2 stub beside an edge that fits
        g = make_graph([(0, 1, 2), (3, 5, 1)])
        assert q_graph(g, 6) == q_graph_by_distribution(g, 6) == 0

    def test_per_distribution_sum_on_unions(self):
        rng = random.Random(53)
        for _ in range(40):
            g = disjoint_union([random_graph(rng, 2), random_graph(rng, 1)])
            d = g.right_end + 2
            assert q_graph(g, d) == q_graph_by_distribution(g, d)

    def test_refinement_consistency(self):
        # labeled sum scaled by mu/alpha(G) equals the unlabeled sum weighted
        # by mu/alpha(G, D) over one representative per distribution shape
        for delta in (1, 2, 3):
            for t in enumerate_templates(delta):
                g = offset(t, min_allowable_offset(t))
                d = g.right_end + 3
                shapes = {}
                for dist in enumerate_distributions(g):
                    shapes.setdefault(tuple(sorted(zip(g.edges, dist))), dist)
                unlabeled = sum(
                    Fraction(multiplicity(g), automorphism_count_with(g, dist))
                    * q_star(g, dist, d)
                    for dist in shapes.values()
                )
                assert q_graph(g, d) == unlabeled


class TestVanishing:
    def test_two_part_unions_vanish(self):
        pairs = [(1, 1), (1, 2)]
        seen = set()
        for da, db in pairs:
            for ta in enumerate_templates(da):
                for tb in enumerate_templates(db):
                    for ka in range(0, 4):
                        for kb in range(0, 4):
                            g = disjoint_union([offset(ta, ka), offset(tb, kb)])
                            if is_offset_template(g) or g in seen:
                                continue
                            seen.add(g)
                            for d in (2, 5, 9):
                                assert q_graph(g, d) == 0

    def test_random_non_templates_vanish(self):
        rng = random.Random(61)
        checked = 0
        while checked < 60:
            g = random_graph(rng, 4)
            if is_offset_template(g):
                continue
            checked += 1
            d = rng.randint(1, 10)
            assert q_graph(g, d) == 0


class TestQDeltaRoutes:
    def test_cogenus_one_both_routes(self):
        for d in range(1, 9):
            expected = 3 * (d - 1) ** 2
            assert q_delta_templates(d, 1) == expected
            assert q_delta_log(d, 1) == expected

    def test_value_4_2(self):
        # independent evaluation from the classical counts 27 and 225
        expected = Fraction(225) - Fraction(27**2, 2)
        assert expected == Fraction(-279, 2)
        assert q_delta_templates(4, 2) == expected
        assert q_delta_log(4, 2) == expected

    def test_routes_agree(self):
        for delta in (1, 2, 3):
            for d in range(1, 9):
                assert q_delta_templates(d, delta) == q_delta_log(d, delta)

    def test_quadratic_tail_cogenus_two(self):
        values = [q_delta_templates(d, 2) for d in range(6, 11)]
        third = [
            values[i + 3] - 3 * values[i + 2] + 3 * values[i + 1] - values[i]
            for i in range(len(values) - 3)
        ]
        assert all(x == 0 for x in third)

    def test_log_route_walks_one_series(self, monkeypatch):
        calls = []
        real = qcalc.severi_series

        def counted(d, delta):
            calls.append((d, delta))
            return real(d, delta)

        monkeypatch.setattr(qcalc, "severi_series", counted)
        assert q_delta_log(8, 4) == q_delta_templates(8, 4)
        assert calls == [(8, 4)]

    def test_guard(self):
        with pytest.raises(ValueError):
            q_delta_templates(4, 0)
        with pytest.raises(ValueError):
            q_delta_log(4, 0)


class TestExpRecover:
    def test_delta_zero(self):
        assert exp_recover_n(7, 0, {}) == 1

    def test_delta_one(self):
        for d in (2, 5, 9):
            q1 = q_delta_log(d, 1)
            assert exp_recover_n(d, 1, {1: q1}) == 3 * (d - 1) ** 2

    def test_three_node_quartic_value(self):
        q_table = {dd: q_delta_log(4, dd) for dd in (1, 2, 3)}
        assert exp_recover_n(4, 3, q_table) == 675
        assert exp_recover_n(4, 3, q_table) == severi_degree(4, 3)

    def test_template_route_table(self):
        for d in (3, 5, 7):
            q_table = {dd: q_delta_templates(d, dd) for dd in (1, 2, 3)}
            for delta in (1, 2, 3):
                assert exp_recover_n(d, delta, q_table) == severi_degree(d, delta)

    def test_missing_entry(self):
        with pytest.raises(ValueError, match="missing"):
            exp_recover_n(4, 2, {1: Fraction(27)})

    def test_non_integer_result(self):
        with pytest.raises(RuntimeError, match="invariant"):
            exp_recover_n(4, 2, {1: Fraction(1, 3), 2: Fraction(0)})


class TestSigma:
    def test_small_cases(self):
        assert sigma(make_simple_graph(1, [])) == 1
        assert sigma(make_simple_graph(2, [(0, 1)])) == -1
        assert sigma(make_simple_graph(3, [(0, 1)])) == 0

    def test_loop_kills(self):
        assert sigma(make_simple_graph(3, [(1, 1)])) == 0

    def test_sparse_graphs_vanish(self):
        for n in range(2, 6):
            pairs = list(combinations(range(n), 2))
            for count in range(0, n - 1):
                for edges in combinations(pairs, count):
                    assert sigma(make_simple_graph(n, edges)) == 0

    def test_guard(self):
        with pytest.raises(ValueError, match="guard"):
            sigma(make_simple_graph(13, []))


class TestChromatic:
    def test_single_vertex(self):
        h = make_simple_graph(1, [])
        assert chromatic_polynomial(h) == [0, 1]
        assert chromatic_derivative_at_zero(h) == 1

    def test_one_edge(self):
        h = make_simple_graph(2, [(0, 1)])
        assert chromatic_polynomial(h) == [0, -1, 1]  # p(p-1)
        assert chromatic_derivative_at_zero(h) == -1

    def test_disconnected_derivative_zero(self):
        h = make_simple_graph(4, [(0, 1), (2, 3)])
        assert chromatic_derivative_at_zero(h) == 0

    def test_loop_gives_zero_polynomial(self):
        h = make_simple_graph(2, [(0, 0), (0, 1)])
        assert chromatic_polynomial(h) == [0]

    def test_triangle(self):
        h = make_simple_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert chromatic_polynomial(h) == [0, 2, -3, 1]  # p(p-1)(p-2)

    def test_matches_sigma_random(self):
        rng = random.Random(71)
        for _ in range(100):
            n = rng.randint(2, 7)
            pairs = list(combinations(range(n), 2))
            edges = [p for p in pairs if rng.random() < 0.4]
            h = make_simple_graph(n, edges)
            assert sigma(h) == chromatic_derivative_at_zero(h)


class TestPairIdentity:
    def test_tiny(self):
        assert pair_identity(1, 1) == 0

    @pytest.mark.parametrize("a,b", [(2, 3), (8, 8), (5, 2), (1, 7)])
    def test_vanishes(self, a, b):
        assert pair_identity(a, b) == 0

    def test_range_guard(self):
        with pytest.raises(ValueError):
            pair_identity(0, 3)
        with pytest.raises(ValueError):
            pair_identity(3, 21)
