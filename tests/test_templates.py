from __future__ import annotations

from math import factorial

import pytest
from hypothesis import given, settings

from longedge import (
    EMPTY_GRAPH,
    allowable_offsets,
    cogenus,
    decompose,
    disjoint_union,
    enumerate_graphs,
    enumerate_templates,
    is_allowable,
    is_template,
    make_graph,
    min_allowable_offset,
    n_graph,
    n_star,
    offset,
    placements,
)
from longedge.counting import enumerate_distributions

from conftest import long_edge_graphs

CYCLOPS = make_graph([(0, 2, 1)])
STUB = make_graph([(0, 1, 2)])

# frozen by the generate-and-filter oracle below (1..5) and by the former
# generate-and-filter catalog (6..8)
EXPECTED_TEMPLATE_COUNTS = {1: 2, 2: 7, 3: 26, 4: 102, 5: 414, 6: 1711, 7: 7135, 8: 29913}


def brute_force_edge_multisets(max_end, target_cogenus):
    """Independent oracle: every edge multiset in the box [0, max_end] with
    the given total cogenus, via plain nondecreasing DFS over raw triples."""
    pool = []
    for s in range(0, max_end):
        for e in range(s + 1, max_end + 1):
            for w in range(1, target_cogenus + 2):
                if 1 <= (e - s) * w - 1 <= target_cogenus:
                    pool.append((s, e, w))
    found = []

    def rec(idx, remaining, acc):
        if remaining == 0:
            if acc:
                found.append(tuple(acc))
            return
        for i in range(idx, len(pool)):
            c = (pool[i][1] - pool[i][0]) * pool[i][2] - 1
            if c <= remaining:
                acc.append(pool[i])
                rec(i, remaining - c, acc)
                acc.pop()

    rec(0, target_cogenus, [])
    return found


def brute_force_templates(delta):
    out = set()
    for ms in brute_force_edge_multisets(delta + 1, delta):
        if min(s for s, _, _ in ms) != 0:
            continue
        right = max(e for _, e, _ in ms)
        if all(any(s < v < e for s, e, _ in ms) for v in range(1, right)):
            out.add(make_graph(ms))
    return out


class TestEnumerateTemplates:
    def test_cogenus_one_exactly_two(self):
        catalog = enumerate_templates(1)
        assert set(catalog) == {CYCLOPS, STUB}

    def test_cogenus_zero_empty(self):
        assert len(enumerate_templates(0)) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            enumerate_templates(-1)

    @pytest.mark.parametrize("delta", sorted(EXPECTED_TEMPLATE_COUNTS))
    def test_counts_match_oracle(self, delta):
        catalog = enumerate_templates(delta)
        assert len(catalog) == EXPECTED_TEMPLATE_COUNTS[delta]
        if delta <= 5:
            assert set(catalog) == brute_force_templates(delta)

    @pytest.mark.parametrize("delta", [1, 2, 3, 4, 5])
    def test_catalog_entries_are_templates(self, delta):
        catalog = enumerate_templates(delta)
        # strictly sorted: no duplicates, and the order `templates` prints
        assert all(a < b for a, b in zip(catalog, catalog[1:]))
        for t in catalog:
            assert is_template(t)
            assert cogenus(t) == delta
            assert t.right_end <= delta + 1
            assert t.n_edges <= delta


class TestOffsetWindows:
    def test_min_allowable_offset(self):
        assert min_allowable_offset(CYCLOPS) == 1
        assert min_allowable_offset(STUB) == 2
        three_edge = make_graph([(0, 1, 2), (0, 2, 1), (0, 2, 1)])
        assert min_allowable_offset(three_edge) == 4

    def test_cyclops_window(self):
        for d in range(2, 9):
            assert allowable_offsets(CYCLOPS, d) == range(1, d)

    def test_stub_window_excludes_top(self):
        # the weight-2 edge may not touch vertex d+1
        for d in range(3, 9):
            assert allowable_offsets(STUB, d) == range(2, d)

    def test_empty_window(self):
        assert len(allowable_offsets(CYCLOPS, 1)) == 0

    def test_window_matches_is_allowable(self):
        for delta in (1, 2, 3):
            for t in enumerate_templates(delta):
                for d in range(1, 9):
                    window = set(allowable_offsets(t, d))
                    brute = {k for k in range(0, 12) if is_allowable(offset(t, k), d)}
                    assert window == brute

    def test_window_grows_by_one(self):
        for delta in (1, 2, 3):
            for t in enumerate_templates(delta):
                for d in range(8, 12):
                    assert (
                        len(allowable_offsets(t, d + 1))
                        - len(allowable_offsets(t, d))
                        == 1
                    )


class TestPlacements:
    @pytest.mark.parametrize("delta", [1, 2, 3, 4])
    def test_pieces_start_at_v(self, delta):
        for d in range(1, 9):
            seen = set()
            for v in range(0, d + 2):
                for c, piece, nxt in placements(delta, d, v):
                    assert piece.left_end == v
                    assert nxt == piece.right_end
                    assert cogenus(piece) == c
                    seen.add(piece)
            every = {
                offset(t, k)
                for c in range(1, delta + 1)
                for t in enumerate_templates(c)
                for k in allowable_offsets(t, d)
            }
            assert seen == every


class TestEnumerateGraphs:
    def test_cogenus_one_d3(self):
        got = set(enumerate_graphs(1, 3))
        expected = {
            make_graph([(1, 3, 1)]),
            make_graph([(2, 4, 1)]),
            make_graph([(2, 3, 2)]),
        }
        assert got == expected

    def test_cogenus_zero(self):
        for d in (1, 4, 9):
            assert list(enumerate_graphs(0, d)) == [EMPTY_GRAPH]

    def test_count_matches_oracle_2_4(self):
        got = list(enumerate_graphs(2, 4))
        assert len(got) == 13  # frozen from the generate-and-filter oracle
        assert len(set(got)) == 13

    @pytest.mark.parametrize("delta,d", [(1, 3), (1, 6), (2, 4), (2, 6), (3, 4), (3, 6)])
    def test_completeness_against_brute_force(self, delta, d):
        brute = {
            make_graph(ms)
            for ms in brute_force_edge_multisets(d + 1, delta)
            if is_allowable(make_graph(ms), d)
        }
        assert set(enumerate_graphs(delta, d)) == brute

    def test_all_results_allowable_and_deterministic(self):
        first = list(enumerate_graphs(3, 5))
        second = list(enumerate_graphs(3, 5))
        assert first == second
        for g in first:
            assert is_allowable(g, 5)
            assert cogenus(g) == 3

    def test_parts_come_from_catalogs(self):
        for g in enumerate_graphs(3, 5):
            for part, _ in decompose(g):
                assert part in set(enumerate_templates(cogenus(part)))


class TestDecompositionProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(long_edge_graphs(), long_edge_graphs())
    def test_unique_split_into_catalog_templates(self, g, h):
        for graph in (g, disjoint_union([g, offset(h, g.right_end)])):
            parts = decompose(graph)
            assert disjoint_union(offset(t, k) for t, k in parts) == graph
            for t, _ in parts:
                assert t in enumerate_templates(cogenus(t))
            d = graph.right_end + 2
            product = 1
            for t, k in parts:
                product *= n_graph(offset(t, k), d)
            assert n_graph(graph, d) == product


class TestOffsetPolynomialShape:
    @pytest.mark.parametrize("delta", [1, 2])
    def test_labeled_count_is_monic_in_offset(self, delta):
        # over consecutive large offsets, the n-th difference of the labeled
        # count equals n! and the (n+1)-st vanishes: monic of degree n_edges
        for t in enumerate_templates(delta):
            n = t.n_edges
            base = min_allowable_offset(t) + 2
            ks = range(base, base + n + 2)
            d = ks[-1] + t.right_end + 1
            for dist in enumerate_distributions(t):
                values = [
                    n_star(offset(t, k), tuple(g + k for g in dist), d) for k in ks
                ]
                for _ in range(n):
                    values = [b - a for a, b in zip(values, values[1:])]
                assert all(v == factorial(n) for v in values)
                values = [b - a for a, b in zip(values, values[1:])]
                assert all(v == 0 for v in values)
