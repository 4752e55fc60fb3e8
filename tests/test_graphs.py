from __future__ import annotations

import copy
import pickle
import random

import pytest
from hypothesis import given, settings

from longedge import (
    EMPTY_GRAPH,
    LongEdgeGraph,
    allowable_profile,
    automorphism_count,
    automorphism_count_with,
    cogenus,
    decompose,
    disjoint_union,
    format_graph_text,
    is_allowable,
    is_offset_template,
    is_template,
    make_edge,
    make_graph,
    multiplicity,
    offset,
    parse_graph_text,
    weight_profile,
)
from conftest import graph_texts, long_edge_graphs, random_graph

GEX = make_graph([(3, 5, 1), (4, 5, 2), (4, 6, 1)])
CYCLOPS = make_graph([(0, 2, 1)])
STUB = make_graph([(0, 1, 2)])


def cyc(k):
    return make_graph([(k, k + 2, 1)])


def stub(k):
    return make_graph([(k, k + 1, 2)])


class TestConstruction:
    def test_empty_graph(self):
        g = make_graph([])
        assert g.n_edges == 0
        assert g == EMPTY_GRAPH

    def test_input_order_irrelevant(self):
        a = make_graph([(3, 5, 1), (4, 5, 2), (4, 6, 1)])
        b = make_graph([(4, 6, 1), (3, 5, 1), (4, 5, 2)])
        assert a == b

    def test_short_edge_rejected(self):
        with pytest.raises(ValueError, match="short edge"):
            make_graph([(2, 3, 1)])

    def test_loop_rejected(self):
        with pytest.raises(ValueError, match="loop"):
            make_graph([(2, 2, 1)])

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            make_graph([(2, 4, 0)])

    def test_negative_vertex_rejected(self):
        with pytest.raises(ValueError, match="negative vertex"):
            make_graph([(-1, 2, 1)])

    def test_backwards_edge_rejected(self):
        with pytest.raises(ValueError, match="left to right"):
            make_graph([(4, 2, 1)])


class TestBasicAttributes:
    def test_cogenus_worked_example(self):
        assert cogenus(GEX) == 3

    def test_cogenus_empty(self):
        assert cogenus(EMPTY_GRAPH) == 0

    def test_cogenus_single_long_edge(self):
        for k in range(0, 5):
            assert cogenus(cyc(k)) == 1

    def test_multiplicity(self):
        assert multiplicity(GEX) == 4
        assert multiplicity(EMPTY_GRAPH) == 1
        assert multiplicity(stub(3)) == 4

    def test_weight_profile_worked_example(self):
        assert weight_profile(GEX) == {3: 1, 4: 4, 5: 1}

    def test_weight_profile_empty(self):
        assert weight_profile(EMPTY_GRAPH) == {}

    def test_weight_profile_single_edge(self):
        assert weight_profile(make_graph([(0, 2, 1)])) == {0: 1, 1: 1}


class TestAllowability:
    def test_worked_example(self):
        assert is_allowable(GEX, 5)
        assert not is_allowable(GEX, 4)
        for d in range(5, 12):
            assert is_allowable(GEX, d)

    def test_stub_window(self):
        for d in range(1, 8):
            for k in range(0, 10):
                assert is_allowable(stub(k), d) == (2 <= k <= d - 1)

    def test_cyclops_window(self):
        for d in range(1, 8):
            for k in range(0, 10):
                assert is_allowable(cyc(k), d) == (1 <= k <= d - 1)

    def test_empty_always_allowable(self):
        for d in range(1, 10):
            assert is_allowable(EMPTY_GRAPH, d)

    def test_profile_is_weight_profile_or_none(self):
        rng = random.Random(13)
        for _ in range(200):
            g = random_graph(rng, 4)
            w = weight_profile(g)
            for d in range(1, 14):
                fits = all(
                    e.end < d + 1 or (e.end == d + 1 and e.weight == 1) for e in g.edges
                ) and all(wi <= i for i, wi in w.items())
                assert allowable_profile(g, d) == (w if fits else None)

    def test_monotone_in_d(self):
        rng = random.Random(11)
        for _ in range(200):
            g = random_graph(rng, 4)
            flags = [is_allowable(g, d) for d in range(1, 21)]
            assert flags == sorted(flags)  # once true, stays true


class TestOffset:
    def test_cyclops_offsets(self):
        for k in range(0, 6):
            assert offset(CYCLOPS, k) == cyc(k)

    def test_identity(self):
        assert offset(GEX, 0) == GEX

    def test_composition(self):
        assert offset(offset(GEX, 2), 3) == offset(GEX, 5)

    def test_invariants_under_offset(self):
        rng = random.Random(7)
        for _ in range(100):
            g = random_graph(rng, 4)
            k = rng.randint(0, 6)
            shifted = offset(g, k)
            assert cogenus(shifted) == cogenus(g)
            assert multiplicity(shifted) == multiplicity(g)
            assert automorphism_count(shifted) == automorphism_count(g)
            assert weight_profile(shifted) == {
                i + k: w for i, w in weight_profile(g).items()
            }

    def test_negative_offset_guard(self):
        with pytest.raises(ValueError, match="below 0"):
            offset(cyc(1), -2)


class TestAutomorphisms:
    def test_two_identical_groups(self):
        # three identical weight-1 edges, two identical weight-2 edges
        g = make_graph([(1, 3, 1)] * 3 + [(4, 5, 2)] * 2)
        assert multiplicity(g) == 16
        assert automorphism_count(g) == 12

    def test_three_edge_template(self):
        g = make_graph([(4, 5, 2), (4, 6, 1), (4, 6, 1)])
        assert automorphism_count(g) == 2
        # parallel pair split into different gaps: no symmetry remains
        dist_split = (4, 4, 5)
        assert automorphism_count_with(g, dist_split) == 1
        dist_together = (4, 5, 5)
        assert automorphism_count_with(g, dist_together) == 2

    def test_all_distinct(self):
        assert automorphism_count(GEX) == 1

    def test_with_distribution_divides(self):
        rng = random.Random(23)
        for _ in range(100):
            g = random_graph(rng, 4)
            dist = tuple(rng.randrange(e.start, e.end) for e in g.edges)
            assert automorphism_count(g) % automorphism_count_with(g, dist) == 0


class TestTemplates:
    def test_cyclops_is_template(self):
        assert is_template(CYCLOPS)
        assert is_template(STUB)

    def test_uncovered_gap_is_not(self):
        assert not is_template(make_graph([(0, 2, 1), (3, 5, 1)]))

    def test_empty_is_not(self):
        assert not is_template(EMPTY_GRAPH)

    def test_must_start_at_zero(self):
        assert not is_template(cyc(2))
        assert is_offset_template(cyc(2))

    def test_offset_template_detection(self):
        assert is_offset_template(GEX)
        assert not is_offset_template(make_graph([(1, 3, 1), (4, 6, 1)]))


class TestDecompose:
    def test_two_parts(self):
        g = make_graph([(2, 4, 1), (5, 6, 2)])
        assert decompose(g) == [(CYCLOPS, 2), (STUB, 5)]

    def test_single_offset_template(self):
        for k in range(0, 5):
            assert decompose(cyc(k)) == [(CYCLOPS, k)]

    def test_worked_example_is_one_template(self):
        # no vertex strictly between 3 and 6 is uncovered
        parts = decompose(GEX)
        assert parts == [(make_graph([(0, 2, 1), (1, 2, 2), (1, 3, 1)]), 3)]

    def test_empty(self):
        assert decompose(EMPTY_GRAPH) == []

    def test_roundtrip_random(self):
        rng = random.Random(42)
        for _ in range(1000):
            g = random_graph(rng, 5)
            parts = decompose(g)
            assert all(is_template(t) for t, _ in parts)
            rebuilt = disjoint_union([offset(t, k) for t, k in parts])
            assert rebuilt == g
            offsets = [k for _, k in parts]
            ends = [k + t.right_end for t, k in parts]
            assert offsets == sorted(offsets)
            assert all(e <= k for e, k in zip(ends, offsets[1:]))


class TestDisjointUnion:
    def test_identity_element(self):
        assert disjoint_union([EMPTY_GRAPH, GEX]) == GEX

    def test_multiset_semantics(self):
        g = disjoint_union([cyc(1), cyc(1)])
        assert g.n_edges == 2
        assert cogenus(g) == 2

    def test_additivity(self):
        g = disjoint_union([cyc(1), stub(4)])
        assert cogenus(g) == 2
        assert multiplicity(g) == 4

    def test_attribute_laws_random(self):
        rng = random.Random(5)
        for _ in range(100):
            a, b = random_graph(rng, 3), random_graph(rng, 3)
            u = disjoint_union([a, b])
            assert cogenus(u) == cogenus(a) + cogenus(b)
            assert multiplicity(u) == multiplicity(a) * multiplicity(b)
            if not set(a.edges) & set(b.edges):
                assert automorphism_count(u) == automorphism_count(a) * automorphism_count(b)

    def test_edge_count_bounded_by_cogenus(self):
        rng = random.Random(13)
        for _ in range(200):
            g = random_graph(rng, 5)
            assert g.n_edges <= cogenus(g)


class TestTextFormat:
    def test_roundtrip(self):
        assert parse_graph_text(format_graph_text(GEX)) == GEX

    def test_comments_and_blanks(self):
        text = "# comment\n\n3 5 1\n4 5 2\n# another\n4 6 1\n"
        assert parse_graph_text(text) == GEX

    def test_empty_file(self):
        assert parse_graph_text("") == EMPTY_GRAPH

    def test_error_carries_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_graph_text("3 5 1\n4 5\n")
        with pytest.raises(ValueError, match="line 3"):
            parse_graph_text("3 5 1\n4 5 2\nx y z\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_graph_text("1 2 1\n")

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(graph_texts())
    def test_malformed_text_raises_only_value_error(self, text):
        try:
            g = parse_graph_text(text)
        except ValueError:
            return
        assert parse_graph_text(format_graph_text(g)) == g


def _triples(g):
    return tuple((e.start, e.end, e.weight) for e in g.edges)


class TestValueTypes:
    """Edges and graphs behave as the frozen, ordered value types they
    have always been: equality, hash and order by the edge triples."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(long_edge_graphs(), long_edge_graphs())
    def test_equality_hash_order_follow_edge_triples(self, g, h):
        for x in (g, h):
            assert hash(x) == hash((_triples(x),))
            for e in x.edges:
                assert hash(e) == hash((e.start, e.end, e.weight))
        assert (g == h) == (_triples(g) == _triples(h))
        assert (g != h) == (_triples(g) != _triples(h))
        assert (g < h) == (_triples(g) < _triples(h))
        assert (g <= h) == (_triples(g) <= _triples(h))
        assert (g > h) == (_triples(g) > _triples(h))
        assert (g >= h) == (_triples(g) >= _triples(h))
        assert (g.edges < h.edges) == (_triples(g) < _triples(h))
        assert g == make_graph(_triples(g)) and hash(g) == hash(make_graph(_triples(g)))

    def test_repr(self):
        assert repr(make_edge(0, 2, 1)) == "Edge(start=0, end=2, weight=1)"
        assert repr(CYCLOPS) == "LongEdgeGraph(edges=(Edge(start=0, end=2, weight=1),))"
        assert repr(EMPTY_GRAPH) == "LongEdgeGraph(edges=())"

    def test_fields_cannot_be_assigned(self):
        edge = GEX.edges[0]
        with pytest.raises(AttributeError):
            edge.start = 7
        with pytest.raises(AttributeError):
            GEX.edges = ()
        with pytest.raises(AttributeError):
            del GEX.edges
        with pytest.raises(AttributeError):
            GEX.extra = 1
        assert _triples(GEX) == ((3, 5, 1), (4, 5, 2), (4, 6, 1))

    @pytest.mark.parametrize("g", [EMPTY_GRAPH, CYCLOPS, GEX], ids=["empty", "cyclops", "gex"])
    def test_pickle_and_deepcopy_round_trip(self, g):
        for twin in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g), copy.copy(g)):
            assert type(twin) is LongEdgeGraph
            assert twin == g and hash(twin) == hash(g)
            assert repr(twin) == repr(g)

    def test_graph_never_equals_a_tuple(self):
        for g in (EMPTY_GRAPH, CYCLOPS, GEX):
            assert g != g.edges and g.edges != g
            assert g != tuple(g) and g != _triples(g)
            assert g != (g.edges,)
        with pytest.raises(TypeError):
            GEX < GEX.edges
