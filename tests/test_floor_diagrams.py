from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from longedge import (
    EMPTY_GRAPH,
    cogenus,
    enumerate_floor_diagrams,
    enumerate_graphs,
    fd_cogenus,
    fd_multiplicity,
    fmcount,
    format_diagram_text,
    from_long_edge,
    make_diagram,
    make_graph,
    marking_count,
    multiplicity,
    n_graph,
    parse_diagram_text,
    restored_long_edge,
    severi_degree,
    to_long_edge,
)
from longedge.floor_diagrams import DiagramEdge, FloorDiagram, divergences
from conftest import diagram_texts, random_graph


def cyc(k):
    return make_graph([(k, k + 2, 1)])


def allowable_shift(g):
    """Translate rightward until the gap-weight bounds hold and the left
    end is at least 1 (every graph has such a translation)."""
    from longedge import offset, weight_profile

    shift = max([1 - g.left_end] + [w - i for i, w in weight_profile(g).items()])
    return offset(g, max(shift, 0))


GEX = make_graph([(3, 5, 1), (4, 5, 2), (4, 6, 1)])


class TestConstruction:
    def test_divergence_bound_enforced(self):
        with pytest.raises(ValueError, match="divergence"):
            make_diagram(2, [(1, 2, 2)])
        with pytest.raises(ValueError, match="divergence"):
            make_diagram(3, [(2, 3, 2)])

    def test_edge_validation(self):
        with pytest.raises(ValueError, match="source < target"):
            make_diagram(3, [(2, 2, 1)])
        with pytest.raises(ValueError, match="source < target"):
            make_diagram(3, [(1, 4, 1)])
        with pytest.raises(ValueError, match="weight"):
            make_diagram(3, [(1, 2, 0)])

    def test_divergences(self):
        d = make_diagram(3, [(1, 2, 1), (2, 3, 2)])
        assert divergences(d) == {1: 1, 2: 1, 3: -2}


class TestFromLongEdge:
    def test_empty_graph_d2(self):
        d = from_long_edge(EMPTY_GRAPH, 2)
        assert d.edges == (DiagramEdge(1, 2, 1),)

    def test_cyclops_at_its_top_offset(self):
        # the long edge touches vertex d+1 and is erased; no shorts remain
        d = from_long_edge(cyc(1), 2)
        assert d.edges == ()

    def test_worked_example(self):
        d = from_long_edge(GEX, 5)
        non_short = [
            e for e in d.edges if not (e.target - e.source == 1 and e.weight == 1)
        ]
        assert non_short == [DiagramEdge(3, 5, 1), DiagramEdge(4, 5, 2)]

    def test_rejects_non_allowable(self):
        with pytest.raises(ValueError, match="allowable"):
            from_long_edge(GEX, 4)


class TestToLongEdge:
    def test_single_short_edge(self):
        assert to_long_edge(make_diagram(2, [(1, 2, 1)])) == EMPTY_GRAPH

    def test_keeps_long_edges_only(self):
        # built directly: dropping short edges is purely mechanical and
        # does not require the divergence invariant
        d = FloorDiagram(
            3, (DiagramEdge(1, 3, 1), DiagramEdge(2, 3, 1), DiagramEdge(2, 3, 1))
        )
        assert to_long_edge(d) == cyc(1)

    def test_roundtrip_when_span_clear_of_top(self):
        rng = random.Random(83)
        for _ in range(100):
            g = allowable_shift(random_graph(rng, 3))
            d = g.right_end + rng.randint(1, 3)
            assert to_long_edge(from_long_edge(g, d)) == g

    def test_multiplicity_consistency(self):
        rng = random.Random(89)
        for _ in range(100):
            g = allowable_shift(random_graph(rng, 3))
            d = g.right_end + 1
            diagram = from_long_edge(g, d)
            assert fd_multiplicity(diagram) == multiplicity(to_long_edge(diagram))


class TestRestoredGraph:
    def test_erased_edge_comes_back(self):
        # image of an offset two-gap edge whose top touched d+1
        diagram = make_diagram(3, [(1, 2, 1), (2, 3, 1)])
        assert restored_long_edge(diagram) == cyc(2)

    def test_empty_diagram_of_degree_two(self):
        diagram = make_diagram(2, [])
        assert restored_long_edge(diagram) == cyc(1)

    def test_restoration_fixes_divergence(self):
        for diagram in enumerate_floor_diagrams(4, 2):
            g = restored_long_edge(diagram)
            triples = [(e.start, e.end, e.weight) for e in g.edges]
            # add the short edges implied over each gap; divergence must be 1
            profile = {}
            for s, e, w in triples:
                for i in range(s, e):
                    profile[i] = profile.get(i, 0) + w
            for i in range(1, diagram.degree + 1):
                triples.extend([(i, i + 1, 1)] * (i - profile.get(i, 0)))
            div = {v: 0 for v in range(1, diagram.degree + 2)}
            for s, e, w in triples:
                div[s] = div.get(s, 0) + w
                div[e] = div.get(e, 0) - w
            assert all(div[v] == 1 for v in range(1, diagram.degree + 1))
            assert div[diagram.degree + 1] == -diagram.degree


class TestCogenus:
    def test_single_vertex(self):
        assert fd_cogenus(make_diagram(1, [])) == 0

    def test_one_edge_degree_two(self):
        assert fd_cogenus(make_diagram(2, [(1, 2, 1)])) == 0

    def test_isolated_vertices_cross_terms(self):
        assert fd_cogenus(make_diagram(2, [])) == 1
        assert fd_cogenus(make_diagram(3, [])) == 3

    def test_compatible_with_graph_cogenus(self):
        d = 4
        for delta in (1, 2, 3):
            for g in enumerate_graphs(delta, d):
                if g.is_empty or g.left_end < 1 or g.right_end > d:
                    continue
                assert fd_cogenus(from_long_edge(g, d)) == cogenus(g)

    def test_malformed_component_rejected(self):
        # two parallel edges between two floors: genus 1 exceeds the cap
        bad = FloorDiagram(2, (DiagramEdge(1, 2, 1), DiagramEdge(1, 2, 1)))
        with pytest.raises(ValueError, match="malformed"):
            fd_cogenus(bad)


class TestMarkings:
    def test_single_short_edge(self):
        assert marking_count(make_diagram(2, [(1, 2, 1)])) == 1

    def test_cyclops_image(self):
        diagram = from_long_edge(cyc(1), 3)
        assert fd_multiplicity(diagram) * marking_count(diagram) == 3

    def test_degree_three_cogenus_one_total(self):
        total = sum(
            fd_multiplicity(d) * marking_count(d)
            for d in enumerate_floor_diagrams(3, 1)
        )
        assert total == 12

    def test_erased_edges_still_counted(self):
        # diagram whose long edge was erased at the top: count comes from
        # the restored graph, not from the stored edges alone
        diagram = make_diagram(3, [(1, 2, 1), (2, 3, 1)])
        assert marking_count(diagram) == 5
        assert fd_multiplicity(diagram) * marking_count(diagram) == n_graph(cyc(2), 3)


class TestEnumeration:
    def test_degree_three_cogenus_one(self):
        diagrams = enumerate_floor_diagrams(3, 1)
        assert len(diagrams) == 3
        images = {from_long_edge(g, 3) for g in enumerate_graphs(1, 3)}
        assert set(diagrams) == images

    def test_single_vertex(self):
        assert len(enumerate_floor_diagrams(1, 0)) == 1

    def test_degree_two_total(self):
        total = sum(
            fd_multiplicity(d) * marking_count(d)
            for d in enumerate_floor_diagrams(2, 1)
        )
        assert total == 3

    def test_divergence_bound_everywhere(self):
        for delta in (0, 1, 2):
            for diagram in enumerate_floor_diagrams(4, delta):
                assert all(v <= 1 for v in divergences(diagram).values())

    def test_bijection_with_allowable_graphs(self):
        for d in (3, 4):
            for delta in (0, 1, 2, 3):
                diagrams = set(enumerate_floor_diagrams(d, delta))
                images = {from_long_edge(g, d) for g in enumerate_graphs(delta, d)}
                assert diagrams == images

    def test_scale_guard(self):
        with pytest.raises(ValueError, match="guard"):
            enumerate_floor_diagrams(6, 1)
        with pytest.raises(ValueError, match="guard"):
            enumerate_floor_diagrams(4, 4)


class TestFmcount:
    @pytest.mark.parametrize("d,delta", [(2, 1), (3, 1), (4, 1), (3, 2), (4, 2)])
    def test_matches_template_route(self, d, delta):
        assert fmcount(d, delta) == severi_degree(d, delta)

    def test_one_node_quartics(self):
        assert fmcount(4, 1) == 27

    def test_cogenus_zero(self):
        for d in (1, 2, 3, 4, 5):
            assert fmcount(d, 0) == 1

    def test_three_node_quartics(self):
        assert fmcount(4, 3) == 675


class TestTextFormat:
    def test_roundtrip(self):
        diagram = make_diagram(4, [(1, 2, 1), (2, 4, 2), (3, 4, 1)])
        assert parse_diagram_text(format_diagram_text(diagram)) == diagram

    def test_header_required(self):
        with pytest.raises(ValueError, match="header"):
            parse_diagram_text("1 2 1\n")

    def test_bad_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_diagram_text("d=3\n1 2\n")

    def test_huge_degree_header_is_cheap(self, monkeypatch):
        import longedge.floor_diagrams as floor_diagrams

        def forbidden(*args):
            raise AssertionError("walked every vertex of the header degree")

        monkeypatch.setattr(floor_diagrams, "range", forbidden, raising=False)
        diagram = parse_diagram_text("d=1000000000000\n1 2 1\n5 9 1\n")
        assert diagram.degree == 10**12
        assert divergences(diagram) == {1: 1, 2: -1, 5: 1, 9: -1}

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(diagram_texts())
    def test_malformed_text_raises_only_value_error(self, text):
        try:
            diagram = parse_diagram_text(text)
        except ValueError:
            return
        assert parse_diagram_text(format_diagram_text(diagram)) == diagram
