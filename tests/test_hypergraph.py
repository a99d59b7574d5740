import random
from itertools import combinations

import pytest

from coverramsey import (BadEvent, BergeCertificate, BoundReport,
                         EdgeColoring, Hypergraph, LowerBoundCertificate,
                         MTRun, ProductReduction, ResolvableDesign,
                         ScatterSample, TraceColoring, UnavoidabilityResult,
                         complete_graph, complete_host, contains_mono_berge,
                         find_berge, format_coloring, format_hypergraph,
                         lower_bound_certificate,
                         minimal_covering_subhypergraph,
                         multicolor_product_reduction, parse_coloring,
                         parse_hypergraph, scan_bad_events, trace_coloring,
                         verify_certificate)

from coverramsey.berge import VerifyResult, parse_target
from coverramsey.designs import DesignReport, DesignViolation

from _oracles import fano, random_hypergraph


# one instance of each of the package's record types, with a field
RECORDS = [
    (EdgeColoring((0, 1, 1)), "colors"),
    (BergeCertificate(((1, 2),), ((0, 3),)), "edge_map"),
    (VerifyResult(False, "COLOR_FAIL"), "ok"),
    (BoundReport("thm1", {"k": 3}, 5), "notes"),
    (ResolvableDesign(3, 3, (((1, 2, 3),),)), "classes"),
    (DesignViolation("PARTITION_FAIL", "class 0"), "detail"),
    (DesignReport(()), "violations"),
    (ScatterSample((1, 2, 4), 1, 0), "subset"),
    (TraceColoring((1, 2), {(1, 2): 0}, {(1, 2): 0}), "pair_color"),
    (ProductReduction(2, 2, 1, {(1, 2): 0}, {(1, 2): (0, 1)}), "n"),
    (UnavoidabilityResult("AVOIDABLE", EdgeColoring((0,)), 1), "verdict"),
    (BadEvent((1, 2), (0,), 1), "color"),
    (MTRun(None, 3, ()), "resamples"),
    (LowerBoundCertificate(3, 3, (2,), 4, "R", "bad-event-scan",
                           "3 3\n1 2\n1 3\n2 3\n", "000\n"), "bound"),
]


class TestShadow:
    def test_single_edge_gives_triangle(self):
        hg = Hypergraph(3, [(1, 2, 3)])
        assert set(hg.pair_edges()) == {(1, 2), (1, 3), (2, 3)}

    def test_fano_shadow_is_k7(self):
        # oracle: check all 21 pairs against the 7 lines directly
        hg = fano()
        expected = {p for p in combinations(range(1, 8), 2)
                    if any(set(p) <= set(line) for line in hg.edges)}
        assert len(expected) == 21
        assert set(hg.pair_edges()) == expected
        assert hg.is_covering()

    def test_no_edges_no_pairs(self):
        hg = Hypergraph(4, [])
        assert set(hg.pair_edges()) == set()
        assert not hg.is_covering()


class TestCovering:
    def test_fano_is_covering(self):
        assert fano().is_covering()

    def test_uncovered_vertex(self):
        hg = Hypergraph(4, [(1, 2, 3)])
        assert not hg.is_covering()

    def test_complete_2_graph(self):
        assert complete_host(5).is_covering()

    def test_equivalences_on_random_instances(self):
        # covering <=> every pair indexed <=> min co-degree >= 1
        rng = random.Random(7)
        for _ in range(200):
            hg = random_hypergraph(rng)
            covering = hg.is_covering()
            assert covering == (set(hg.pair_edges())
                                == set(combinations(range(1, hg.n + 1), 2)))
            assert covering == (hg.min_codegree() >= 1)


class TestCodegree:
    def test_fano_pair(self):
        assert len(fano().pair_edges()[(1, 2)]) == 1

    def test_fano_triple_uncovered(self):
        # the one line through 1 and 2 misses 4
        hg = fano()
        assert [4 in hg.edges[i] for i in hg.pair_edges()[(1, 2)]] == [False]

    def test_k5_pair(self):
        assert len(complete_host(5).pair_edges()[(1, 2)]) == 1

    def test_fano_min_codegree(self):
        assert fano().min_codegree() == 1

    def test_all_fano_pairs_codegree_one(self):
        hg = fano()
        assert all(len(hg.pair_edges()[p]) == 1
                   for p in combinations(range(1, 8), 2))


class TestMinimalCovering:
    def test_k5_already_minimal(self):
        hg = complete_host(5)
        assert minimal_covering_subhypergraph(hg) == hg

    def test_fano_already_minimal(self):
        hg = fano()
        assert minimal_covering_subhypergraph(hg) == hg

    def test_fano_plus_extra_edge_reduces_to_fano(self):
        lines = list(fano().edges) + [(1, 2, 4)]
        hg = Hypergraph(7, lines, uniformity={3})
        assert minimal_covering_subhypergraph(hg) == fano()

    def test_rejects_non_covering(self):
        with pytest.raises(ValueError):
            minimal_covering_subhypergraph(Hypergraph(4, [(1, 2, 3)]))

    def test_minimality_and_bounds_on_random_hosts(self):
        from _oracles import random_covering_hypergraph
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(4, 8)
            hg = random_covering_hypergraph(rng, n, k=3, extra=6)
            sub = minimal_covering_subhypergraph(hg)
            assert sub.is_covering()
            assert set(sub.edges) <= set(hg.edges)
            # every kept edge is the unique cover of some pair
            for i, edge in enumerate(sub.edges):
                assert any(len(sub.pair_edges()[p]) == 1
                           for p in combinations(edge, 2)), edge
            k = sub.max_edge_size
            npairs = n * (n - 1) // 2
            kpairs = k * (k - 1) // 2
            assert npairs / kpairs <= sub.num_edges <= npairs


class TestConstruction:
    def test_canonical_order(self):
        a = Hypergraph(5, [(3, 4, 5), (1, 2, 3)])
        b = Hypergraph(5, [(1, 2, 3), (3, 4, 5)])
        assert a == b
        assert a.edges == ((1, 2, 3), (3, 4, 5))

    def test_uniformity_inferred(self):
        hg = Hypergraph(5, [(1, 2), (1, 2, 3)])
        assert hg.uniformity == frozenset({2, 3})
        assert hg.max_edge_size == 3

    def test_uniformity_may_be_superset(self):
        hg = Hypergraph(5, [(1, 2)], uniformity={2, 3})
        assert hg.max_edge_size == 3

    def test_size_outside_uniformity_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph(5, [(1, 2, 3)], uniformity={2})

    def test_uniformity_below_2_rejected(self):
        with pytest.raises(ValueError) as exc:
            Hypergraph(3, [], uniformity={1})
        assert str(exc.value) == "uniformity set {1} contains sizes < 2"

    def test_singleton_edge_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph(3, [(2,)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph(3, [(1, 2), (2, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph(3, [(1, 4)])

    def test_immutable(self):
        hg = fano()
        with pytest.raises(AttributeError):
            hg.n = 9
        pairs = hg.pair_edges()
        for name in ("n", "edges", "uniformity", "_pair_edges"):
            with pytest.raises(AttributeError, match="immutable"):
                delattr(hg, name)
        assert hg == fano() and hg.pair_edges() is pairs

    @pytest.mark.parametrize("record,field", RECORDS,
                             ids=[type(r).__name__ for r, _ in RECORDS])
    def test_record_types_immutable(self, record, field):
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert getattr(record, field) is value

    def test_edge_coloring_is_a_value(self):
        a, b = EdgeColoring((0, 1, 1)), EdgeColoring([0, 1, 1])
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != EdgeColoring((0, 1, 0)) and a != (0, 1, 1)
        assert repr(a) == "EdgeColoring(colors=(0, 1, 1))"
        assert len(a) == 3 and a.indices_of(1) == (1, 2)

    def test_hypergraph_is_a_value(self):
        a = Hypergraph(7, fano().edges)
        b = Hypergraph(7, reversed(fano().edges))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert repr(a) == "Hypergraph(n=7, m=7, R=[3])"
        assert a != a.edges and a.__eq__(a.edges) is NotImplemented


class TestTextFormat:
    def test_round_trip_fano(self):
        hg = fano()
        assert parse_hypergraph(format_hypergraph(hg)) == hg

    def test_round_trip_random(self):
        rng = random.Random(3)
        for _ in range(50):
            hg = random_hypergraph(rng)
            assert parse_hypergraph(format_hypergraph(hg)) == hg

    def test_comments_ignored(self):
        text = "# a comment\n3 1\n# another\n1 2 3\n"
        assert parse_hypergraph(text) == Hypergraph(3, [(1, 2, 3)])

    def test_trailing_newline_required(self):
        with pytest.raises(ValueError):
            parse_hypergraph("3 1\n1 2 3")

    def test_edge_count_mismatch(self):
        with pytest.raises(ValueError):
            parse_hypergraph("3 2\n1 2 3\n")

    def test_non_ascending_edge_line(self):
        with pytest.raises(ValueError):
            parse_hypergraph("3 1\n2 1 3\n")

    def test_bad_header(self):
        with pytest.raises(ValueError):
            parse_hypergraph("3\n1 2\n")


PARSER_MESSAGES = [
    # (parser, text, expected message); for two faults the earlier wins
    ("host", "3 1\n1 x 3\n", "non-integer entry in line '1 x 3'"),
    ("host", "3 2\n1 2\n1 2 y\n", "non-integer entry in line '1 2 y'"),
    ("host", "3 2\n1 2\n", "expected 2 edge lines, found 1"),
    ("host", "3 2\n1 x\n", "expected 2 edge lines, found 1"),
    ("host", "3 1\n1 2", "hypergraph text must end with a newline"),
    ("host", "3\n1 2\n", "header must be '<n> <m>', got '3'"),
    ("host", "# only a comment\n\n", "empty hypergraph text"),
    ("host", "-1 0\n", "vertex count must be >= 0, got -1"),
    ("host", "3 1\n2\n", "edge (2,) has cardinality < 2"),
    ("host", "3 1\n1 4\n", "edge (1, 4) out of vertex range 1..3"),
    ("host", "3 2\n0 1\n1 2\n", "edge (0, 1) out of vertex range 1..3"),
    ("host", "3 2\n1 2\n1 2\n", "duplicate edge (1, 2)"),
    ("host3", "4 2\n1 2\n1 2 3\n",
     "edge sizes [2] not in uniformity set [3]"),
    ("host3", "4 2\n1 2 3\n1 2\n",
     "edge sizes [2] not in uniformity set [3]"),
    ("host", "4 3\n1 5\n1 2\n1 2\n", "edge (1, 5) out of vertex range 1..4"),
    # not ascending, and also a duplicate, out of range or repeating
    ("host", "3 2\n1 2\n2 1\n", "edge line (2, 1) is not strictly ascending"),
    ("host", "3 1\n4 1\n", "edge line (4, 1) is not strictly ascending"),
    ("host", "3 2\n1 2\n1 1\n", "edge line (1, 1) is not strictly ascending"),
    ("host", "4 3\n1 2\n1 2\n3 2 9\n",
     "edge line (3, 2, 9) is not strictly ascending"),
    ("target", "3 1\n1 1\n", "edge (1, 1) has repeated vertices"),
    ("target", "3 2\n2 1\n1 2", "duplicate edge (1, 2)"),
    ("target", "3 1\n1 2 3\n", "edge sizes [3] not in uniformity set [2]"),
    ("coloring", "012\n", "color 2 outside palette 0..1"),
    ("coloring", "01x\n", "coloring line '01x' has non-digit characters"),
    ("coloring", "01\n", "coloring length 2 != edge count 3"),
    ("coloring", "01\n10\n",
     "coloring sidecar must contain exactly one non-comment line"),
]


def _parse_3_uniform(text):
    """The parsed host rebuilt with uniformity {3}."""
    hg = parse_hypergraph(text)
    return Hypergraph(hg.n, hg.edges, {3})


@pytest.mark.parametrize("parser,text,message", PARSER_MESSAGES)
def test_parser_messages(parser, text, message):
    parse = {"host": parse_hypergraph,
             "host3": _parse_3_uniform,
             "target": parse_target,
             "coloring": lambda text: parse_coloring(text, 3)}[parser]
    with pytest.raises(ValueError) as info:
        parse(text)
    assert str(info.value) == message


@pytest.mark.parametrize("edges,message", [
    ([(3, 1, 3)], "edge (3, 1, 3) has repeated vertices"),
    ([(2, 1), [1, 2]], "duplicate edge (1, 2)"),
    ([(1, 2), (3, 5, 4), (1, 1)], "edge (3, 4, 5) out of vertex range 1..4"),
    ([(1, 2), {4}], "edge (4,) has cardinality < 2"),
])
def test_constructor_names_the_first_bad_edge(edges, message):
    with pytest.raises(ValueError) as info:
        Hypergraph(4, edges)
    assert str(info.value) == message


def test_constructor_canonicalizes_like_sorting_each_edge():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(2, 8)
        canon = {tuple(sorted(rng.sample(range(1, n + 1),
                                         rng.randint(2, min(n, 5)))))
                 for _ in range(rng.randint(0, 10))}
        edges = [rng.sample(e, len(e)) for e in canon]
        hg = Hypergraph(n, edges)
        assert hg.edges == tuple(sorted(canon))
        assert parse_hypergraph(format_hypergraph(hg)) == hg


class TestColoringSidecar:
    def test_round_trip(self):
        col = EdgeColoring((0, 1, 1, 0, 1, 0, 0))
        assert parse_coloring(format_coloring(col), 7) == col

    def test_comment_lines_allowed(self):
        assert parse_coloring("# note\n0110\n", 4).colors == (0, 1, 1, 0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            parse_coloring("010\n", 4)

    def test_non_digit(self):
        with pytest.raises(ValueError):
            parse_coloring("01x0\n", 4)

    def test_color_outside_palette(self):
        with pytest.raises(ValueError):
            parse_coloring("012\n", 3)

    def test_sidecar_rejects_wide_palettes(self):
        # colorings are 2-colorings, so no wider color reaches a sidecar
        with pytest.raises(ValueError,
                           match=r"color 11 outside palette 0\.\.1"):
            EdgeColoring((11,))

    def test_indices_of(self):
        col = EdgeColoring((0, 1, 0, 1))
        assert col.indices_of(1) == (1, 3)


K3 = complete_graph(3)

# every public caller of `check_coloring`, on a host and a coloring
COLORING_CALLERS = {
    "find_berge": lambda hg, col: find_berge(hg, K3, col, 0),
    "contains_mono_berge": lambda hg, col: contains_mono_berge(hg, col, K3,
                                                               K3),
    "verify_certificate": lambda hg, col: verify_certificate(
        hg, K3, find_berge(hg, K3), col, 0),
    "scan_bad_events": lambda hg, col: scan_bad_events(hg, col, 3),
    "lower_bound_certificate": lambda hg, col: lower_bound_certificate(
        hg, col, 3),
    "trace_coloring": lambda hg, col: trace_coloring(
        hg, col, ScatterSample((1, 2, 4), 1, 0)),
    "multicolor_product_reduction": multicolor_product_reduction,
}


@pytest.mark.parametrize("call", COLORING_CALLERS.values(),
                         ids=COLORING_CALLERS)
def test_coloring_one_edge_short_is_refused(call):
    hg = fano()
    with pytest.raises(ValueError,
                       match=r"^coloring length 6 != edge count 7$"):
        call(hg, EdgeColoring((0,) * (hg.num_edges - 1)))
