import hashlib
import random
from itertools import combinations

import pytest

from coverramsey import (BergeCertificate, EdgeColoring, Hypergraph,
                         complete_graph, complete_host,
                         construct_resolvable_bibd, contains_mono_berge,
                         cycle_graph, design_to_hypergraph, find_berge,
                         format_hypergraph, matching_for_assignment,
                         path_graph, verify_certificate)
from coverramsey.berge import (COLOR_FAIL, CONTAINMENT_FAIL,
                               NOT_INJECTIVE_EDGES, NOT_INJECTIVE_VERTICES,
                               BergeSearch, _mask, parse_target)

from _oracles import (fano, naive_contains_berge, random_coloring,
                      random_covering_hypergraph, random_hypergraph)

K3 = complete_graph(3)
K4 = complete_graph(4)
K5 = complete_graph(5)
P3 = path_graph(3)
P4 = path_graph(4)
C4 = cycle_graph(4)


def fano_k3_cert():
    # vertices {1,2,4}; pair 12 on line 0, 14 on line 1, 24 on line 3
    return BergeCertificate.from_dicts({1: 1, 2: 2, 3: 4},
                                       {0: 0, 1: 1, 2: 3})


class TestVerifyCertificate:
    def test_fano_triangle_certificate(self):
        assert verify_certificate(fano(), K3, fano_k3_cert())

    def test_edge_map_not_injective(self):
        cert = BergeCertificate.from_dicts({1: 1, 2: 2, 3: 4},
                                           {0: 0, 1: 0, 2: 3})
        result = verify_certificate(fano(), K3, cert)
        assert not result and result.reason == NOT_INJECTIVE_EDGES

    def test_vertex_map_not_injective(self):
        cert = BergeCertificate.from_dicts({1: 1, 2: 1, 3: 4},
                                           {0: 0, 1: 1, 2: 3})
        result = verify_certificate(fano(), K3, cert)
        assert result.reason == NOT_INJECTIVE_VERTICES

    def test_containment_failure(self):
        cert = BergeCertificate.from_dicts({1: 1, 2: 2, 3: 4},
                                           {0: 2, 1: 1, 2: 3})  # line {1,6,7}
        result = verify_certificate(fano(), K3, cert)
        assert result.reason == CONTAINMENT_FAIL

    def test_color_mismatch(self):
        coloring = EdgeColoring((0, 1, 0, 0, 0, 0, 0))
        result = verify_certificate(fano(), K3, fano_k3_cert(),
                                    coloring, 0)
        assert not result and result.reason == COLOR_FAIL

    def test_color_match(self):
        coloring = EdgeColoring((0,) * 7)
        assert verify_certificate(fano(), K3, fano_k3_cert(), coloring, 0)

    def test_containment_failure_names_the_first_failing_edge(self):
        # edges 1 and 2 moved onto lines {1,6,7} and {2,5,7}, which miss
        # their host pairs (1, 4) and (2, 4)
        cert = BergeCertificate.from_dicts({1: 1, 2: 2, 3: 4},
                                           {0: 0, 1: 2, 2: 4})
        result = verify_certificate(fano(), K3, cert)
        assert result == (False, CONTAINMENT_FAIL,
                          "target edge 1 (1, 3) maps to the host pair "
                          "(1, 4), which its hyperedge 2 misses")
        assert str(result) == f"{CONTAINMENT_FAIL}: {result.detail}"

    def test_color_failure_names_the_first_failing_edge(self):
        # lines 1 and 3, the images of edges 1 and 2, are red; the edge
        # map is listed in reverse, and edges are still taken by index
        coloring = EdgeColoring((0, 1, 0, 1, 0, 0, 0))
        cert = BergeCertificate(((1, 1), (2, 2), (3, 4)),
                                ((2, 3), (1, 1), (0, 0)))
        result = verify_certificate(fano(), K3, cert, coloring, 0)
        assert result == (False, COLOR_FAIL,
                          "target edge 1 (1, 3) is on hyperedge 1 of color "
                          "1, not color 0")
        assert str(result) == f"{COLOR_FAIL}: {result.detail}"

    @pytest.mark.parametrize("vertex_map,edge_map,reason", [
        ({1: 1, 2: 2, 3: 4}, {0: 0, 1: 1, 2: 3}, None),
        ({1: 1, 2: 1, 3: 4}, {0: 0, 1: 1, 2: 3}, NOT_INJECTIVE_VERTICES),
        ({1: 1, 2: 2, 3: 4}, {0: 0, 1: 0, 2: 3}, NOT_INJECTIVE_EDGES)],
        ids=["ok", "vertices", "edges"])
    def test_other_results_carry_no_detail(self, vertex_map, edge_map,
                                           reason):
        cert = BergeCertificate.from_dicts(vertex_map, edge_map)
        result = verify_certificate(fano(), K3, cert, EdgeColoring((0,) * 7),
                                    0)
        assert result == (reason is None, reason, "")
        assert str(result) == (reason or "")


class TestMatchingForAssignment:
    def test_fano_unique_lines(self):
        emap = matching_for_assignment(fano(), K3, {1: 1, 2: 2, 3: 4})
        assert emap == {0: 0, 1: 1, 2: 3}

    def test_collinear_triple_has_no_matching(self):
        # all three pairs of {1,2,3} lie only on the single line {1,2,3}
        assert matching_for_assignment(fano(), K3, {1: 1, 2: 2, 3: 3}) is None

    def test_empty_target_matches_vacuously(self):
        g = Hypergraph(2, [], {2})
        assert matching_for_assignment(fano(), g, {1: 1, 2: 2}) == {}

    def test_allowed_restriction(self):
        allowed = {0, 1}  # drop line {2,4,6}
        assert matching_for_assignment(fano(), K3, {1: 1, 2: 2, 3: 4},
                                       allowed) is None

    def test_non_injective_vertex_map_rejected(self):
        with pytest.raises(ValueError):
            matching_for_assignment(fano(), K3, {1: 1, 2: 1, 3: 4})


class TestFindBerge:
    def test_fano_contains_k4(self):
        cert = find_berge(fano(), K4)
        assert cert is not None
        assert verify_certificate(fano(), K4, cert)

    def test_fano_k4_matches_4set_oracle(self):
        # brute force: a 4-set carries a Berge-K4 iff its 6 pairs lie on
        # 6 distinct lines (co-degree 1 makes the line per pair unique)
        hg = fano()
        good = set()
        for quad in combinations(range(1, 8), 4):
            lines = [hg.pair_edges()[p][0] for p in combinations(quad, 2)]
            if len(set(lines)) == 6:
                good.add(quad)
        assert good  # the complement-of-a-line configurations exist
        cert = find_berge(hg, K4)
        assert tuple(sorted(cert.vertex_dict().values())) in good

    def test_fano_has_no_k5_by_edge_count(self):
        assert find_berge(fano(), K5) is None

    def test_mono_triangle_in_all_blue_k6(self):
        hg = complete_host(6)
        coloring = EdgeColoring((0,) * 15)
        cert = find_berge(hg, K3, coloring, 0)
        assert cert is not None
        assert verify_certificate(hg, K3, cert, coloring, 0)

    def test_color_class_too_small(self):
        hg = complete_host(4)
        coloring = EdgeColoring((0, 1, 1, 1, 1, 1))
        assert find_berge(hg, K3, coloring, 0) is None

    def test_empty_target_embeds(self):
        cert = find_berge(fano(), Hypergraph(3, [], {2}))
        assert cert is not None and cert.edge_map == ()

    def test_too_many_target_vertices(self):
        assert find_berge(Hypergraph(2, [(1, 2)]), K3) is None

    def test_agrees_with_naive_oracle(self):
        rng = random.Random(2024)
        targets = [P3, K3, C4, K4]
        checked = 0
        for _ in range(60):
            hg = random_hypergraph(rng)
            for g in targets:
                got = find_berge(hg, g) is not None
                want = naive_contains_berge(hg, g)
                assert got == want, (hg.edges, g)
                checked += 1
        assert checked == 240

    def test_colored_search_agrees_with_naive_oracle(self):
        rng = random.Random(77)
        for _ in range(40):
            hg = random_hypergraph(rng)
            coloring = random_coloring(rng, hg)
            for color in (0, 1):
                got = find_berge(hg, K3, coloring, color) is not None
                want = naive_contains_berge(hg, K3, coloring, color)
                assert got == want

    def test_monotone_under_edge_additions(self):
        rng = random.Random(5)
        grown = 0
        for _ in range(80):
            hg = random_hypergraph(rng, n_max=6, m_max=6)
            g = rng.choice([P3, K3, C4])
            if find_berge(hg, g) is None:
                continue
            extra = set(hg.edges)
            for _ in range(3):
                size = rng.randint(2, min(4, hg.n))
                extra.add(tuple(sorted(rng.sample(range(1, hg.n + 1), size))))
            bigger = Hypergraph(hg.n, extra)
            assert find_berge(bigger, g) is not None
            grown += 1
        assert grown > 10

    def test_soundness_of_returned_certificates(self):
        rng = random.Random(13)
        for _ in range(60):
            hg = random_hypergraph(rng)
            coloring = random_coloring(rng, hg)
            g = rng.choice([P3, K3, C4, K4])
            color = rng.choice([None, 0, 1])
            cert = find_berge(hg, g, coloring if color is not None else None,
                              color)
            if cert is not None:
                assert verify_certificate(
                    hg, g, cert,
                    coloring if color is not None else None, color)


    @pytest.mark.parametrize("color", [2, 7, -1])
    def test_color_outside_palette_rejected(self, color):
        coloring = EdgeColoring((0,) * 7)
        with pytest.raises(ValueError, match="outside palette"):
            find_berge(fano(), K3, coloring, color)


def grid_hosts():
    """Seeded (name, host, coloring) grid: each design host with a fair
    and two lopsided colorings, then small random hosts."""
    rng = random.Random(31)
    for n, k in [(21, 3), (25, 5), (27, 3), (49, 7), (81, 3)]:
        hg = design_to_hypergraph(construct_resolvable_bibd(n, k))
        yield f"D({n},{k})", hg, random_coloring(rng, hg)
        for p in (0.15, 0.3):
            yield f"D({n},{k}) p={p}", hg, EdgeColoring(
                tuple(int(rng.random() < p) for _ in hg.edges))
    for i in range(40):
        hg = random_hypergraph(rng, n_max=7, m_max=12)
        yield f"random {i}", hg, random_coloring(rng, hg)


GRID_TARGETS = [K3, K4, K5, C4, cycle_graph(5), cycle_graph(6), P4]


class TestBergeSearch:
    def test_reused_search_matches_fresh_find_berge(self):
        # one search per (host, target), run on many masks in a row: each
        # result must equal a fresh find_berge on the matching coloring
        rng = random.Random(404)
        found = 0
        for _ in range(12):
            hg = random_hypergraph(rng, n_max=6, m_max=9)
            for g in (P3, K3, C4, K4):
                search = BergeSearch(hg, g)
                for _ in range(15):
                    mask = rng.getrandbits(hg.num_edges)
                    coloring = EdgeColoring(tuple(
                        (mask >> i) & 1 for i in range(hg.num_edges)))
                    got = search.run(mask)
                    cert = find_berge(hg, g, coloring, 1)
                    want = None if cert is None else (cert.vertex_dict(),
                                                      cert.edge_dict())
                    assert got == want, (hg.edges, g, mask)
                    assert (got is not None) == naive_contains_berge(
                        hg, g, coloring, 1)
                    found += got is not None
        assert 50 < found < 12 * 4 * 15 - 50

    def test_certificate_hash_pinned(self):
        # SHA-256 of every (vertex_map, edge_map) over the grid, computed
        # with the list-based search that the bitmask search replaced
        digest = hashlib.sha256()
        searches = not_found = 0
        for _, hg, coloring in grid_hosts():
            for g in GRID_TARGETS:
                for color in (0, 1):
                    cert = find_berge(hg, g, coloring, color)
                    searches += 1
                    not_found += cert is None
                    digest.update(repr(None if cert is None else (
                        cert.vertex_map, cert.edge_map)).encode())
        assert (searches, not_found) == (770, 483)
        assert digest.hexdigest() == ("bb7de9ae90a937b7510f40cf93f506ba"
                                      "1ff9a88d46065efee56f7329e8e6a6be")

    def test_large_host_certificate_hash_pinned(self):
        # SHA-256 of every (vertex_map, edge_map) on design hosts under a
        # fair and a lopsided coloring, computed with the search that kept
        # an n x n table of pair masks and ran each Hall test from scratch
        rng = random.Random(2019)
        digest = hashlib.sha256()
        searches = not_found = 0
        for n, k in [(21, 3), (25, 5), (27, 3)]:
            hg = design_to_hypergraph(construct_resolvable_bibd(n, k))
            for p in (0.5, 0.2):
                coloring = EdgeColoring(
                    tuple(int(rng.random() < p) for _ in hg.edges))
                for g in (K4, K5, cycle_graph(5), cycle_graph(6)):
                    for color in (0, 1):
                        cert = find_berge(hg, g, coloring, color)
                        searches += 1
                        not_found += cert is None
                        digest.update(repr(None if cert is None else (
                            cert.vertex_map, cert.edge_map)).encode())
        assert (searches, not_found) == (48, 9)
        assert digest.hexdigest() == ("2cbf1588f88171162eb29dce70063015"
                                      "3620b55cb775c2af8ecd57147c1180ea")

    def test_work_counters_pinned(self):
        # the from-scratch search placed 39957 vertices (root included)
        # and ran _kuhn 154787 times on the first mask; pruned by allowed
        # degree it places 7 and needs no augmenting path; 7 on the next
        hg = design_to_hypergraph(construct_resolvable_bibd(49, 7))
        coloring = random_coloring(random.Random(0), hg)
        search = BergeSearch(hg, cycle_graph(6))
        assert search.certificate(_mask(coloring.indices_of(0))) is not None
        assert search.nodes == 7
        assert search.hall_tests == 0
        assert search.certificate(_mask(coloring.indices_of(1))) is not None
        assert search.nodes == 7 + 7

    def test_degree_pruning_counters_pinned(self):
        # a K5 search that finds nothing in a sparse class of D(49,7):
        # 5630 nodes and 24702 Hall tests before placements were pruned
        # by allowed degree
        hg = design_to_hypergraph(construct_resolvable_bibd(49, 7))
        rng = random.Random(1)
        red = _mask(i for i in range(hg.num_edges) if rng.random() < 0.3)
        search = BergeSearch(hg, K5)
        assert search.run(red) is None
        assert (search.nodes, search.hall_tests) == (957, 1962)

    def test_run_results_digest_pinned(self):
        # SHA-256 of `run` on 2400 seeded cases, taken before placements
        # were pruned by allowed degree: hosts with edge sizes 2..5,
        # covering or not, targets that may have isolated vertices, and
        # masks keeping about 10%, 50% or 90% of the hyperedges
        rng = random.Random(14)
        digest = hashlib.sha256()
        found = 0
        for i in range(800):
            if i % 4:
                hg = random_hypergraph(rng, n_max=9, m_max=14, k_max=5)
            else:
                hg = random_covering_hypergraph(
                    rng, rng.randint(5, 8), k=rng.randint(3, 5), mixed=True)
            t = rng.randint(2, 5)
            pairs = list(combinations(range(1, t + 1), 2))
            g = Hypergraph(t, rng.sample(pairs, rng.randint(1, len(pairs))),
                           {2})
            search = BergeSearch(hg, g)
            for p in (0.1, 0.5, 0.9):
                mask = _mask(e for e in range(hg.num_edges)
                             if rng.random() < p)
                result = search.run(mask)
                found += result is not None
                digest.update(repr(None if result is None else (
                    sorted(result[0].items()),
                    sorted(result[1].items()))).encode())
        assert found == 1178
        assert digest.hexdigest() == ("e8b311814e10caed8394cd37c818f0b5"
                                      "9e80caaed860637105800621148110a3")

    def test_certificate_rejects_an_edge_outside_allowed(self, monkeypatch):
        # a copy that verifies as a Berge triangle but uses line 1, which
        # the allowed mask leaves out, must fail the check
        cert = fano_k3_cert()
        monkeypatch.setattr(BergeSearch, "run", lambda self, allowed: (
            cert.vertex_dict(), cert.edge_dict()))
        search = BergeSearch(fano(), K3)
        assert search.certificate(0b1011) == cert
        with pytest.raises(AssertionError, match="outside the allowed set"):
            search.certificate(0b1001)

    def test_matching_for_assignment_agrees_with_search(self):
        rng = random.Random(8)
        for _ in range(30):
            hg = random_hypergraph(rng, n_max=6, m_max=9)
            mask = rng.getrandbits(hg.num_edges)
            allowed = {i for i in range(hg.num_edges) if (mask >> i) & 1}
            found = BergeSearch(hg, K3).run(mask)
            if found is not None:
                vmap, emap = found
                assert matching_for_assignment(hg, K3, vmap, allowed) == emap



# K3 plus an isolated vertex, which the search places last
K3_PLUS_VERTEX = Hypergraph(4, [(1, 2), (1, 3), (2, 3)], {2})
EDGELESS = [Hypergraph(t, [], {2}) for t in (0, 1, 2)]


def check_search(hg, g, mask):
    """The search finds a copy within `mask` iff the naive enumeration
    does, and a copy it finds verifies against the color class."""
    coloring = EdgeColoring(tuple(mask >> i & 1
                                  for i in range(hg.num_edges)))
    cert = BergeSearch(hg, g).certificate(mask)
    assert (cert is not None) == naive_contains_berge(hg, g, coloring, 1), (
        hg.edges, g, mask)
    if cert is not None:
        assert verify_certificate(hg, g, cert, coloring, 1)
    return cert


class TestBergeSearchEdgeCases:
    def test_isolated_target_vertex_after_edged_positions(self):
        assert BergeSearch(fano(), K3_PLUS_VERTEX).order[-1] == 4
        rng = random.Random(61)
        found = 0
        for _ in range(40):
            hg = random_hypergraph(rng, n_max=6, m_max=9)
            mask = rng.getrandbits(hg.num_edges)
            found += check_search(hg, K3_PLUS_VERTEX, mask) is not None
        assert 0 < found < 40

    def test_empty_allowed_set(self):
        rng = random.Random(62)
        for hg in [fano()] + [random_hypergraph(rng) for _ in range(10)]:
            for g in [P3, K3, K3_PLUS_VERTEX] + EDGELESS:
                cert = check_search(hg, g, 0)
                assert (cert is not None) == (g.num_edges == 0
                                              and g.n <= hg.n)

    def test_non_covering_host_with_isolated_vertex(self):
        hg = Hypergraph(6, [(1, 2, 3), (2, 3, 4), (1, 4, 5), (3, 5)])
        assert not hg.is_covering()
        for g in [P3, P4, K3, C4, K3_PLUS_VERTEX] + EDGELESS:
            for mask in range(2 ** hg.num_edges):
                cert = check_search(hg, g, mask)
                if cert is not None and g.num_edges:
                    assert 6 not in cert.vertex_dict().values()

    def test_mixed_host_with_pair_edges(self):
        rng = random.Random(63)
        mixed = 0
        for _ in range(12):
            hg = random_covering_hypergraph(rng, rng.randint(4, 6),
                                            mixed=True)
            mixed += hg.uniformity == {2, 3}
            for g in (P3, K3, C4, K4, K3_PLUS_VERTEX):
                check_search(hg, g, rng.getrandbits(hg.num_edges))
                check_search(hg, g, (1 << hg.num_edges) - 1)
        assert mixed

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny_hosts(self, n):
        hg = Hypergraph(n, [])
        for g in [Hypergraph(2, [(1, 2)], {2})] + EDGELESS:
            cert = check_search(hg, g, 0)
            assert (cert is not None) == (g.n <= n)


class TestContainsMonoBerge:
    def test_k6_random_colorings_always_hit(self):
        hg = complete_host(6)
        rng = random.Random(1)
        for _ in range(40):
            coloring = random_coloring(rng, hg)
            hit = contains_mono_berge(hg, coloring, K3, K3)
            assert hit is not None
            color, cert = hit
            assert verify_certificate(hg, K3, cert, coloring, color)

    def test_pentagon_coloring_avoids_triangles(self):
        hg = complete_host(5)
        cycle = {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}
        colors = tuple(0 if e in cycle else 1 for e in hg.edges)
        coloring = EdgeColoring(colors)
        assert contains_mono_berge(hg, coloring, K3, K3) is None

    def test_all_red_fano(self):
        coloring = EdgeColoring((1,) * 7)
        hit = contains_mono_berge(fano(), coloring, K3, K3)
        assert hit is not None and hit[0] == 1
        assert verify_certificate(fano(), K3, hit[1], coloring, 1)

    def test_prefers_blue_on_ties(self):
        hg = complete_host(6)
        coloring = EdgeColoring(tuple(i % 2 for i in range(15)))
        # both colors contain triangles here; blue must win
        hit = contains_mono_berge(hg, coloring, K3, K3)
        assert hit[0] == 0

    def test_requires_two_color_palette(self):
        # a third color cannot reach the search: the coloring rejects it
        with pytest.raises(ValueError,
                           match=r"color 2 outside palette 0\.\.1"):
            EdgeColoring((0, 1, 2))


class TestTargetGraph:
    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph(3, [(1, 1)], {2})

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph(3, [(1, 2), (2, 1)], {2})

    def test_builders(self):
        assert complete_graph(4).num_edges == 6
        assert path_graph(3).edges == ((1, 2), (2, 3))
        assert cycle_graph(4).num_edges == 4

    def test_cycle_of_two_vertices_rejected(self):
        with pytest.raises(ValueError) as exc:
            cycle_graph(2)
        assert str(exc.value) == "cycles need at least 3 vertices"

    def test_text_round_trip(self):
        for g in (K3, K4, P3, C4, Hypergraph(3, [], {2})):
            assert parse_target(format_hypergraph(g)) == g

    def test_parse_is_lenient_on_order_and_final_newline(self):
        text = "# a 4-cycle\n4 4\n1 2\n3 2\n\n3 4\n4 1"
        assert parse_target(text) == cycle_graph(4)

    def test_bad_header_is_reported(self):
        with pytest.raises(ValueError, match="header must be '<n> <m>'"):
            parse_target("3\n")

    def test_complete_graph_is_complete_host(self):
        assert complete_graph(5) == complete_host(5)
        assert complete_host(6).shadow() == complete_graph(6)

    def test_non_pair_target_edge_rejected(self):
        with pytest.raises(ValueError, match="not a vertex pair"):
            find_berge(fano(), Hypergraph(3, [(1, 2, 3)], {3}))
