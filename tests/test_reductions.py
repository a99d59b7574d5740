import argparse
import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from coverramsey import (EdgeColoring, Hypergraph, ScatterSample,
                         VerificationFailure, complete_graph, complete_host,
                         construct_resolvable_bibd, cycle_graph,
                         design_to_hypergraph, find_mono_subgraph,
                         format_coloring, format_hypergraph,
                         lift_mono_subgraph, lift_trace_subgraph,
                         lower_bound_certificate,
                         multicolor_product_reduction, path_graph,
                         sample_scattered_subset, scatter_failure_bound,
                         scatter_rejection_trials, trace_coloring,
                         verify_certificate)
from coverramsey.cli import _product_fields

from _oracles import fano, random_coloring, random_covering_hypergraph

K3 = complete_graph(3)
P3 = path_graph(3)


class TestScatterSampling:
    def test_2_graph_accepts_first_sample(self):
        sample = sample_scattered_subset(complete_host(8), 5, seed=42)
        assert sample.attempts == 1
        assert len(sample.subset) == 5

    def test_fano_finds_non_collinear_triple(self):
        hg = fano()
        lines = {frozenset(e) for e in hg.edges}
        for seed in range(10):
            sample = sample_scattered_subset(hg, 3, seed=seed)
            assert sample is not None
            assert frozenset(sample.subset) not in lines

    def test_fano_non_collinear_triple_count(self):
        # 28 of the 35 triples avoid the 7 lines entirely
        hg = fano()
        lines = {frozenset(e) for e in hg.edges}
        scattered = [t for t in combinations(range(1, 8), 3)
                     if frozenset(t) not in lines]
        assert len(scattered) == 28

    def test_fano_whole_vertex_set_never_scatters(self):
        assert sample_scattered_subset(fano(), 7, seed=0,
                                       max_attempts=50) is None

    def test_requires_covering_host(self):
        with pytest.raises(ValueError):
            sample_scattered_subset(Hypergraph(4, [(1, 2, 3)]), 2)

    def test_subset_size_bounds(self):
        with pytest.raises(ValueError):
            sample_scattered_subset(fano(), 8)

    def test_trials_check_subset_size(self):
        for trials in (0, 5):
            with pytest.raises(ValueError,
                               match=r"subset size 99 outside 0\.\.7"):
                scatter_rejection_trials(fano(), 99, trials)

    def test_non_covering_host_raises_with_no_draws(self):
        hg = Hypergraph(4, [(1, 2, 3)])
        with pytest.raises(ValueError, match="host must be covering"):
            scatter_rejection_trials(hg, 2, 0)
        with pytest.raises(ValueError, match="host must be covering"):
            sample_scattered_subset(hg, 2, max_attempts=0)

    def test_deterministic_per_seed(self):
        a = sample_scattered_subset(fano(), 3, seed=9)
        b = sample_scattered_subset(fano(), 3, seed=9)
        assert a == b

    def test_soundness_on_random_hosts(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randint(6, 10)
            hg = random_covering_hypergraph(rng, n, k=3, extra=3)
            s = rng.randint(2, 4)
            sample = sample_scattered_subset(hg, s, seed=rng.randrange(999))
            if sample is None:
                continue
            sset = set(sample.subset)
            assert max(len(sset & set(e)) for e in hg.edges) <= 2


class TestScatterFailureBound:
    def test_2_uniform_bound_is_zero(self):
        assert scatter_failure_bound(100, 10, 2) == 0

    def test_exact_small_value(self):
        assert scatter_failure_bound(29, 3, 3) == Fraction(1, 9)

    def test_cubic_regime_below_one(self):
        value = scatter_failure_bound(486, 6, 3)
        assert value == Fraction(60, 484) == Fraction(15, 121)
        assert value < 1

    def test_fewer_than_3_vertices_rejected(self):
        with pytest.raises(ValueError) as exc:
            scatter_failure_bound(2, 0, 3)
        assert str(exc.value) == "requires n >= 3"

    @pytest.mark.parametrize("s", [-1, 8])
    def test_subset_size_outside_the_vertices(self, s):
        with pytest.raises(ValueError) as exc:
            scatter_failure_bound(7, s, 3)
        assert str(exc.value) == f"subset size {s} outside 0..7"

    def test_empirical_rate_below_bound_on_fano(self):
        # true rejection rate is 7/35 = 0.2; bound is 3/5
        rejected, trials = scatter_rejection_trials(fano(), 3, 2000, seed=0)
        bound = scatter_failure_bound(7, 3, 3)
        assert bound == Fraction(3, 5)
        assert rejected / trials <= float(bound)
        assert abs(rejected / trials - 0.2) < 0.05


class TestTraceColoring:
    def test_2_graph_trace_is_induced_coloring(self):
        hg = complete_host(6)
        rng = random.Random(4)
        coloring = random_coloring(rng, hg)
        sample = sample_scattered_subset(hg, 4, seed=1)
        trace = trace_coloring(hg, coloring, sample)
        for pair in combinations(trace.subset, 2):
            idx = trace.provenance[pair]
            assert hg.edges[idx] == pair  # phi is the identity on pairs
            assert trace.pair_color[pair] == coloring.colors[idx]

    def test_fano_all_blue_trace_and_lift(self):
        hg = fano()
        coloring = EdgeColoring((0,) * 7)
        sample = ScatterSample((1, 2, 4), 1, 0)
        trace = trace_coloring(hg, coloring, sample)
        assert set(trace.pair_color.values()) == {0}
        cert = lift_trace_subgraph(trace, hg, K3, {1: 1, 2: 2, 3: 4},
                                   coloring)
        assert verify_certificate(hg, K3, cert, coloring, 0)

    def test_design_trace_uses_unique_blocks(self):
        hg = design_to_hypergraph(construct_resolvable_bibd(9, 3))
        rng = random.Random(8)
        coloring = random_coloring(rng, hg)
        sample = sample_scattered_subset(hg, 3, seed=3)
        trace = trace_coloring(hg, coloring, sample)
        for pair in combinations(trace.subset, 2):
            assert trace.provenance[pair] == hg.pair_edges()[pair][0]

    def test_trace_provenance_injective(self):
        rng = random.Random(12)
        for _ in range(30):
            n = rng.randint(7, 10)
            hg = random_covering_hypergraph(rng, n, k=3, extra=4, mixed=True)
            sample = sample_scattered_subset(hg, 4, seed=rng.randrange(99))
            if sample is None:
                continue
            coloring = random_coloring(rng, hg)
            trace = trace_coloring(hg, coloring, sample)
            values = list(trace.provenance.values())
            assert len(set(values)) == len(values)

    def test_non_covering_host_rejected(self):
        hg = Hypergraph(4, [(1, 2, 3)])
        with pytest.raises(ValueError, match="host must be covering"):
            trace_coloring(hg, EdgeColoring((0,)),
                           ScatterSample((1, 4), 1, 0))

    @pytest.mark.parametrize("subset", [(1, 1, 2), (0, 1), (2, 1)])
    def test_bad_sample_vertices_rejected(self, subset):
        with pytest.raises(ValueError, match="ascending distinct vertices"):
            trace_coloring(fano(), EdgeColoring((0,) * 7),
                           ScatterSample(subset, 1, 0))

    def test_unscattered_sample_rejected(self):
        forged = ScatterSample((1, 2, 3), 1, 0)
        with pytest.raises(ValueError):
            trace_coloring(fano(), EdgeColoring((0,) * 7), forged)


class TestProductReduction:
    def test_2_graph_reduction_is_identity(self):
        hg = complete_host(5)
        rng = random.Random(2)
        coloring = random_coloring(rng, hg)
        red = multicolor_product_reduction(hg, coloring)
        assert red.palette_size == 2
        for pair, (idx, label) in red.provenance.items():
            assert hg.edges[idx] == pair and label == 1
            assert red.pair_color[pair] == coloring.colors[idx]

    def test_fano_palette_and_provenance(self):
        hg = fano()
        rng = random.Random(6)
        coloring = random_coloring(rng, hg)
        red = multicolor_product_reduction(hg, coloring)
        assert red.palette_size == 2 * comb(3, 2) == 6
        assert len(red.pair_color) == comb(7, 2)
        for pair, (idx, _) in red.provenance.items():
            assert set(pair) <= set(hg.edges[idx])
            assert idx == hg.pair_edges()[pair][0]  # unique line

    def test_design_host_palette(self):
        hg = design_to_hypergraph(construct_resolvable_bibd(9, 3))
        coloring = EdgeColoring(tuple(i % 2 for i in range(12)))
        red = multicolor_product_reduction(hg, coloring)
        assert red.n == 9 and red.palette_size == 6

    def test_pairs_sharing_a_hyperedge_get_distinct_colors(self):
        rng = random.Random(21)
        for _ in range(20):
            hg = random_covering_hypergraph(rng, rng.randint(6, 9), k=3,
                                            extra=4, mixed=True)
            coloring = random_coloring(rng, hg)
            red = multicolor_product_reduction(hg, coloring)
            by_edge = {}
            for pair, (idx, label) in red.provenance.items():
                by_edge.setdefault(idx, []).append((label,
                                                    red.pair_color[pair]))
            for idx, items in by_edge.items():
                labels = [l for l, _ in items]
                colors = [c for _, c in items]
                assert len(set(labels)) == len(labels)
                assert len(set(colors)) == len(colors)

    def test_color_parts_round_trip(self):
        hg = fano()
        coloring = EdgeColoring((0, 1) * 3 + (0,))
        red = multicolor_product_reduction(hg, coloring)
        for pair, (idx, label) in red.provenance.items():
            host_color, lab = red.color_parts(red.pair_color[pair])
            assert host_color == coloring.colors[idx] and lab == label

    def test_requires_covering(self):
        with pytest.raises(ValueError):
            multicolor_product_reduction(Hypergraph(4, [(1, 2, 3)]),
                                         EdgeColoring((0,)))


class TestLifting:
    def test_identity_host_mono_triangle_lifts_to_itself(self):
        hg = complete_host(6)
        coloring = EdgeColoring((0,) * 15)
        red = multicolor_product_reduction(hg, coloring)
        cert = lift_mono_subgraph(red, hg, K3, {1: 1, 2: 2, 3: 3}, coloring)
        emap = cert.edge_dict()
        assert {hg.edges[i] for i in emap.values()} == {(1, 2), (1, 3),
                                                        (2, 3)}

    def test_fano_mono_path_lifts_on_distinct_lines(self):
        hg = fano()
        coloring = EdgeColoring((0,) * 7)
        red = multicolor_product_reduction(hg, coloring)
        hit = find_mono_subgraph(red.pair_color, red.n, P3)
        assert hit is not None
        color, embedding = hit
        cert = lift_mono_subgraph(red, hg, P3, embedding, coloring)
        assert verify_certificate(hg, P3, cert)
        host_color, _ = red.color_parts(color)
        assert verify_certificate(hg, P3, cert, coloring, host_color)

    def test_non_mono_embedding_rejected(self):
        hg = complete_host(6)
        coloring = EdgeColoring(tuple(i % 2 for i in range(15)))
        red = multicolor_product_reduction(hg, coloring)
        mixed = None
        for tri in combinations(range(1, 7), 3):
            pairs = list(combinations(tri, 2))
            if len({red.pair_color[p] for p in pairs}) > 1:
                mixed = tri
                break
        with pytest.raises(ValueError):
            lift_mono_subgraph(red, hg, K3,
                               {i + 1: v for i, v in enumerate(mixed)},
                               coloring)

    def test_randomized_product_lift_soundness(self):
        rng = random.Random(404)
        lifted = 0
        for _ in range(40):
            hg = random_covering_hypergraph(rng, rng.randint(6, 9), k=3,
                                            extra=4, mixed=True)
            coloring = random_coloring(rng, hg)
            red = multicolor_product_reduction(hg, coloring)
            target = rng.choice([P3, K3])
            hit = find_mono_subgraph(red.pair_color, red.n, target)
            if hit is None:
                continue
            color, embedding = hit
            cert = lift_mono_subgraph(red, hg, target, embedding, coloring)
            host_color, _ = red.color_parts(color)
            assert verify_certificate(hg, target, cert, coloring, host_color)
            lifted += 1
        assert lifted >= 10

    def test_randomized_trace_lift_soundness(self):
        rng = random.Random(505)
        lifted = 0
        for _ in range(40):
            hg = random_covering_hypergraph(rng, rng.randint(7, 10), k=3,
                                            extra=3)
            sample = sample_scattered_subset(hg, 4, seed=rng.randrange(999))
            if sample is None:
                continue
            coloring = random_coloring(rng, hg)
            trace = trace_coloring(hg, coloring, sample)
            hit = find_mono_subgraph(trace.pair_color, hg.n, P3)
            if hit is None:
                continue
            color, embedding = hit
            cert = lift_trace_subgraph(trace, hg, P3, embedding, coloring)
            assert verify_certificate(hg, P3, cert, coloring, color)
            lifted += 1
        assert lifted >= 10


class TestLiftDigest:
    """Everything read off h(uv), the first hyperedge holding a pair:
    product fields, trace colors and provenance, certificates lifted on
    both routes, and the failure certificates of `lower_bound_certificate`
    (a monochromatic Berge-K_t is a bad event on a linear host).  The
    digest was taken when each route still built its own lift, so it pins
    that one shared lift changes no output."""

    DESIGNS = ((9, 3), (15, 3), (16, 4), (21, 3), (25, 5), (27, 3))
    TARGETS = (complete_graph(3), path_graph(3), cycle_graph(4),
               complete_graph(4))
    COUNTS = (31, 62, 62, 337, 112)
    DIGEST = ("14a39c3981b204498728365f631935c0"
              "b6dffd2ddeba891af753a2cf37870754")

    def test_outputs_digest_pinned(self):
        rng = random.Random(1901)
        hosts = [fano()] + [design_to_hypergraph(construct_resolvable_bibd(
            n, k)) for n, k in self.DESIGNS]
        hosts += [random_covering_hypergraph(rng, rng.randint(6, 10), k=3,
                                             extra=4, mixed=True)
                  for _ in range(24)]
        digest = hashlib.sha256()

        def put(*items):
            digest.update(repr(items).encode() + b"\n")

        args = argparse.Namespace(coloring="coloring")
        traces = lifts = failures = 0
        for i, hg in enumerate(hosts):
            for p in (0.5, 0.2):
                coloring = EdgeColoring(tuple(int(rng.random() < p)
                                              for _ in hg.edges))
                fields = _product_fields(args, {
                    "host": format_hypergraph(hg),
                    "coloring": format_coloring(coloring)}.get)
                del fields["host_text"], fields["coloring_text"]
                put(json.dumps(fields, sort_keys=True))
                routes = [(multicolor_product_reduction(hg, coloring),
                           lift_mono_subgraph)]
                sample = sample_scattered_subset(
                    hg, 4 if hg.n < 15 else 6, seed=i, max_attempts=200)
                if sample is not None:
                    trace = trace_coloring(hg, coloring, sample)
                    put(trace.subset, sorted(trace.pair_color.items()),
                        sorted(trace.provenance.items()))
                    routes.append((trace, lift_trace_subgraph))
                    traces += 1
                for reduction, lift in routes:
                    for g in self.TARGETS:
                        hit = find_mono_subgraph(reduction.pair_color,
                                                 hg.n, g)
                        if hit is not None:
                            cert = lift(reduction, hg, g, hit[1], coloring)
                            put(hit[0], cert.vertex_map, cert.edge_map)
                            lifts += 1
                for t in (3, 4):
                    try:
                        cert = lower_bound_certificate(hg, coloring, t)
                        put(cert.method, cert.statement)
                    except VerificationFailure as exc:
                        put(str(exc), exc.color,
                            exc.certificate.vertex_map,
                            exc.certificate.edge_map)
                        failures += 1
        assert (len(hosts), 2 * len(hosts), traces, lifts,
                failures) == self.COUNTS
        assert digest.hexdigest() == self.DIGEST
