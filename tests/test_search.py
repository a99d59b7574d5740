import hashlib
import random
from itertools import combinations

import pytest

from coverramsey import (AVOIDABLE, EdgeColoring, Hypergraph,
                         LimitExceededError, UNAVOIDABLE,
                         VerificationFailure, classical_ramsey_small,
                         complete_graph, complete_host, contains_mono_berge,
                         construct_resolvable_bibd, cycle_graph,
                         design_to_hypergraph,
                         find_berge, lower_bound_certificate,
                         moser_tardos_coloring, path_graph, scan_bad_events,
                         unavoidable, unavoidable_sharded,
                         verify_certificate)
import coverramsey.berge
import coverramsey.search
from coverramsey.berge import BergeSearch
from coverramsey.search import _CliqueScan, shard_prefixes

from _oracles import (binary_unavoidable, fano, first_bad_event,
                      naive_bad_events, naive_moser_tardos,
                      naive_unavoidable, random_coloring, random_hypergraph)

K2 = complete_graph(2)
K3 = complete_graph(3)
P3 = path_graph(3)


def d9_host():
    return design_to_hypergraph(construct_resolvable_bibd(9, 3))


class TestUnavoidable:
    def test_single_edge_k2(self):
        hg = Hypergraph(2, [(1, 2)])
        res = unavoidable(hg, K2, K2)
        assert res.verdict == UNAVOIDABLE
        assert res.colorings_examined == 1  # symmetry cut fixes the edge

    def test_k5_triangles_avoidable_with_verified_witness(self):
        hg = complete_host(5)
        res = unavoidable(hg, K3, K3)
        assert res.verdict == AVOIDABLE
        assert contains_mono_berge(hg, res.witness, K3, K3) is None
        # any witness must split K5 into two triangle-free 5-cycles
        for color in (0, 1):
            assert len(res.witness.indices_of(color)) == 5

    def test_matches_naive_enumerator_on_k5(self):
        # full 10-edge host: 1024 colorings enumerated plainly on one side
        hg = complete_host(5)
        want_unavoidable, _ = naive_unavoidable(hg, K3, K3)
        got = unavoidable(hg, K3, K3)
        assert (got.verdict == UNAVOIDABLE) == want_unavoidable

    def test_matches_naive_enumerator_on_random_hosts(self):
        rng = random.Random(99)
        agreements = 0
        for _ in range(25):
            hg = random_hypergraph(rng, n_max=5, m_max=6)
            g1 = rng.choice([P3, K3])
            g2 = rng.choice([P3, K3])
            res = unavoidable(hg, g1, g2)
            want_unavoidable, _ = naive_unavoidable(hg, g1, g2)
            assert (res.verdict == UNAVOIDABLE) == want_unavoidable
            if res.witness is not None:
                assert contains_mono_berge(hg, res.witness, g1, g2) is None
            agreements += 1
        assert agreements == 25

    def test_limit_exceeded(self):
        with pytest.raises(LimitExceededError):
            unavoidable(complete_host(5), K3, K3, limit=8)

    def test_shard_prefix_fixes_leading_edges(self):
        hg = complete_host(5)
        res = unavoidable(hg, K3, K3, shard="10")
        assert res.shard_spec == "10"
        if res.witness is not None:
            assert res.witness.colors[0] == 1
            assert res.witness.colors[1] == 0

    @pytest.mark.parametrize("limit", [0, -1])
    def test_non_positive_limit_rejected(self, monkeypatch, limit):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            no_pool)
        with pytest.raises(ValueError, match="at least 1"):
            unavoidable(complete_host(3), K3, K3, limit=limit)
        with pytest.raises(ValueError, match="at least 1"):
            unavoidable_sharded(complete_host(3), K3, K3, 1, limit=limit,
                                jobs=2)

    def test_bad_shard_rejected(self):
        with pytest.raises(ValueError):
            unavoidable(complete_host(3), K3, K3, shard="012")

    def test_sharded_merge_equals_unsharded(self):
        hg = complete_host(5)
        merged = unavoidable_sharded(hg, K3, K3, 2)
        plain = unavoidable(hg, K3, K3)
        assert merged.verdict == plain.verdict == AVOIDABLE
        assert contains_mono_berge(hg, merged.witness, K3, K3) is None
        assert shard_prefixes(2) == ["00", "01", "10", "11"]

    def test_sharded_parallel_jobs(self):
        hg = complete_host(5)
        merged = unavoidable_sharded(hg, K3, K3, 2, jobs=2)
        assert merged.verdict == AVOIDABLE
        assert contains_mono_berge(hg, merged.witness, K3, K3) is None

    def test_hosts_and_targets_pickle(self):
        import pickle
        hg = complete_host(5)
        assert pickle.loads(pickle.dumps(hg)) == hg
        assert pickle.loads(pickle.dumps(K3)) == K3
        # and the results that --jobs workers send back
        res = unavoidable(hg, K3, K3)
        assert res.witness is not None
        assert pickle.loads(pickle.dumps(res)) == res
        design = design_to_hypergraph(construct_resolvable_bibd(9, 3))
        cert = lower_bound_certificate(
            design, moser_tardos_coloring(design, 4).coloring, 4)
        assert pickle.loads(pickle.dumps(cert)) == cert

    def test_sharded_unavoidable_case(self):
        # P3 vs P3 on K3 is unavoidable; all shards must agree
        hg = complete_host(3)
        merged = unavoidable_sharded(hg, P3, P3, 2)
        assert merged.verdict == UNAVOIDABLE
        # the two "0..." shards leave 1 free edge each: 2 x 2 colorings,
        # the same count as the unsharded search with edge 0 fixed
        assert merged.colorings_examined == 4

    def test_binary_first_witness_is_deterministic(self):
        hg = complete_host(5)
        a = unavoidable(hg, K3, K3)
        b = unavoidable(hg, K3, K3)
        assert a.witness == b.witness


C4 = cycle_graph(4)
P4 = path_graph(4)

# (n, g1, g2): (verdict, witness, colorings_examined) of unavoidable on
# K_n, then of unavoidable_sharded with 2 shard bits; the UNAVOIDABLE rows
# were computed with the list-based Berge search that the bitmask search
# replaced, the AVOIDABLE rows with `binary_unavoidable` (plain binary
# order), and a sharded g1 == g2 search skips the color-swapped "1..."
# shards
PINNED = {
    (5, "K3", "K3"): (("AVOIDABLE", "0011101100", 111),
                      ("AVOIDABLE", "0011101100", 56)),
    (5, "C4", "C4"): (("AVOIDABLE", "0111100100", 80),
                      ("AVOIDABLE", "0011101100", 56)),
    (5, "K3", "P4"): (("AVOIDABLE", "0001110100", 185),
                      ("AVOIDABLE", "0001110100", 47)),
    (6, "K3", "K3"): (("UNAVOIDABLE", None, 16384),
                      ("UNAVOIDABLE", None, 16384)),
    (6, "C4", "C4"): (("UNAVOIDABLE", None, 16384), None),
    (6, "K3", "P4"): (("AVOIDABLE", "100010001110100", 5906),
                      ("AVOIDABLE", "001101001001100", 1612)),
}


def _summary(res):
    witness = None if res.witness is None else "".join(
        map(str, res.witness.colors))
    return res.verdict, witness, res.colorings_examined


class TestPinnedVerdicts:
    @pytest.mark.parametrize("key", sorted(PINNED),
                             ids=lambda key: "K{}-{}-{}".format(*key))
    def test_unavoidable_pinned(self, key):
        n, g1, g2 = key
        targets = {"K3": K3, "C4": C4, "P4": P4}
        hg = complete_host(n)
        plain, sharded = PINNED[key]
        assert _summary(unavoidable(hg, targets[g1], targets[g2])) == plain
        if sharded is not None:
            res = unavoidable_sharded(hg, targets[g1], targets[g2], 2)
            assert _summary(res) == sharded
            assert res.shard_spec == "merged[2]"

    def test_parallel_shards_pinned(self):
        res = unavoidable_sharded(complete_host(6), K3, P4, 2, jobs=2)
        assert _summary(res) == PINNED[(6, "K3", "P4")][1]

    def test_negative_shard_bits_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            unavoidable_sharded(complete_host(4), K3, K3, -1)

    @pytest.mark.parametrize("bits", [0, 1, 2])
    def test_same_target_shards_count_as_unsharded(self, bits):
        # R(P4, P4) = 5; both runs see each coloring with edge 0 blue once
        hg = complete_host(5)
        plain = unavoidable(hg, P4, P4)
        merged = unavoidable_sharded(hg, P4, P4, bits)
        assert plain.verdict == merged.verdict == UNAVOIDABLE
        assert merged.colorings_examined == plain.colorings_examined == 2 ** 9

    def test_zero_bits_is_the_unsharded_search(self):
        hg = complete_host(5)
        merged = unavoidable_sharded(hg, K3, K3, 0)
        assert _summary(merged) == PINNED[(5, "K3", "K3")][0]
        assert merged.shard_spec == "merged[0]"


class TestPrunedSearch:
    def test_matches_binary_oracle(self):
        # the pruned search visits colorings in plain binary order, so
        # verdict, witness and count all equal the enumeration's
        rng = random.Random(2024)
        targets = [P3, K3, P4, C4]
        verdicts = set()
        for _ in range(150):
            hg = random_hypergraph(rng, n_max=5, m_max=9)
            g1 = rng.choice(targets)
            g2 = g1 if rng.random() < 0.3 else rng.choice(targets)
            for shard in (None, "", "0", "1", "10"):
                if shard is not None and len(shard) > hg.num_edges:
                    continue
                want = binary_unavoidable(hg, g1, g2, shard)
                res = unavoidable(hg, g1, g2, shard)
                witness = None if res.witness is None else res.witness.colors
                assert (res.verdict, witness, res.colorings_examined) \
                    == want, (hg.edges, g1.edges, g2.edges, shard)
                verdicts.add(res.verdict)
        assert verdicts == {AVOIDABLE, UNAVOIDABLE}

    @pytest.mark.parametrize("target", [K3, C4], ids=["K3", "C4"])
    def test_cuts_save_berge_searches(self, monkeypatch, target):
        runs, checks = [], []
        run = BergeSearch.run
        verify = coverramsey.berge.verify_certificate

        def counted_run(self, allowed):
            runs.append(allowed)
            return run(self, allowed)

        def recorded_verify(*args):
            checks.append(bool(verify(*args)))
            return checks[-1]

        monkeypatch.setattr(BergeSearch, "run", counted_run)
        monkeypatch.setattr(coverramsey.berge, "verify_certificate",
                            recorded_verify)
        res = unavoidable(complete_host(6), target, target)
        assert res.verdict == UNAVOIDABLE
        assert res.colorings_examined == 2 ** 14
        # 520 (K3) and 1472 (C4) runs measured; enumerating the colorings
        # one by one runs one or two searches on each
        assert len(runs) <= res.colorings_examined // 10
        assert checks and all(checks)

    @pytest.mark.parametrize("n,verdict", [(5, AVOIDABLE), (6, UNAVOIDABLE)])
    def test_builds_at_most_the_witness_coloring(self, monkeypatch, n,
                                                 verdict):
        built = []

        def counted(*args):
            built.append(EdgeColoring(*args))
            return built[-1]

        monkeypatch.setattr(coverramsey.search, "EdgeColoring", counted)
        res = unavoidable(complete_host(n), K3, K3)
        assert res.verdict == verdict
        assert built == ([] if res.witness is None else [res.witness])


class TestClassicalRamsey:
    def test_p3_vs_p3_is_3(self):
        assert classical_ramsey_small(P3, P3, 5) == 3

    def test_k2_vs_k2_is_2(self):
        assert classical_ramsey_small(K2, K2, 3) == 2

    def test_none_when_out_of_range(self):
        assert classical_ramsey_small(K3, K3, 4) is None

    def test_mixed_targets(self):
        # R(P3, K3) = 5: the 5-cycle avoids it, K5 does not
        assert classical_ramsey_small(P3, K3, 6) == 5

    def test_c4_vs_c4_is_6(self):
        from coverramsey import cycle_graph
        c4 = cycle_graph(4)
        assert classical_ramsey_small(c4, c4, 7) == 6

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError):
            classical_ramsey_small(Hypergraph(2, [], {2}), K3, 4)


class TestScanBadEvents:
    def test_d9_all_blue_t3_counts_non_collinear_triples(self):
        hg = d9_host()
        coloring = EdgeColoring((0,) * 12)
        events = scan_bad_events(hg, coloring, 3)
        # oracle: triples of AG(2, 3) are scattered iff not a line
        lines = {e for e in hg.edges}
        non_collinear = [t for t in combinations(range(1, 10), 3)
                         if t not in lines]
        assert len(non_collinear) == 84 - 12 == 72
        assert len(events) == 72
        for ev in events:
            assert ev.color == 0
            assert len(set(ev.blocks)) == 3

    def test_t2_every_pair_is_bad(self):
        hg = d9_host()
        coloring = EdgeColoring(tuple(i % 2 for i in range(12)))
        events = scan_bad_events(hg, coloring, 2)
        assert len(events) == 36  # every pair's single block is mono

    def test_t_larger_than_n_empty(self):
        hg = d9_host()
        assert scan_bad_events(hg, EdgeColoring((0,) * 12), 10) == []

    def test_rejects_non_linear_host(self):
        hg = Hypergraph(7, list(fano().edges) + [(1, 2, 4)])
        with pytest.raises(ValueError):
            scan_bad_events(hg, EdgeColoring((0,) * 8), 3)

    def test_rejects_negative_t(self):
        with pytest.raises(ValueError):
            scan_bad_events(d9_host(), EdgeColoring((0,) * 12), -1)

    @pytest.mark.parametrize("n,k", [(9, 3), (15, 3), (16, 4), (21, 3),
                                     (25, 5)])
    def test_matches_naive_scan(self, n, k):
        hg = design_to_hypergraph(construct_resolvable_bibd(n, k))
        rng = random.Random(1000 * n + k)
        m = hg.num_edges
        colorings = [EdgeColoring(tuple(rng.randrange(2) for _ in range(m))),
                     EdgeColoring((rng.randrange(2),) * m)]
        for coloring in colorings:
            vanished = False
            for t in range(n + 2):
                got = [(ev.t_set, ev.blocks, ev.color)
                       for ev in scan_bad_events(hg, coloring, t)]
                # for t >= 3 every (t-1)-subset of a bad t-set is bad, so
                # once the oracle finds none there are none for larger t
                want = [] if vanished else naive_bad_events(hg, coloring, t)
                assert got == want, (t, coloring.colors)
                vanished = t >= 2 and not want

    def test_linear_scan_equals_berge_search(self):
        hg = d9_host()
        rng = random.Random(17)
        k4 = complete_graph(4)
        for _ in range(10):
            coloring = EdgeColoring(tuple(rng.randrange(2)
                                          for _ in range(12)))
            events = scan_bad_events(hg, coloring, 4)
            hit = contains_mono_berge(hg, coloring, k4, k4)
            assert (len(events) > 0) == (hit is not None)

    @pytest.mark.parametrize("n,k", [(9, 3), (15, 3), (16, 4)])
    @pytest.mark.parametrize("color", [0, 1])
    def test_one_color_everywhere_matches_naive_scan(self, n, k, color):
        hg = design_to_hypergraph(construct_resolvable_bibd(n, k))
        coloring = EdgeColoring((color,) * hg.num_edges)
        for t in range(9):
            got = [(ev.t_set, ev.blocks, ev.color)
                   for ev in scan_bad_events(hg, coloring, t)]
            assert got == naive_bad_events(hg, coloring, t), t

    @pytest.mark.parametrize("n,k", [(9, 3), (15, 3), (16, 4)])
    def test_first_bad_event_oracle_is_the_first_naive_event(self, n, k):
        # the rescan oracle's prefix-extension search against the full one
        hg = design_to_hypergraph(construct_resolvable_bibd(n, k))
        rng = random.Random(n + k)
        for _ in range(4):
            coloring = random_coloring(rng, hg)
            for t in range(7):
                want = naive_bad_events(hg, coloring, t)
                assert first_bad_event(hg, coloring.colors, t) == \
                    (want[0] if want else None), t

    def test_recolor_matches_a_fresh_scan(self):
        hg = design_to_hypergraph(construct_resolvable_bibd(21, 3))
        rng = random.Random(21)
        colors = [rng.randrange(2) for _ in range(hg.num_edges)]
        scan = _CliqueScan(hg, colors)
        for _ in range(200):
            b, color = rng.randrange(hg.num_edges), rng.randrange(2)
            scan.recolor(b, color)
            colors[b] = color
        fresh = _CliqueScan(hg, colors)
        assert scan.colors == fresh.colors == colors
        assert scan.adj == fresh.adj


class TestMoserTardos:
    def test_d9_t4_terminates_and_scans_clean(self):
        hg = d9_host()
        run = moser_tardos_coloring(hg, 4, seed=0)
        assert run.coloring is not None
        assert scan_bad_events(hg, run.coloring, 4) == []
        assert find_berge(hg, complete_graph(4), run.coloring, 0) is None
        assert find_berge(hg, complete_graph(4), run.coloring, 1) is None

    def test_exhaustive_cross_check_good_colorings_exist(self):
        # independent: some of the 2^12 colorings avoid all bad events
        hg = d9_host()
        good = 0
        for mask in range(2 ** 12):
            colors = tuple((mask >> i) & 1 for i in range(12))
            if not scan_bad_events(hg, EdgeColoring(colors), 4):
                good += 1
                break
        assert good > 0

    def test_deterministic_trace(self):
        hg = d9_host()
        a = moser_tardos_coloring(hg, 4, seed=3)
        b = moser_tardos_coloring(hg, 4, seed=3)
        assert a.coloring == b.coloring
        assert a.trace == b.trace
        assert a.resamples == b.resamples

    @pytest.mark.parametrize("n,k,t,resamples", [(21, 3, 5, 35),
                                                 (25, 5, 5, 12),
                                                 (27, 3, 6, 2)])
    def test_pinned_resample_counts(self, n, k, t, resamples):
        hg = design_to_hypergraph(construct_resolvable_bibd(n, k))
        run = moser_tardos_coloring(hg, t, seed=0)
        assert run.resamples == len(run.trace) == resamples
        assert scan_bad_events(hg, run.coloring, t) == []

    @pytest.mark.parametrize("n,k", [(9, 3), (15, 3), (16, 4), (21, 3),
                                     (25, 5), (27, 3)])
    def test_matches_rescan_oracle(self, n, k):
        # from t = 3: t = 2 is refused (test_t2_never_succeeds)
        hg = design_to_hypergraph(construct_resolvable_bibd(n, k))
        for t in range(3, 8):
            for seed in range(3):
                run = moser_tardos_coloring(hg, t, seed=seed,
                                            max_resamples=40)
                got = (run.coloring and run.coloring.colors, run.resamples,
                       tuple((ev.t_set, ev.blocks, ev.color)
                             for ev in run.trace))
                assert got == naive_moser_tardos(hg, t, seed, 40), (t, seed)

    def test_run_results_digest_pinned(self):
        # SHA-256 of runs of at most 60 resamples on the larger hosts,
        # taken before the scan ran on color-class bitsets; the resample
        # counts are negated where no good coloring was found
        digest = hashlib.sha256()
        counts = []
        for n, k, ts in ((49, 7, (5, 6, 7)), (81, 3, (6, 7, 8))):
            hg = design_to_hypergraph(construct_resolvable_bibd(n, k))
            for t in ts:
                for seed in (0, 1):
                    run = moser_tardos_coloring(hg, t, seed=seed,
                                                max_resamples=60)
                    counts.append(run.resamples if run.coloring
                                  else -run.resamples)
                    digest.update(repr((
                        run.coloring and run.coloring.colors, run.resamples,
                        [(ev.t_set, ev.blocks, ev.color)
                         for ev in run.trace])).encode())
        assert counts == [-60, -60, 15, 8, 0, 0, -60, -60, -60, -60, 18, -60]
        assert digest.hexdigest() == ("b03fc422d603d9c24079c68bdd1b2199"
                                      "98ce41591d63250774dee87105fc0c1a")

    def test_builds_only_the_returned_coloring(self, monkeypatch):
        built = []

        def counted(*args):
            built.append(EdgeColoring(*args))
            return built[-1]

        monkeypatch.setattr(coverramsey.search, "EdgeColoring", counted)
        hg = design_to_hypergraph(construct_resolvable_bibd(21, 3))
        run = moser_tardos_coloring(hg, 5, seed=0)
        assert run.resamples == 35
        assert built == [run.coloring]

    def test_t2_never_succeeds(self):
        # each hyperedge is a monochromatic Berge-K_2 in its own color, so
        # t = 2 is refused before the first scan, whatever the limit
        for n, k in ((9, 3), (15, 3), (16, 4), (21, 3), (25, 5), (27, 3)):
            hg = design_to_hypergraph(construct_resolvable_bibd(n, k))
            for max_resamples in (0, 30):
                with pytest.raises(ValueError, match=(
                        "^t = 2 has no good coloring on a host with a "
                        "hyperedge: each hyperedge is a monochromatic "
                        "Berge-K_2$")):
                    moser_tardos_coloring(hg, 2, seed=0,
                                          max_resamples=max_resamples)
        # an edgeless host is colored at once
        for n in (0, 1):
            run = moser_tardos_coloring(Hypergraph(n, []), 2, seed=0)
            assert run == (EdgeColoring(()), 0, ())

    def test_rejects_non_linear_host(self):
        with pytest.raises(ValueError):
            moser_tardos_coloring(Hypergraph(4, [(1, 2, 3), (1, 2, 4),
                                                 (1, 3, 4), (2, 3, 4)]),
                                  3, seed=0)


class TestLowerBoundCertificate:
    def test_d9_t4_statement(self):
        hg = d9_host()
        run = moser_tardos_coloring(hg, 4, seed=0)
        cert = lower_bound_certificate(hg, run.coloring, 4)
        assert cert.statement == "R̂³(BK₄,BK₄) ≥ 10"
        assert cert.bound == 10 and cert.method == "bad-event-scan"

    def test_pentagon_classical_bound(self):
        hg = complete_host(5)
        cycle = {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}
        coloring = EdgeColoring(tuple(0 if e in cycle else 1
                                      for e in hg.edges))
        cert = lower_bound_certificate(hg, coloring, 3)
        assert cert.statement == "R̂²(BK₃,BK₃) ≥ 6"

    def test_monochromatic_host_fails_verification(self):
        hg = fano()
        coloring = EdgeColoring((1,) * 7)
        with pytest.raises(VerificationFailure) as exc_info:
            lower_bound_certificate(hg, coloring, 3)
        exc = exc_info.value
        assert exc.color == 1
        assert verify_certificate(hg, K3, exc.certificate, coloring, 1)

    def test_non_linear_host_uses_berge_search(self):
        hg = Hypergraph(7, list(fano().edges) + [(1, 2, 4)])
        colors = (0, 1, 0, 1, 0, 1, 0, 1)
        cert = lower_bound_certificate(hg, EdgeColoring(colors), 4)
        assert cert.method == "mono-berge-search"
        assert cert.statement == "R̂³(BK₄,BK₄) ≥ 8"

    def test_requires_covering(self):
        with pytest.raises(ValueError):
            lower_bound_certificate(Hypergraph(4, [(1, 2, 3)]),
                                    EdgeColoring((0,)), 3)

    @pytest.mark.parametrize("t", [0, 1])
    @pytest.mark.parametrize("linear", [True, False])
    def test_t_below_2_rejected(self, t, linear):
        # Berge-K_0 and Berge-K_1 have no edges: every coloring holds one
        hg = (d9_host() if linear
              else Hypergraph(7, list(fano().edges) + [(1, 2, 4)]))
        coloring = EdgeColoring((0, 1) * (hg.num_edges // 2))
        with pytest.raises(ValueError, match=f"t must be at least 2, got {t}"):
            lower_bound_certificate(hg, coloring, t)
        with pytest.raises(ValueError, match=f"t must be at least 2, got {t}"):
            moser_tardos_coloring(hg, t, seed=0)

    @pytest.mark.parametrize("t", [10, 20000])
    @pytest.mark.parametrize("linear", [True, False])
    def test_t_beyond_the_host_is_vacuous(self, monkeypatch, t, linear):
        # no Berge-K_t fits on fewer than t vertices, so a certificate is
        # due at once; building K_t first would take memory quadratic in t
        hg = (d9_host() if linear
              else Hypergraph(7, list(fano().edges) + [(1, 2, 4)]))
        build = coverramsey.search.complete_graph

        def fitting_only(size):
            if size > hg.n:
                raise AssertionError(f"K_{size} built for {hg.n} vertices")
            return build(size)

        monkeypatch.setattr(coverramsey.search, "complete_graph",
                            fitting_only)
        coloring = EdgeColoring((0,) * hg.num_edges)
        cert = lower_bound_certificate(hg, coloring, t)
        assert (cert.t, cert.bound) == (t, hg.n + 1)
        assert cert.method == ("bad-event-scan" if linear
                               else "mono-berge-search")
        with pytest.raises(VerificationFailure):
            lower_bound_certificate(hg, coloring, 3)

    def test_failing_scan_certificate_is_the_event(self, monkeypatch):
        hg = design_to_hypergraph(construct_resolvable_bibd(27, 3))
        coloring = EdgeColoring((1,) * hg.num_edges)
        event = scan_bad_events(hg, coloring, 4)[0]

        def no_search(*args):
            raise AssertionError("a BergeSearch was built")

        monkeypatch.setattr(BergeSearch, "__init__", no_search)
        with pytest.raises(VerificationFailure) as exc_info:
            lower_bound_certificate(hg, coloring, 4)
        exc = exc_info.value
        assert exc.color == event.color == 1
        assert exc.certificate.vertex_dict() == dict(enumerate(event.t_set, 1))
        assert sorted(exc.certificate.edge_dict().values()) \
            == list(event.blocks)
        assert verify_certificate(hg, complete_graph(4), exc.certificate,
                                  coloring, 1)
