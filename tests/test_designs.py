import hashlib
from itertools import combinations
from math import comb

import pytest

from coverramsey import (ResolvableDesign, UnsupportedParametersError,
                         construct_resolvable_bibd, design_to_hypergraph,
                         format_design, parse_design, verify_resolvable_bibd)
from coverramsey.designs import (CLASS_COUNT_FAIL, PAIR_COUNT_FAIL,
                                 PARTITION_FAIL)


def assert_valid(design, n, k):
    report = verify_resolvable_bibd(design)
    assert report.ok(), report.violations
    m = (n - 1) // (k - 1)
    assert design.num_classes == m
    assert len(design.blocks()) == m * n // k == comb(n, 2) // comb(k, 2)


class TestConstruction:
    def test_9_3_affine_plane(self):
        design = construct_resolvable_bibd(9, 3)
        assert_valid(design, 9, 3)
        assert design.num_classes == 4
        assert len(design.blocks()) == 12

    def test_15_3_kirkman(self):
        design = construct_resolvable_bibd(15, 3)
        assert_valid(design, 15, 3)
        assert design.num_classes == 7
        assert len(design.blocks()) == 35

    def test_21_3_kirkman(self):
        design = construct_resolvable_bibd(21, 3)
        assert_valid(design, 21, 3)
        assert design.num_classes == 10
        assert len(design.blocks()) == 70

    def test_27_3_affine_space(self):
        assert_valid(construct_resolvable_bibd(27, 3), 27, 3)

    def test_39_3_kirkman(self):
        assert_valid(construct_resolvable_bibd(39, 3), 39, 3)

    @pytest.mark.parametrize("n", [57, 75])
    def test_large_3q_kirkman(self, n):
        assert_valid(construct_resolvable_bibd(n, 3), n, 3)

    @pytest.mark.parametrize("n,digest", [
        (21, "7bfbaef8d98393e0efb17a46ce24d9ebd12403e0f93f4b31aa253eb97bf981c4"),
        (39, "930772295d8152fd026f0bdbd7444501abdc0f17f14f88959577aa19d40bee74"),
        (57, "5b10c629bdce8b36789db27d227f8f5d2734fcca267e71bb6f4b0f104fcefcee"),
        (75, "89a7f88168eb1b42e96637929f09d167983f86fbb16c934834d3264d9e510855"),
    ])
    def test_3q_kirkman_text_pinned(self, n, digest):
        # digests of the systems the transversal backtracking search built
        text = format_design(construct_resolvable_bibd(n, 3))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_3_3_trivial(self):
        design = construct_resolvable_bibd(3, 3)
        assert_valid(design, 3, 3)
        assert design.classes == (((1, 2, 3),),)

    def test_25_5_affine_plane(self):
        design = construct_resolvable_bibd(25, 5)
        assert_valid(design, 25, 5)
        assert design.num_classes == 6
        assert len(design.blocks()) == 30

    def test_16_4_affine_plane_prime_power(self):
        assert_valid(construct_resolvable_bibd(16, 4), 16, 4)

    def test_49_7_affine_plane(self):
        assert_valid(construct_resolvable_bibd(49, 7), 49, 7)

    def test_4_2_one_factorization(self):
        assert_valid(construct_resolvable_bibd(4, 2), 4, 2)

    def test_deterministic(self):
        assert (construct_resolvable_bibd(21, 3)
                == construct_resolvable_bibd(21, 3))

    @pytest.mark.parametrize("n,k", [(7, 3), (11, 3), (6, 3), (13, 3),
                                     (33, 3), (10, 4), (20, 5)])
    def test_unsupported_parameters(self, n, k):
        with pytest.raises(UnsupportedParametersError):
            construct_resolvable_bibd(n, k)


class TestVerifier:
    def test_valid_design_empty_report(self):
        assert verify_resolvable_bibd(construct_resolvable_bibd(9, 3)).ok()

    def test_blocks_swapped_between_classes(self):
        design = construct_resolvable_bibd(9, 3)
        classes = [list(c) for c in design.classes]
        classes[0][0], classes[1][0] = classes[1][0], classes[0][0]
        bad = ResolvableDesign.from_lists(9, 3, classes)
        assert PARTITION_FAIL in verify_resolvable_bibd(bad).codes()

    def test_duplicated_block(self):
        design = construct_resolvable_bibd(9, 3)
        classes = [list(c) for c in design.classes]
        classes[1] = list(classes[0])
        bad = ResolvableDesign.from_lists(9, 3, classes)
        assert PAIR_COUNT_FAIL in verify_resolvable_bibd(bad).codes()

    def test_missing_class(self):
        design = construct_resolvable_bibd(9, 3)
        bad = ResolvableDesign.from_lists(9, 3, design.classes[:-1])
        codes = verify_resolvable_bibd(bad).codes()
        assert CLASS_COUNT_FAIL in codes and PAIR_COUNT_FAIL in codes

    def test_wrong_block_size(self):
        bad = ResolvableDesign.from_lists(6, 3, [[(1, 2, 3), (4, 5, 6)],
                                                 [(1, 4), (2, 5, 6, 3)]])
        assert PARTITION_FAIL in verify_resolvable_bibd(bad).codes()

    def test_every_single_point_corruption_detected(self):
        design = construct_resolvable_bibd(9, 3)
        for ci in range(design.num_classes):
            for bi in range(3):
                for pi in range(3):
                    classes = [[list(blk) for blk in c]
                               for c in design.classes]
                    old = classes[ci][bi][pi]
                    classes[ci][bi][pi] = old % 9 + 1
                    bad = ResolvableDesign.from_lists(9, 3, classes)
                    assert not verify_resolvable_bibd(bad).ok(), \
                        (ci, bi, pi)


class TestDesignToHypergraph:
    def test_9_3_hypergraph(self):
        hg = design_to_hypergraph(construct_resolvable_bibd(9, 3))
        assert hg.n == 9 and hg.num_edges == 12
        assert hg.uniformity == frozenset({3})
        assert hg.is_covering()
        assert all(hg.codegree(p) == 1
                   for p in combinations(range(1, 10), 2))

    def test_15_3_hypergraph(self):
        hg = design_to_hypergraph(construct_resolvable_bibd(15, 3))
        assert hg.num_edges == 35
        assert hg.min_codegree() == 1
        assert max(len(v) for v in hg.pair_edges().values()) == 1

    def test_invalid_design_rejected(self):
        bad = ResolvableDesign.from_lists(6, 3, [[(1, 2, 3), (4, 5, 6)]])
        with pytest.raises(ValueError):
            design_to_hypergraph(bad)


class TestTextFormat:
    @pytest.mark.parametrize("n,k", [(9, 3), (15, 3), (25, 5)])
    def test_round_trip(self, n, k):
        design = construct_resolvable_bibd(n, k)
        assert parse_design(format_design(design)) == design

    def test_comments_ignored(self):
        design = construct_resolvable_bibd(9, 3)
        text = "# generated\n" + format_design(design)
        assert parse_design(text) == design

    def test_class_count_mismatch(self):
        design = construct_resolvable_bibd(9, 3)
        text = format_design(design).replace("9 3 4", "9 3 5", 1)
        with pytest.raises(ValueError):
            parse_design(text)
