import hashlib
import random
from itertools import combinations
from math import comb

import pytest

from coverramsey import (UnsupportedParametersError,
                         construct_resolvable_bibd, design_to_hypergraph,
                         format_design, parse_design, verify_resolvable_bibd)
from coverramsey.designs import (CLASS_COUNT_FAIL, PAIR_COUNT_FAIL,
                                 PARTITION_FAIL, DesignReport, _gf_tables,
                                 _prime_power)

from _oracles import design_from_lists, design_violations, random_design


def is_prime_power(q):
    return q > 1 and len({p for p in range(2, q + 1) if q % p == 0
                          and all(p % r for r in range(2, p))}) == 1


@pytest.fixture(scope="module")
def random_designs():
    """1,000 seeded `random_design`s."""
    rng = random.Random(20)
    return [random_design(rng) for _ in range(1000)]


@pytest.fixture(scope="module")
def sweep():
    """Every design built for 2 <= n < 260, 2 <= k <= 16, by (n, k)."""
    out = {}
    for n in range(2, 260):
        for k in range(2, 17):
            try:
                out[n, k] = construct_resolvable_bibd(n, k)
            except UnsupportedParametersError:
                pass
    return out


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


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

    @pytest.mark.parametrize("n,digest", [
        (27, "1e67429891b4b916f46ab519e1d370b0393ee9b59a3fece3b80b7b2286f6708a"),
        (81, "1a22c4d86444cccca506fba3632ead8213680c0501675d12eaf7fcf8dbae4d48"),
        (243,
         "bce10923099af4b8338fa9fb86bc21e04959b54a396361909582be311c654117"),
    ])
    def test_affine_gf3_text_pinned(self, n, digest):
        # digests of the systems the former AG(d, 3) builder made
        assert sha256(format_design(construct_resolvable_bibd(n, 3))) \
            == digest

    @pytest.mark.parametrize("n,k,digest", [
        (9, 3,
         "2f485321a8b1c33a46a7bdea85aa5cc095b8854737bc4de330cb374d093b63c0"),
        (16, 4,
         "341e42e0a93895496cbce099f391dfb26141392f94db9504f43aaf7f1ec07238"),
        (25, 5,
         "82510f37e3450b49be1ff5e769831c8bb5dc5dac122b9ee69814477f816bf9d6"),
        (49, 7,
         "e6c91725bc6f6de12c88ae91d37c514db57d8f5f556d3a077f4607befde7b20d"),
    ])
    def test_affine_plane_text_pinned(self, n, k, digest):
        # digests of the planes the former plane builder made, with its
        # last (vertical) class moved to the front
        design = construct_resolvable_bibd(n, k)
        assert design.classes[0][0] == tuple(range(1, k + 1))
        assert sha256(format_design(design)) == digest

    @pytest.mark.parametrize("n,k,digest", [
        (64, 4,
         "bc09d2f503121977df02784edbc6a9fd02ee4e22e132b0d5f24b655e62c7b938"),
        (256, 4,
         "aa7291abbb4bd236b8d817963f3ca447442b6098eaf70a413ff1b059ac1b184c"),
        (64, 8,
         "609cb57cf545dd286d3dddc684767b2009ff0f72aa4702f8c6f2f5244abba1e9"),
        (81, 9,
         "a342976d54ac5f654b718a986bd59d8fb14cbd62e419950ed6272189c6d23a58"),
        (256, 16,
         "cc69f14cedb1276719eefeeac6dd974ae769196d6dfaaaaf930590bd731c1b52"),
    ])
    def test_affine_gf_prime_power_text_pinned(self, n, k, digest):
        # digests of the designs built over GF(p^e) with polynomial
        # arithmetic and a trial-division search for the modulus
        assert sha256(format_design(construct_resolvable_bibd(n, k))) \
            == digest

    def test_affine_classes_pinned(self, sweep):
        # one digest of the classes of all 32 affine designs AG(d, k) in
        # the sweep, as the per-point builder made them: same lines, same
        # order, int points in tuples
        affine = [(n, k, design.classes)
                  for (n, k), design in sorted(sweep.items())
                  if (n, k) not in {(15, 3), (21, 3), (39, 3), (57, 3),
                                    (75, 3)}]
        assert len(affine) == 32
        assert sha256(repr(affine)) == (
            "103799ad11e2d12f47018b917d2f74d363fd2cf895c61f1087d074c4d18a3d67")

    def test_supported_parameters_sweep(self, sweep):
        expected = ({(k ** d, k) for k in range(2, 17) if is_prime_power(k)
                     for d in range(1, 9) if k ** d < 260}
                    | {(15, 3)} | {(3 * q, 3) for q in (7, 13, 19, 25)})
        assert len(expected) == 37
        assert set(sweep) == expected
        for (n, k), design in sweep.items():
            assert (design.n, design.k) == (n, k)
            assert_valid(design, n, k)

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
        bad = design_from_lists(9, 3, classes)
        assert PARTITION_FAIL in verify_resolvable_bibd(bad).codes()

    def test_duplicated_block(self):
        design = construct_resolvable_bibd(9, 3)
        classes = [list(c) for c in design.classes]
        classes[1] = list(classes[0])
        bad = design_from_lists(9, 3, classes)
        assert PAIR_COUNT_FAIL in verify_resolvable_bibd(bad).codes()

    def test_missing_class(self):
        design = construct_resolvable_bibd(9, 3)
        bad = design_from_lists(9, 3, design.classes[:-1])
        codes = verify_resolvable_bibd(bad).codes()
        assert CLASS_COUNT_FAIL in codes and PAIR_COUNT_FAIL in codes

    def test_wrong_block_size(self):
        bad = design_from_lists(6, 3, [[(1, 2, 3), (4, 5, 6)],
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
                    bad = design_from_lists(9, 3, classes)
                    assert not verify_resolvable_bibd(bad).ok(), \
                        (ci, bi, pi)


def _mutate(design, change):
    """The design with `change(classes)` applied to a mutable copy of its
    classes (lists of block lists)."""
    classes = [[list(blk) for blk in c] for c in design.classes]
    change(classes)
    return design_from_lists(design.n, design.k, classes)


def _reverse_block(classes):
    classes[0][0].reverse()


def _repeat_point(classes):
    classes[0][0][1] = classes[0][0][0]


def _swap_across_blocks(classes):
    # the class still partitions 1..n, but the moved points meet pairs
    # that other classes already cover
    classes[0][0][0], classes[0][1][0] = classes[0][1][0], classes[0][0][0]


def _drop_class(classes):
    classes.pop()


def _point_out_of_range(classes):
    classes[-1][-1][-1] = 999


def _repeat_class(classes):
    classes.append(classes[0])


def _last_class_as_first_reversed(classes):
    # C(n, 2) pairs, each class a partition, but the first class's pairs
    # twice: once ascending, once descending, so that only a pair check
    # on sorted blocks sees them repeat
    classes[-1] = [blk[::-1] for blk in classes[0]]


# (mutation, codes of the walk's report); the reversed block is still valid
MUTATIONS = [
    (_reverse_block, set()),
    (_last_class_as_first_reversed, {PAIR_COUNT_FAIL}),
    (_repeat_point, {PARTITION_FAIL, PAIR_COUNT_FAIL}),
    (_swap_across_blocks, {PAIR_COUNT_FAIL}),
    (_drop_class, {PAIR_COUNT_FAIL, CLASS_COUNT_FAIL}),
    (_point_out_of_range, {PARTITION_FAIL, PAIR_COUNT_FAIL}),
    (_repeat_class, {PAIR_COUNT_FAIL, CLASS_COUNT_FAIL}),
]


class TestWholeListAudit:
    """The one-pass audit reports what the block-by-block walk finds, with
    the same violations in the same order."""

    @staticmethod
    def assert_agree(design):
        walk = DesignReport(tuple(design_violations(design)))
        assert verify_resolvable_bibd(design) == walk
        return walk

    def test_every_supported_design(self, sweep):
        for design in sweep.values():
            assert self.assert_agree(design).ok()

    @pytest.mark.parametrize("change,codes", MUTATIONS,
                             ids=[m[0].__name__ for m in MUTATIONS])
    def test_mutations(self, sweep, random_designs, change, codes):
        for (n, k), design in sweep.items():
            if n > 81 or k == n:  # one block: no second block to swap
                continue
            assert self.assert_agree(_mutate(design, change)).codes() \
                == codes, (n, k)
        # relabelled designs, each also audited with its block size k
        # replaced by 1, 0 and k + 1, so that no block has k points
        for design in random_designs:
            mutant = _mutate(design, change)
            assert self.assert_agree(mutant).codes() == codes
            for k in (1, 0, design.k + 1):
                self.assert_agree(mutant._replace(k=k))

    def test_degenerate_block_size_uses_the_walk(self):
        assert self.assert_agree(
            design_from_lists(1, 1, [[(1,)]])).ok()
        assert self.assert_agree(design_from_lists(
            3, 1, [[(1,), (2,), (3,)]])).codes() == {PAIR_COUNT_FAIL}


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
        bad = design_from_lists(6, 3, [[(1, 2, 3), (4, 5, 6)]])
        with pytest.raises(ValueError):
            design_to_hypergraph(bad)


class TestTextFormat:
    @pytest.mark.parametrize("n,k", [(9, 3), (15, 3), (25, 5)])
    def test_round_trip(self, n, k):
        design = construct_resolvable_bibd(n, k)
        assert parse_design(format_design(design)) == design

    def test_round_trip_sweep(self, sweep):
        for design in sweep.values():
            assert parse_design(format_design(design)) == design

    @pytest.mark.parametrize("text", ["9 3\n", "9 x 4\n", "9 3 4 5\n"])
    def test_bad_header(self, text):
        with pytest.raises(ValueError) as exc:
            parse_design(text)
        assert str(exc.value) == \
            f"header must be '<n> <k> <m>', got {text.strip()!r}"

    def test_comments_ignored(self):
        design = construct_resolvable_bibd(9, 3)
        text = "# generated\n" + format_design(design)
        assert parse_design(text) == design

    def test_class_count_mismatch(self):
        design = construct_resolvable_bibd(9, 3)
        text = format_design(design).replace("9 3 4", "9 3 5", 1)
        with pytest.raises(ValueError):
            parse_design(text)


# (design text, message): the first failing check wins, in the order
# empty text, header, non-integer row (in file order, whatever the class
# count), class count
DESIGN_MESSAGES = [
    ("", "empty design text"),
    ("# only a comment\n\n", "empty design text"),
    ("3 3\n1 2 3\n", "header must be '<n> <k> <m>', got '3 3'"),
    ("3 x 1\n1 2 x\n", "header must be '<n> <k> <m>', got '3 x 1'"),
    ("3 3 1\n1 2 x\n", "non-integer entry in line '1 2 x'"),
    ("3 3 5\n1 2 x\n", "non-integer entry in line '1 2 x'"),
    ("3 3 2\n1 2 3\n%\n1 x 3\n%\n1 2 y\n",
     "non-integer entry in line '1 x 3'"),
    ("3 3 1\n1 2 3\n%%\n", "non-integer entry in line '%%'"),
    ("3 3 2\n1 2 3\n % 1\n1 2 3\n", "non-integer entry in line ' % 1'"),
    ("3 3 2\n1 2 3\n", "expected 2 classes, found 1"),
    ("3 3 1\n1 2 3\n%\n", "expected 1 classes, found 2"),
    ("3 3 1\n%\n\t%  \n", "expected 1 classes, found 3"),
]


@pytest.mark.parametrize("text,message", DESIGN_MESSAGES)
def test_parse_design_messages(text, message):
    with pytest.raises(ValueError) as info:
        parse_design(text)
    assert str(info.value) == message


def test_parse_design_cuts_at_separator_rows_only():
    text = "# c\n3 3 4\n%\n  %\t\n3 1 2\n\n# c\n1 2 3\n%\n"
    design = parse_design(text)
    assert design == design_from_lists(
        3, 3, [[], [], [(3, 1, 2), (1, 2, 3)], []])
    assert all(type(p) is int for c in design.classes for blk in c
               for p in blk)


class TestField:
    @pytest.mark.parametrize("q", [q for q in range(2, 33)
                                   if is_prime_power(q)])
    def test_field_axioms(self, q):
        add, mul = _gf_tables(q)
        els = range(q)
        for a in els:
            assert add[a][0] == a and mul[a][1] == a and mul[a][0] == 0
            assert 0 in add[a]
            assert a == 0 or 1 in mul[a]
            for b in els:
                assert add[a][b] == add[b][a] and mul[a][b] == mul[b][a]
                for c in els:
                    assert add[add[a][b]][c] == add[a][add[b][c]]
                    assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                    assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
        if len({p for p in range(2, q + 1) if q % p == 0}) == 1:  # prime
            assert add == [[(a + b) % q for b in els] for a in els]
            assert mul == [[a * b % q for b in els] for a in els]

    @pytest.mark.parametrize("q", [0, 1, 6, 12, 100])
    def test_not_a_prime_power(self, q):
        assert _prime_power(q) is None

    @pytest.mark.parametrize("q,pe", [(2, (2, 1)), (4, (2, 2)),
                                      (243, (3, 5)), (251, (251, 1)),
                                      (256, (2, 8))])
    def test_prime_power(self, q, pe):
        assert _prime_power(q) == pe
