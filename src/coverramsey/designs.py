"""Resolvable block designs with block size k and every pair in exactly one
block (lambda = 1): construction for the supported families, a full
verifier, and conversion to the covering linear hypergraph used as a
Ramsey lower-bound host.

Implemented families:

* n = k^d for prime-power k and d >= 1: the lines of the d-dimensional
  affine space AG(d, k), one parallel class per direction.  This covers
  the one-block designs (d = 1), the affine planes (d = 2) and the
  one-factorizations of K_{2^d} (k = 2).  The field GF(k), k = p^e, is
  built directly as addition and multiplication tables on 0..k-1: base-p
  digit i of an element is its x^i coefficient, addition is digit-wise
  mod p, and products are reduced modulo the first monic irreducible
  x^e + r (r read as an element), found as the first r whose tables have
  no zero divisors.
* k = 3, n = 15: a fixed verified system (found once by exhaustive
  backtracking; frozen below).
* k = 3, n = 3q for q in {7, 13, 19, 25} (q = 6t + 1): a direct
  construction with Z_q acting by translation.  One block orbit forms a
  class that develops into q classes; the remaining 3t classes are orbits
  of transversal base blocks.  Pure same-level pairs are covered by t
  disjoint triples whose differences partition the difference classes of
  Z_q.  All of this data was found once by backtracking and is stored
  below, not searched for; the designs built from it are still verified.

Anything else raises UnsupportedParametersError; the verifier accepts
arbitrary candidate designs.
"""

from collections import Counter, namedtuple
from itertools import chain, combinations, repeat
from math import comb, isqrt

from .hypergraph import (Hypergraph, _canonical, _content_rows,
                         _format_rows, _header, _int_rows)

PARTITION_FAIL = "PARTITION_FAIL"
PAIR_COUNT_FAIL = "PAIR_COUNT_FAIL"
CLASS_COUNT_FAIL = "CLASS_COUNT_FAIL"


class UnsupportedParametersError(ValueError):
    """Raised when (n, k) lies outside the implemented design families."""


class ResolvableDesign(namedtuple("ResolvableDesign", "n k classes")):
    """Parallel classes of k-blocks over points 1..n; each class should
    partition the point set and each pair should appear in exactly one
    block overall (checked by `verify_resolvable_bibd`, not on init)."""

    __slots__ = ()

    @property
    def num_classes(self):
        return len(self.classes)

    def blocks(self):
        return [blk for c in self.classes for blk in c]


class DesignViolation(namedtuple("DesignViolation", "code detail")):
    """One failed design property: its code and a message naming it."""

    __slots__ = ()


class DesignReport(namedtuple("DesignReport", "violations")):
    """The violations a design audit found, as a tuple (empty iff the
    design is valid)."""

    __slots__ = ()

    def ok(self):
        return not self.violations


def verify_resolvable_bibd(design):
    """Full audit: every class partitions 1..n into k-blocks, every pair is
    covered exactly once, and the class count is (n - 1)/(k - 1).  Returns
    a report listing each violation, class by class and block by block,
    then pair by pair, then the class count (empty report iff valid).

    Each property is checked on whole lists, and only a part that fails
    is walked to name its violations.  A class whose blocks all have k
    points and whose sorted points are 1..n repeats no point in a block.
    When every class is such a partition, C(n, 2) distinct pairs in the
    sorted blocks (`_canonical`) are every pair of 1..n, each once."""
    n, k, classes = design.n, design.k, design.classes
    out = []
    points = list(range(1, n + 1))
    blocks = design.blocks()
    sized = not set(map(len, blocks)) - {k}
    for ci, cls in enumerate(classes):
        partition = sorted(chain.from_iterable(cls)) == points
        if not (sized and partition):
            out.extend(DesignViolation(
                PARTITION_FAIL, f"class {ci}: block {blk} is not a {k}-set")
                for blk in cls if len(blk) != k or len(set(blk)) != k)
        if not partition:
            out.append(DesignViolation(
                PARTITION_FAIL, f"class {ci} does not partition 1..{n}"))
    pairs = list(chain.from_iterable(map(combinations, _canonical(blocks),
                                         repeat(2))))
    if out or not len(pairs) == len(set(pairs)) == comb(n, 2):
        counts = Counter(pairs)
        out.extend(DesignViolation(
            PAIR_COUNT_FAIL, f"pair {p} covered {counts[p]} times")
            for p in combinations(points, 2) if counts[p] != 1)
    if k > 1 and ((n - 1) % (k - 1)
                  or len(classes) != (n - 1) // (k - 1)):
        out.append(DesignViolation(
            CLASS_COUNT_FAIL,
            f"{len(classes)} classes, expected (n-1)/(k-1) = "
            f"{(n - 1) / (k - 1):g}"))
    return DesignReport(tuple(out))


def design_to_hypergraph(design):
    """Blocks of a verified design as a covering k-uniform hypergraph; the
    lambda = 1 property makes every pair co-degree exactly 1."""
    report = verify_resolvable_bibd(design)
    if not report.ok():
        raise ValueError(f"invalid design: {report.violations[0].detail}")
    return Hypergraph(design.n, design.blocks(), uniformity={design.k})


# -- finite fields ------------------------------------------------------------


def _prime_power(q):
    """(p, e) with q = p^e for a prime p, or None if q is not a prime power."""
    if q < 2:
        return None
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    return (p, e) if q == 1 else None


def _digit_sums(p, rows, cols):
    """t[a][b], for a < rows and b < cols: a and b added base-p digit by
    digit, each digit mod p.  This is the addition of GF(p^e) in the
    encoding of `_gf_tables`, and the vector addition of GF(q)^d on the
    point ids of `_affine_classes` (p the characteristic of q)."""
    t = [list(range(cols))]
    for a in range(1, rows):  # digit 0 mod p; the higher digits by their row
        up = t[a // p]
        t.append([(a + b) % p + p * up[b // p] for b in range(cols)])
    return t


def _gf_tables(q):
    """The addition and multiplication tables of GF(q), q = p^e a prime
    power.  Element a is the polynomial over GF(p) whose x^i coefficient
    is base-p digit i of a, taken modulo x^e + r for the first r in
    0..q-1 whose quotient ring has no zero divisors, i.e. is a field."""
    p, e = _prime_power(q)
    add = _digit_sums(p, q, q)

    def row(shifts):
        """sum_i b_i shifts[i] for every b < p^len(shifts): shifts[i] plus
        the entry whose top digit i is one less."""
        out = [0]
        for i, s in enumerate(shifts):
            step, w = add[s], p ** i
            for b in range(w, w * p):
                out.append(step[out[b - w]])
        return out

    for r in range(q):  # x^e + r is irreducible for some r
        # x times each element: x^i shifts up a digit, and x^e = -r
        times_x = row([p ** i for i in range(1, e)] + [add[r].index(0)])
        mul = [[0] * q]
        for a in range(1, q):
            shifts = [a]  # a x^i for i < e
            while len(shifts) < e:
                shifts.append(times_x[shifts[-1]])
            mul.append(row(shifts))
            if mul[a].count(0) > 1:
                break  # a zero divisor: x^e + r has a factor
        else:
            return add, mul


def _affine_classes(q, d):
    """Parallel classes of AG(d, q), one per direction.  Point
    (c_0, ..., c_{d-1}) gets id 1 + sum c_i q^i.  The directions are the
    vectors whose top nonzero coordinate is 1, in ascending id order; each
    class lists its lines in ascending order.  Coordinates are GF(q)
    elements 0..q-1 and all field arithmetic is a lookup in the tables of
    `_gf_tables`.

    For a direction v whose top nonzero coordinate is j, each line has one
    point with c_j = 0, its least; the lines whose least point is below
    q^j are base + {t v}, one `map` over the base's row of the vector
    addition table, and the others are those shifted up by multiples of
    q^(j+1)."""
    mul = _gf_tables(q)[1]
    n = q ** d
    vadd = _digit_sums(_prime_power(q)[0], n // q, n)
    classes = []
    for j in range(d):
        for v in range(q ** j, 2 * q ** j):
            coords = [v // q ** i % q for i in range(j + 1)]
            ray = [sum(mul[t][c] * q ** i for i, c in enumerate(coords))
                   for t in range(q)]
            low = [sorted(map(vadd[base].__getitem__, ray))
                   for base in range(q ** j)]
            classes.append(tuple(tuple(map(shift.__add__, line))
                                 for shift in range(1, n + 1, q ** (j + 1))
                                 for line in low))
    return tuple(classes)


# -- Kirkman systems ----------------------------------------------------------

# Resolvable (15, 3, 1) system, found by exhaustive backtracking over
# parallel classes (first class fixed, lexicographic extension) and checked
# by verify_resolvable_bibd.
_KTS15 = (
    ((1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11, 12), (13, 14, 15)),
    ((1, 4, 7), (2, 5, 8), (3, 10, 13), (6, 11, 14), (9, 12, 15)),
    ((1, 5, 10), (2, 6, 12), (3, 8, 15), (4, 9, 14), (7, 11, 13)),
    ((1, 6, 15), (2, 4, 13), (3, 7, 12), (5, 9, 11), (8, 10, 14)),
    ((1, 8, 11), (2, 7, 14), (3, 6, 9), (4, 10, 15), (5, 12, 13)),
    ((1, 9, 13), (2, 11, 15), (3, 5, 14), (4, 8, 12), (6, 7, 10)),
    ((1, 12, 14), (2, 9, 10), (3, 4, 11), (5, 7, 15), (6, 8, 13)),
)

# Data of the 3q construction, per q = 6t + 1: t disjoint base triples of
# Z_q whose pair differences partition the difference classes {1..3t}, the
# level-1 and level-2 partners (bs, cs) of the level-0 points they leave
# over, and the (d, e) base block differences of the 3t developed classes.
# Found once by backtracking (lexicographic, first solution); gen-design
# and design_to_hypergraph run verify_resolvable_bibd on every design built
# from it.
_KTS_TRANSVERSALS = {
    7: (((0, 1, 3),),
        (4, 2, 6, 5), (5, 6, 2, 4),
        ((0, 0), (3, 1), (4, 6))),
    13: (((0, 1, 4), (3, 5, 10)),
         (2, 7, 6, 12, 11, 9, 8), (6, 2, 12, 9, 7, 8, 11),
         ((3, 3), (5, 7), (6, 0), (7, 8), (8, 6), (10, 2))),
    19: (((0, 1, 4), (3, 5, 12), (2, 7, 13)),
         (6, 9, 8, 14, 16, 17, 10, 18, 11, 15),
         (6, 10, 14, 17, 8, 15, 18, 11, 16, 9),
         ((6, 13), (7, 4), (8, 17), (9, 11), (10, 9), (11, 15), (12, 8),
          (15, 6), (17, 12))),
    25: (((0, 1, 3), (2, 6, 13), (4, 9, 17), (5, 11, 20)),
         (7, 10, 8, 15, 18, 12, 21, 24, 14, 22, 16, 19, 23),
         (7, 12, 15, 8, 21, 23, 18, 16, 22, 10, 14, 24, 19),
         ((7, 19), (8, 18), (9, 15), (10, 24), (11, 12), (12, 16), (13, 22),
          (14, 13), (15, 10), (16, 6), (17, 11), (18, 9))),
}


def _kts_three_q_classes(q):
    """Kirkman system on 3q points, q = 6t + 1, as described in the module
    docstring.  Point (x, level) gets id 1 + level*q + x."""
    triples, bs, cs, pairing = _KTS_TRANSVERSALS[q]

    def dev(base, x):
        return tuple(sorted((p + x) % q + lvl * q + 1 for p, lvl in base))

    classes = []
    for d, e_val in pairing:
        base = ((0, 0), (d, 1), (e_val, 2))
        classes.append(tuple(sorted(dev(base, x) for x in range(q))))
    # the same disjoint triples serve all three levels
    floating = [tuple((p, lvl) for p in pts)
                for lvl in range(3) for pts in triples]
    rem = sorted(set(range(q)).difference(*triples))
    for a, b, c in zip(rem, bs, cs):
        floating.append(((a, 0), (b, 1), (c, 2)))
    for x in range(q):
        classes.append(tuple(sorted(dev(base, x) for base in floating)))
    return tuple(classes)


def construct_resolvable_bibd(n, k):
    """Build a resolvable design for a supported (n, k); raises
    UnsupportedParametersError otherwise.  Output is deterministic and
    always passes verify_resolvable_bibd."""
    if k < 2 or n < k:
        raise UnsupportedParametersError(f"(n={n}, k={k}) is degenerate")
    d, m = 0, n
    while m % k == 0:
        m //= k
        d += 1
    if m == 1 and _prime_power(k):
        return ResolvableDesign(k ** d, k, _affine_classes(k, d))
    if k == 3:
        if n % 6 != 3:
            raise UnsupportedParametersError(
                f"no resolvable (n={n}, k=3, 1) design: n must be 3 (mod 6)")
        if n == 15:
            return ResolvableDesign(15, 3, _KTS15)
        if n // 3 in _KTS_TRANSVERSALS:
            return ResolvableDesign(n, 3, _kts_three_q_classes(n // 3))
        raise UnsupportedParametersError(
            f"n={n} outside the implemented Kirkman families "
            f"(powers of 3, 15, or 3q with q in 7, 13, 19, 25)")
    raise UnsupportedParametersError(
        f"(n={n}, k={k}) outside the implemented families "
        f"(affine spaces n = k^d with k a prime power, or k = 3)")


# -- text format --------------------------------------------------------------
#
# Line 1: "<n> <k> <m>"; then the m classes separated by a '%' line, each
# class given as n/k lines of k ascending point ids.  '#' lines are ignored.


def format_design(design):
    lines = [f"{design.n} {design.k} {design.num_classes}"]
    for ci, cls in enumerate(design.classes):
        if ci:
            lines.append("%")
        lines.extend(_format_rows(cls))
    return "\n".join(lines) + "\n"


def parse_design(text):
    """The design of a design text.  The body is cut at its '%' rows once
    and each class's rows are converted by `_int_rows`, so a row that is
    not all integers is named in file order, before the class count is
    checked."""
    rows = _content_rows(text)
    if not rows:
        raise ValueError("empty design text")
    n, k, m = _header(rows[0], "<n> <k> <m>")
    body = rows[1:]
    stripped = list(map(str.strip, body))
    cuts = [-1]
    for _ in range(stripped.count("%")):
        cuts.append(stripped.index("%", cuts[-1] + 1))
    cuts.append(len(body))
    classes = tuple(tuple(_int_rows(body[a + 1:b]))
                    for a, b in zip(cuts, cuts[1:]))
    if len(classes) != m:
        raise ValueError(f"expected {m} classes, found {len(classes)}")
    return ResolvableDesign(n, k, classes)
