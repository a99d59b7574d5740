"""Independent brute-force oracles and random-instance generators shared by
the unit and acceptance tests.  Everything here deliberately avoids the
library's own search heuristics: vertex injections and edge injections are
enumerated directly.
"""

import random
from itertools import combinations, permutations

from coverramsey import (EdgeColoring, Hypergraph, ResolvableDesign,
                         construct_resolvable_bibd)
from coverramsey.designs import (CLASS_COUNT_FAIL, PAIR_COUNT_FAIL,
                                 PARTITION_FAIL, DesignViolation)

FANO_LINES = ((1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7),
              (3, 4, 7), (3, 5, 6))


def fano():
    return Hypergraph(7, FANO_LINES, uniformity={3})


def naive_contains_berge(hg, g, coloring=None, color=None):
    """Presence check by direct enumeration of all injective vertex maps
    and, for each, all injective edge assignments."""
    allowed = set(range(hg.num_edges))
    if coloring is not None and color is not None:
        allowed = {i for i in allowed if coloring.colors[i] == color}
    if g.num_edges > len(allowed) or g.n > hg.n:
        return False
    if g.num_edges == 0:
        return True
    host_edge_sets = [set(e) for e in hg.edges]

    def assign_edges(ei, used, vmap):
        if ei == g.num_edges:
            return True
        u, v = g.edges[ei]
        want = {vmap[u], vmap[v]}
        for h in allowed:
            if h in used or not want <= host_edge_sets[h]:
                continue
            used.add(h)
            if assign_edges(ei + 1, used, vmap):
                return True
            used.discard(h)
        return False

    for image in permutations(range(1, hg.n + 1), g.n):
        vmap = {gv: image[gv - 1] for gv in range(1, g.n + 1)}
        if assign_edges(0, set(), vmap):
            return True
    return False


def binary_unavoidable(hg, g1, g2, shard=None):
    """The plain binary enumeration that `unavoidable` reproduces, on the
    naive presence check.  A shard prefix fixes the leading p edges (edge
    0 blue when g1 == g2 and no shard is given), and the x-th free
    coloring gives edge i >= p the color of bit i - p of x.  Returns
    (verdict, witness colors or None, colorings examined), the first
    avoiding coloring being the witness."""
    m = hg.num_edges
    if shard is None:
        shard = "0" if g1 == g2 and m > 0 else ""
    prefix = tuple(map(int, shard))
    p = len(prefix)
    for x in range(2 ** (m - p)):
        colors = prefix + tuple(x >> (i - p) & 1 for i in range(p, m))
        coloring = EdgeColoring(colors)
        if not (naive_contains_berge(hg, g1, coloring, 0)
                or naive_contains_berge(hg, g2, coloring, 1)):
            return "AVOIDABLE", colors, x + 1
    return "UNAVOIDABLE", None, 2 ** (m - p)


def naive_unavoidable(hg, g1, g2):
    """The binary enumeration of all 2^m colorings, no symmetry cut;
    returns (verdict_is_unavoidable, witness_colors_or_None)."""
    verdict, witness, _ = binary_unavoidable(hg, g1, g2, shard="")
    return verdict == "UNAVOIDABLE", witness


def random_hypergraph(rng, n_max=6, m_max=8, k_max=4):
    """Random small hypergraph: n in 2..n_max, up to m_max distinct edges
    of sizes 2..min(k_max, n)."""
    n = rng.randint(2, n_max)
    target_m = rng.randint(1, m_max)
    edges = set()
    for _ in range(4 * target_m):
        size = rng.randint(2, min(k_max, n))
        edges.add(tuple(sorted(rng.sample(range(1, n + 1), size))))
        if len(edges) == target_m:
            break
    return Hypergraph(n, edges)


def random_covering_hypergraph(rng, n, k=3, extra=4, mixed=False):
    """Random covering host: a few random k-edges plus one completing edge
    per uncovered pair (the pair itself, or the pair with a random extra
    vertex; `mixed` allows both, giving a {2, k}-host)."""
    edges = set()
    if k >= 3:
        for _ in range(extra):
            edges.add(tuple(sorted(rng.sample(range(1, n + 1), k))))
    covered = {p for e in edges for p in combinations(e, 2)}
    for pair in combinations(range(1, n + 1), 2):
        if pair in covered:
            continue
        if k == 2 or (mixed and rng.random() < 0.3):
            e = pair
        else:
            others = [v for v in range(1, n + 1) if v not in pair]
            e = tuple(sorted(pair + (rng.choice(others),)))
        edges.add(e)
        covered.update(combinations(e, 2))
    return Hypergraph(n, edges)


def design_from_lists(n, k, classes):
    """The ResolvableDesign of `classes` given as lists of point lists,
    unchecked, so that tests can build broken designs."""
    return ResolvableDesign(
        int(n), int(k), tuple(tuple(tuple(int(p) for p in blk) for blk in c)
                              for c in classes))


def random_design(rng):
    """A resolvable design of a small supported (n, k), its points
    relabelled by a random permutation and the blocks of each class
    shuffled; every block stays ascending."""
    n, k = rng.choice(((4, 2), (8, 2), (9, 3), (15, 3), (16, 4), (25, 5)))
    label = [0] + rng.sample(range(1, n + 1), n)
    classes = []
    for cls in construct_resolvable_bibd(n, k).classes:
        blocks = [tuple(sorted(label[p] for p in blk)) for blk in cls]
        rng.shuffle(blocks)
        classes.append(tuple(blocks))
    return ResolvableDesign(n, k, tuple(classes))


def design_violations(design):
    """Every violation of the design, class by class and block by block,
    then pair by pair, then the class count: the block-by-block reference
    for `verify_resolvable_bibd`'s report."""
    n, k = design.n, design.k
    out = []
    points = set(range(1, n + 1))
    for ci, cls in enumerate(design.classes):
        flat = [p for blk in cls for p in blk]
        for blk in cls:
            if len(blk) != k or len(set(blk)) != k:
                out.append(DesignViolation(
                    PARTITION_FAIL, f"class {ci}: block {blk} is not a "
                                    f"{k}-set"))
        if set(flat) != points or len(flat) != n:
            out.append(DesignViolation(
                PARTITION_FAIL, f"class {ci} does not partition 1..{n}"))
    counts = {}
    for blk in design.blocks():
        for p in combinations(sorted(set(blk)), 2):
            counts[p] = counts.get(p, 0) + 1
    for p in combinations(sorted(points), 2):
        c = counts.get(p, 0)
        if c != 1:
            out.append(DesignViolation(
                PAIR_COUNT_FAIL, f"pair {p} covered {c} times"))
    expected_m = (n - 1) // (k - 1) if k > 1 else 0
    if k > 1 and ((n - 1) % (k - 1) != 0
                  or design.num_classes != expected_m):
        out.append(DesignViolation(
            CLASS_COUNT_FAIL,
            f"{design.num_classes} classes, expected (n-1)/(k-1) = "
            f"{(n - 1) / (k - 1):g}"))
    return out


def random_coloring(rng, hg):
    return EdgeColoring(tuple(rng.randrange(2) for _ in range(hg.num_edges)))


def _bad_set_test(hg, colors):
    """bad(vertex_set): (sorted blocks, color) when the set's pair blocks
    are pairwise distinct and share one color, else None.  Sets of fewer
    than 2 vertices are never bad."""
    block_of = {p: i for i, e in enumerate(hg.edges)
                for p in combinations(e, 2)}.__getitem__

    def bad(vertex_set):
        pairs = len(vertex_set) * (len(vertex_set) - 1) // 2
        blocks = set(map(block_of, combinations(vertex_set, 2)))
        if pairs and len(blocks) == pairs:
            cs = {colors[b] for b in blocks}
            if len(cs) == 1:
                return tuple(sorted(blocks)), cs.pop()
        return None

    return bad


def naive_bad_events(hg, coloring, t):
    """Every vertex t-set of a linear host whose C(t, 2) pair blocks are
    pairwise distinct and share one color, found by testing all C(n, t)
    sets; returns (t_set, sorted blocks, color) triples in lexicographic
    order."""
    bad = _bad_set_test(hg, coloring.colors)
    return [(t_set,) + found
            for t_set in combinations(range(1, hg.n + 1), t)
            if (found := bad(t_set))]


def first_bad_event(hg, colors, t):
    """The first of `naive_bad_events` for the colors, or None, by the same
    test on vertex sets in lexicographic order; a set is extended only
    when it is bad itself, since every subset of a bad set is bad."""
    bad = _bad_set_test(hg, colors)

    def first(prefix):
        for x in range(prefix[-1] + 1 if prefix else 1, hg.n + 1):
            grown = prefix + (x,)
            if len(grown) >= 2 and not (found := bad(grown)):
                continue
            if len(grown) == t:
                return (grown,) + found
            hit = first(grown)
            if hit:
                return hit
        return None

    return first(()) if t >= 2 else None


def naive_moser_tardos(hg, t, seed=0, max_resamples=10 ** 6):
    """Moser-Tardos resampling that rescans the whole host for the least
    bad event after every resample (`first_bad_event`), with the seeded
    random stream of `moser_tardos_coloring`: the initial colors in edge
    order, then one draw per block of each resampled event.  Returns
    (final colors or None, resample count, trace of (t_set, blocks, color))."""
    rng = random.Random(seed)
    colors = [rng.randrange(2) for _ in range(hg.num_edges)]
    trace = []
    while True:
        event = first_bad_event(hg, colors, t)
        if event is None:
            return tuple(colors), len(trace), tuple(trace)
        if len(trace) >= max_resamples:
            return None, len(trace), tuple(trace)
        trace.append(event)
        for b in event[1]:
            colors[b] = rng.randrange(2)
