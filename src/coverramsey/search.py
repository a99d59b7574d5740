"""Coloring-space search: exhaustive unavoidability verdicts over all
2-colorings of a host, exact small classical Ramsey numbers (2-uniform
hosts), monochromatic-clique bad-event scans on linear design hosts, a
Moser-Tardos resampler that constructs good colorings, and verified
lower-bound certificates.
"""

import random
from collections import namedtuple
from functools import partial

from ._common import (DEFAULT_COLORING_LIMIT, DEFAULT_MAX_RESAMPLES,
                      LimitExceededError, VerificationFailure)
from .berge import (BergeSearch, complete_graph, contains_mono_berge,
                    lift_embedding)
from .hypergraph import (EdgeColoring, check_coloring, complete_host,
                         format_coloring, format_hypergraph)

UNAVOIDABLE = "UNAVOIDABLE"
AVOIDABLE = "AVOIDABLE"


class UnavoidabilityResult(namedtuple(
        "UnavoidabilityResult",
        "verdict witness colorings_examined shard_spec", defaults=(None,))):
    """A verdict, the AVOIDABLE witness EdgeColoring (else None), the
    colorings counted, and the shard spec (None for a whole search)."""

    __slots__ = ()


def _check_limit(limit):
    if limit < 1:
        raise ValueError(f"coloring limit must be at least 1, got {limit}")


def unavoidable(hg, g1, g2, shard=None, limit=DEFAULT_COLORING_LIMIT):
    """Decide whether every 2-coloring of the host contains a blue Berge-G1
    or a red Berge-G2.

    The colors of the first p edges are fixed by a prefix: `shard` when
    given (a bit string, letting callers partition the space into
    independent prefix shards), else "0" when g1 == g2 (color swap is a
    symmetry, so edge 0 may be blue), else the empty prefix.  The free
    edges p..m-1 are colored by a depth-first search from edge m - 1 down,
    blue before red, so colorings are visited in plain binary order: free
    edge i is bit i - p of the position.  Containing a Berge target is
    monotone in a color class, so a node is cut, with its whole subtree,
    as soon as the edge it colors blue gives the blue class a Berge-G1
    (or, colored red, gives the red class a Berge-G2); the root checks
    both classes of the prefix.  The G1 and G2 searches are built once.

    The first coloring avoiding both targets becomes the AVOIDABLE witness,
    and `colorings_examined` is its position plus one; when UNAVOIDABLE it
    is every free coloring, 2^(m - p).  Raises ValueError if `limit` < 1
    and LimitExceededError if the free space exceeds `limit`.
    """
    _check_limit(limit)
    m = hg.num_edges
    prefix = _prefix(shard, g1, g2, m)
    p = len(prefix)
    if 2 ** (m - p) > limit:
        raise LimitExceededError(
            f"{2 ** (m - p)} colorings exceed the limit {limit}; use shards")

    first = BergeSearch(hg, g1)
    searches = (first, first if g2 == g1 else BergeSearch(hg, g2))

    def holds(color, allowed):
        """Whether the color class `allowed` holds its target."""
        return searches[color].certificate(allowed) is not None

    def visit(i, blue, red):
        """The red class of the first surviving leaf below the node where
        edges i + 1..m - 1 are colored, or None."""
        if i < p:
            return red
        bit = 1 << i
        leaf = None if holds(0, blue | bit) else visit(i - 1, blue | bit, red)
        if leaf is None and not holds(1, red | bit):
            leaf = visit(i - 1, blue, red | bit)
        return leaf

    blue = sum(1 << i for i, ch in enumerate(prefix) if ch == "0")
    red = sum(1 << i for i, ch in enumerate(prefix) if ch == "1")
    if not (holds(0, blue) or holds(1, red)):
        red = visit(m - 1, blue, red)
        if red is not None:
            witness = EdgeColoring(tuple(red >> i & 1 for i in range(m)))
            return UnavoidabilityResult(AVOIDABLE, witness, (red >> p) + 1,
                                        shard)
    return UnavoidabilityResult(UNAVOIDABLE, None, 2 ** (m - p), shard)


def _prefix(shard, g1, g2, m):
    """The colors `unavoidable` fixes on the first edges of a host with m
    edges, as a bit string: `shard`, else "0" when g1 == g2, else none."""
    if shard is None:
        return "0" if g1 == g2 and m > 0 else ""
    if len(shard) > m or any(ch not in "01" for ch in shard):
        raise ValueError(f"bad shard prefix {shard!r} for {m} edges")
    return shard


def shard_prefixes(bits):
    """All 2^bits shard descriptors of the given length."""
    return [format(v, f"0{bits}b") for v in range(2 ** bits)] if bits else [""]


def _shards(g1, g2, m, bits):
    """The `shard` arguments of the runs of `unavoidable_sharded`, in the
    order their results are merged."""
    if bits < 0:
        raise ValueError(f"shard bits must be non-negative, got {bits}")
    prefixes = shard_prefixes(min(bits, m))
    if g1 == g2:
        prefixes = [p or None for p in prefixes if not p.startswith("1")]
    return prefixes


def unavoidable_sharded(hg, g1, g2, bits, limit=DEFAULT_COLORING_LIMIT,
                        jobs=1):
    """Run the prefix shards of the given bit length and merge verdicts:
    AVOIDABLE (with the witness) iff any shard is AVOIDABLE.

    Shards are consumed in prefix order and the scan stops at the first
    AVOIDABLE shard, so the merged result (witness included) is identical
    whatever the worker count.  When g1 == g2 only the "0..." shards run:
    the color swap maps each "1..." shard onto an earlier "0..." shard,
    and the single shard of bit length 0 gets `unavoidable`'s edge-0 cut.
    """
    prefixes = _shards(g1, g2, hg.num_edges, bits)
    _check_limit(limit)
    run = partial(unavoidable, hg, g1, g2, limit=limit)
    pool = None
    workers = min(jobs, len(prefixes))
    if workers > 1:
        # a fork pool starts all its workers at the first submit, so it
        # gets no more of them than there are shards
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=workers)
    examined = 0
    try:
        for r in pool.map(run, prefixes) if pool else map(run, prefixes):
            examined += r.colorings_examined
            if r.verdict == AVOIDABLE:
                return UnavoidabilityResult(AVOIDABLE, r.witness, examined,
                                            f"merged[{bits}]")
    finally:
        if pool is not None:
            # pending shards are cancelled and running ones awaited
            pool.shutdown(cancel_futures=True)
    return UnavoidabilityResult(UNAVOIDABLE, None, examined,
                                f"merged[{bits}]")


def avoidable_counters(hg, g1, g2, witness, shard=None, bits=None):
    """The `colorings_examined` and `shard_spec` of the AVOIDABLE result
    with this witness from `unavoidable(hg, g1, g2, shard)`, or, when
    `bits` is given, from `unavoidable_sharded(hg, g1, g2, bits)`, derived
    without a search; None when the witness extends no prefix of the run.

    Each run before the one whose prefix q the witness extends was
    UNAVOIDABLE and counts all 2^(m - |q'|) colorings of its free edges;
    the witness's run counts the witness's binary position, its red bits
    above q, plus one."""
    m = hg.num_edges
    if bits is None:
        runs, spec = [shard], shard
    else:
        runs, spec = _shards(g1, g2, m, bits), f"merged[{bits}]"
    red = sum(c << i for i, c in enumerate(witness.colors))
    examined = 0
    for run in runs:
        prefix = _prefix(run, g1, g2, m)
        p = len(prefix)
        if witness.colors[:p] == tuple(map(int, prefix)):
            return examined + (red >> p) + 1, spec
        examined += 2 ** (m - p)
    return None


def classical_ramsey_small(g1, g2, n_max, limit=DEFAULT_COLORING_LIMIT):
    """Smallest n <= n_max such that every 2-coloring of K_n contains a
    blue G1 or red G2, confirmed avoidable at n - 1; None if no such n."""
    if g1.num_edges == 0 or g2.num_edges == 0:
        raise ValueError("Ramsey targets must be non-empty")
    # scanning upward means every returned n was AVOIDABLE at n - 1
    # (K_1 is vacuously avoidable for non-empty targets)
    for n in range(2, n_max + 1):
        res = unavoidable(complete_host(n), g1, g2, limit=limit)
        if res.verdict == UNAVOIDABLE:
            return n
    return None


class BadEvent(namedtuple("BadEvent", "t_set blocks color")):
    """A vertex t-set whose C(t,2) covering blocks are pairwise distinct
    and share one color: exactly a monochromatic Berge clique on a linear
    host."""

    __slots__ = ()


def _pair_block_map(hg):
    """block[u][v]: the one hyperedge holding the pair {u, v}."""
    pair_edges = hg.pair_edges()
    total = hg.n * (hg.n - 1) // 2
    # all C(n, 2) pairs are covered, and by C(n, 2) pair-edge incidences
    if not len(pair_edges) == total == sum(map(len, pair_edges.values())):
        raise ValueError("host must be linear and covering "
                         "(every pair in exactly one hyperedge)")
    block = [[-1] * (hg.n + 1) for _ in range(hg.n + 1)]
    for (u, v), (b,) in pair_edges.items():
        block[u][v] = block[v][u] = b
    return block


class _CliqueScan:
    """The bad events of a linear covering host under a 2-coloring of its
    blocks, kept as bitsets over the vertices 1..n.

    `block[u][v]` is the block through u and v (`_pair_block_map`),
    `points[b]` the mask of block b's points, and `adj[c][u]` the mask of
    the vertices x whose block through u has color c.  `recolor` keeps
    `adj` in step with `colors` by flipping only the bits of the pairs in
    the re-colored block, so a coloring that changes a few blocks at a
    time (Moser-Tardos) is scanned again without rebuilding anything.
    """

    def __init__(self, hg, colors):
        self.block = _pair_block_map(hg)
        self.members = hg.edges
        self.colors = list(colors)
        self.points = [sum(1 << p for p in e) for e in hg.edges]
        self.adj = adj = [[0] * (hg.n + 1), [0] * (hg.n + 1)]
        for e, mask, c in zip(hg.edges, self.points, self.colors):
            row = adj[c]
            for u in e:
                row[u] |= mask ^ 1 << u

    def recolor(self, b, color):
        """Give block b the color `color`."""
        old = self.colors[b]
        if old != color:
            self.colors[b] = color
            mask = self.points[b]
            keep = ~mask
            was, now = self.adj[old], self.adj[color]
            for u in self.members[b]:
                was[u] &= keep
                now[u] |= mask ^ 1 << u

    def events(self, t):
        """Yield the bad events of `scan_bad_events` in lexicographic
        t_set order, growing each vertex set one vertex at a time.

        The first pair u < w fixes the color c and the block b.  The
        candidates for the next vertex are then the x > w whose blocks to
        u and to w have color c, less the points of b; each vertex w
        chosen later keeps the candidates above it whose block to w has
        color c, less the points of its block to each chosen s.  On a
        linear host that is exactly the set of x whose blocks to the
        chosen vertices are distinct, unused and of color c.  A prefix
        whose candidates are too few to reach t vertices is dropped.
        """
        if t < 0:
            raise ValueError(f"t must be non-negative, got {t}")
        if t < 2:
            return  # no pair, so no block and no color
        block, points, colors, adj = (self.block, self.points, self.colors,
                                      self.adj)

        def grow(chosen, used, cand, color):
            if len(chosen) == t:
                yield BadEvent(tuple(chosen), tuple(sorted(used)), color)
                return
            need = t - len(chosen) - 1  # vertices to choose after the next
            left = cand.bit_count()
            row = adj[color]
            while left > need:
                low = cand & -cand
                cand ^= low
                left -= 1
                w = low.bit_length() - 1
                grown = cand & row[w]
                if grown.bit_count() < need:
                    continue
                lines = [block[w][s] for s in chosen]
                for b in lines:
                    grown &= ~points[b]
                if grown.bit_count() >= need:
                    yield from grow(chosen + [w], used + lines, grown, color)

        for u in range(1, len(block)):
            above = -2 << u  # the vertices after u
            starts = 0
            for row in adj:
                if (row[u] & above).bit_count() >= t - 1:
                    starts |= row[u] & above
            line = block[u]
            while starts:
                low = starts & -starts
                starts ^= low
                w = low.bit_length() - 1
                b = line[w]
                color = colors[b]
                row = adj[color]
                cand = row[u] & row[w] & -2 << w & ~points[b]
                if cand.bit_count() >= t - 2:
                    yield from grow([u, w], [b], cand, color)


def scan_bad_events(hg, coloring, t):
    """All monochromatic Berge-K_t vertex sets on a linear covering host,
    in lexicographic order.

    A t-set qualifies iff no hyperedge contains 3 of its vertices (with
    one block per pair, that is the same as all blocks being distinct) and
    the blocks all share one color.  The sets are enumerated by extension
    on color-class bitsets (`_CliqueScan`), so t-sets that fail on a
    prefix are never visited.
    """
    check_coloring(hg, coloring)
    return list(_CliqueScan(hg, coloring.colors).events(t))


def _check_t(t):
    # Berge-K_0 and Berge-K_1 have no edges, so every coloring holds one
    if t < 2:
        raise ValueError(f"t must be at least 2, got {t}")


class MTRun(namedtuple("MTRun", "coloring resamples trace")):
    """Outcome of a Moser-Tardos run: the good coloring (or None on
    resample exhaustion), the resample count, and the resampled events in
    order (the trace)."""

    __slots__ = ()


def moser_tardos_coloring(hg, t, seed=0,
                          max_resamples=DEFAULT_MAX_RESAMPLES):
    """Constructive local-lemma resampling on a linear covering host.

    Start from a uniform random 2-coloring; while monochromatic Berge-K_t
    sets remain, re-randomize the blocks of the lexicographically least
    one.  The returned coloring (when found) scans clean, i.e. the host
    has no monochromatic Berge-K_t under it.  Deterministic per seed.
    Raises ValueError for t < 2, where every coloring holds a Berge-K_t,
    and for t = 2 on a host with a hyperedge, which is a monochromatic
    Berge-K_2 in its own color.
    """
    _check_t(t)
    if t == 2 and hg.num_edges:
        raise ValueError("t = 2 has no good coloring on a host with a "
                         "hyperedge: each hyperedge is a monochromatic "
                         "Berge-K_2")
    if max_resamples < 0:
        raise ValueError(f"max resamples must be non-negative, "
                         f"got {max_resamples}")
    rng = random.Random(seed)
    scan = _CliqueScan(hg, [rng.randrange(2) for _ in range(hg.num_edges)])
    trace = []
    resamples = 0
    while True:
        event = next(scan.events(t), None)
        if event is None:
            return MTRun(EdgeColoring(tuple(scan.colors)), resamples,
                         tuple(trace))
        if resamples >= max_resamples:
            return MTRun(None, resamples, tuple(trace))
        trace.append(event)
        for b in event.blocks:
            scan.recolor(b, rng.randrange(2))
        resamples += 1


def _superscript(value):
    return str(value).translate(str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹"))


def _subscript(value):
    return str(value).translate(str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉"))


class LowerBoundCertificate(namedtuple(
        "LowerBoundCertificate",
        "n t uniformity bound statement method host_text coloring_text")):
    """Verified statement that a coloring of an n-vertex covering host
    avoids monochromatic Berge-K_t, hence the cover Ramsey number for
    Berge-K_t exceeds n.  Embeds everything needed to re-verify."""

    __slots__ = ()


def lower_bound_certificate(hg, coloring, t):
    """Re-verify that the coloring avoids monochromatic Berge-K_t in both
    colors and package the result as a standalone certificate.

    Linear hosts (each pair in one hyperedge, as Moser-Tardos requires)
    are checked by an exhaustive bad-event scan (equivalent on such
    hosts); general covering hosts by the Berge search itself.
    K_t is built only when it fits in the host: with t > n no copy exists.
    Raises VerificationFailure carrying the offending certificate if a
    monochromatic copy exists, and ValueError for t < 2.
    """
    _check_t(t)
    if not hg.is_covering():
        raise ValueError("host must be covering")
    check_coloring(hg, coloring)
    pairs = hg.pair_edges()
    linear = sum(map(len, pairs.values())) == len(pairs)
    method = "bad-event-scan" if linear else "mono-berge-search"
    if linear:
        event = next(_CliqueScan(hg, coloring.colors).events(t), None)
        if event is not None:
            # the event is the copy: K_t's vertex i on t_set[i - 1], and
            # each edge on the one block of its pair, which is h(uv)
            cert = lift_embedding(hg, complete_graph(t),
                                  dict(enumerate(event.t_set, 1)), coloring,
                                  event.color)
            raise VerificationFailure(
                f"monochromatic Berge-K_{t} on {event.t_set} "
                f"in color {event.color}", event.color, cert)
    elif t <= hg.n:
        target = complete_graph(t)
        hit = contains_mono_berge(hg, coloring, target, target)
        if hit is not None:
            color, cert = hit
            raise VerificationFailure(
                f"monochromatic Berge-K_{t} in color {color}", color, cert)
    return package_lower_bound(hg, coloring, t, method)


def package_lower_bound(hg, coloring, t, method):
    """The LowerBoundCertificate of a coloring of the covering host `hg`
    that `method` has already proven free of monochromatic Berge-K_t; this
    checks nothing, so the one proof is the caller's."""
    uniformity = tuple(sorted(hg.uniformity))
    if len(uniformity) == 1:
        r_tag = _superscript(uniformity[0])
    else:
        r_tag = "^{" + ",".join(str(r) for r in uniformity) + "}"
    bk = f"BK{_subscript(t)}"
    statement = (f"R̂{r_tag}({bk},{bk}) ≥ {hg.n + 1}")
    return LowerBoundCertificate(
        n=hg.n,
        t=t,
        uniformity=uniformity,
        bound=hg.n + 1,
        statement=statement,
        method=method,
        host_text=format_hypergraph(hg),
        coloring_text=format_coloring(coloring),
    )
