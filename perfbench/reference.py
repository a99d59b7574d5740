"""Independent reference answers for the benchmark's output checks.

Nothing here calls the search, scan or reduction code under test: hosts,
colorings and records are read as plain text or JSON and every answer is
recomputed by direct enumeration.  These checks run outside the timed
region.
"""

from fractions import Fraction
from itertools import combinations
from math import comb, factorial

# Classical 2-color Ramsey values of the graph pairs run on K5 and K6:
# R(K3,K3) = 6 and R(C4,C4) = 6 (Radziszowski, "Small Ramsey Numbers"),
# R(P4,K3) = (4-1)(3-1)+1 = 7 (Chvatal 1977, trees versus cliques).
CLASSICAL_RAMSEY = {("K3", "K3"): 6, ("C4", "C4"): 6, ("K3", "P4"): 7}


def unavoidable_on_kn(pair, n):
    """Reference verdict for K_n with a classical pair: unavoidable iff
    n is at least the Ramsey number."""
    return n >= CLASSICAL_RAMSEY[pair]


def _rows(text):
    """Non-blank lines that are not '#' comments, stripped."""
    return [ln.strip() for ln in text.splitlines()
            if ln.strip() and not ln.lstrip().startswith("#")]


def parse_hypergraph_text(text):
    rows = _rows(text)
    n, m = (int(x) for x in rows[0].split())
    edges = sorted(tuple(sorted(int(v) for v in ln.split()))
                   for ln in rows[1:])
    if len(edges) != m:
        raise ValueError(f"expected {m} edges, found {len(edges)}")
    return n, edges


def parse_target_text(text):
    rows = _rows(text)
    nv, _ = (int(x) for x in rows[0].split())
    edges = sorted(tuple(sorted(int(v) for v in ln.split()))
                   for ln in rows[1:])
    return nv, edges


def parse_coloring_text(text):
    rows = _rows(text)
    return [int(ch) for ch in rows[0]]


def _has_sdr(cands):
    """Distinct representatives for the candidate lists, by plain
    backtracking."""
    order = sorted(range(len(cands)), key=lambda i: len(cands[i]))
    used = set()

    def rec(j):
        if j == len(order):
            return True
        for h in cands[order[j]]:
            if h not in used:
                used.add(h)
                if rec(j + 1):
                    return True
                used.discard(h)
        return False

    return rec(0)


def contains_berge(n, edges, target, allowed):
    """Whether the edges with indices in `allowed` hold a Berge copy of
    `target` (nv, edge list).  Enumerates injective vertex maps in target
    order 1..nv, keeping only maps whose mapped target edges lie in some
    allowed edge, then asks for distinct representatives at each leaf.
    A complete target is enumerated with increasing images only, since
    every copy has such a labelling."""
    nv, tedges = target
    pair_cands = {}
    for i in allowed:
        for p in combinations(edges[i], 2):
            pair_cands.setdefault(p, []).append(i)
    if len(tedges) > len(allowed):
        return False
    complete = len(tedges) == nv * (nv - 1) // 2
    back = [[u for u, w in tedges if w == v] for v in range(nv + 1)]
    image = [0] * (nv + 1)
    used = set()

    def rec(v):
        if v > nv:
            cands = [pair_cands[tuple(sorted((image[a], image[b])))]
                     for a, b in tedges]
            return _has_sdr(cands)
        start = image[v - 1] + 1 if complete and v > 1 else 1
        for h in range(start, n + 1):
            if h in used:
                continue
            if any(tuple(sorted((image[u], h))) not in pair_cands
                   for u in back[v]):
                continue
            image[v] = h
            used.add(h)
            if rec(v + 1):
                return True
            used.discard(h)
        return False

    return rec(1)


def color_class(colors, color):
    return [i for i, c in enumerate(colors) if c == color]


def certificate_ok(n, edges, target, vertex_map, edge_map, colors=None,
                   color=None):
    """Re-check a Berge certificate from its parts."""
    nv, tedges = target
    vmap = dict(vertex_map)
    emap = dict(edge_map)
    if sorted(vmap) != list(range(1, nv + 1)):
        return False
    if len(set(vmap.values())) != nv or not all(1 <= w <= n
                                                for w in vmap.values()):
        return False
    if sorted(emap) != list(range(len(tedges))):
        return False
    if len(set(emap.values())) != len(tedges):
        return False
    for ei, (u, v) in enumerate(tedges):
        h = emap[ei]
        if not 0 <= h < len(edges):
            return False
        if not {vmap[u], vmap[v]} <= set(edges[h]):
            return False
        if color is not None and colors[h] != color:
            return False
    return True


def mono_clique_free(n, edges, colors, t):
    """On a linear covering host, True iff no t-set has its C(t,2) pairs
    in distinct blocks of one color.  Grows t-sets in increasing order,
    extending only by points whose block to every chosen point has the
    color and is new."""
    block = {}
    for i, e in enumerate(edges):
        for p in combinations(e, 2):
            block[p] = i
    for color in (0, 1):
        def rec(chosen, blocks):
            if len(chosen) == t:
                return True
            for w in range(chosen[-1] + 1, n + 1):
                bs = [block[(u, w)] for u in chosen]
                if any(colors[b] != color for b in bs):
                    continue
                if len(set(bs)) != len(bs) or blocks.intersection(bs):
                    continue
                if rec(chosen + [w], blocks.union(bs)):
                    return True
            return False

        for v in range(1, n + 1):
            if rec([v], set()):
                return False
    return True


def parse_design_text(text):
    """Header (n, k, m) and the classes, each a list of blocks."""
    rows = _rows(text)
    header = tuple(int(x) for x in rows[0].split())
    classes = [[]]
    for ln in rows[1:]:
        if ln == "%":
            classes.append([])
        else:
            classes[-1].append(tuple(int(x) for x in ln.split()))
    return header, classes


def design_ok(text, n, k):
    """A resolvable (n, k, 1) design: every class partitions 1..n into
    k-blocks, every pair lies in exactly one block, (n-1)/(k-1) classes."""
    (hn, hk, hm), classes = parse_design_text(text)
    if (hn, hk, hm) != (n, k, len(classes)) or hm != (n - 1) // (k - 1):
        return False
    seen = set()
    for cls in classes:
        if sorted(p for blk in cls for p in blk) != list(range(1, n + 1)):
            return False
        for blk in cls:
            if len(blk) != k:
                return False
            for p in combinations(sorted(blk), 2):
                if p in seen:
                    return False
                seen.add(p)
    return len(seen) == n * (n - 1) // 2


def _e_upper():
    """A rational above e: the Taylor sum to 1/20! plus a tail bound."""
    s = sum(Fraction(1, factorial(j)) for j in range(21))
    return s + Fraction(1, factorial(20) * 20)


def lll_threshold_admissible(t, k):
    """Largest n = k (mod k(k-1)) with e C(t,2) C(k,2) C(n-2,t-2)
    2^(1-C(t,2)) < 1, by a linear scan upward from n = t; None when that
    n is below t."""
    e_up = _e_upper()
    ct2 = comb(t, 2)

    def holds(n):
        return e_up * ct2 * comb(k, 2) * comb(n - 2, t - 2) * 2 < 2 ** ct2

    n = t
    while holds(n + 1):
        n += 1
    modulus = k * (k - 1)
    n -= (n - k) % modulus
    return n if n >= t else None
