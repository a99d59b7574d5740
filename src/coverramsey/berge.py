"""Berge subhypergraph detection and certificates.

A hypergraph contains a Berge copy of a graph G (a Hypergraph with
uniformity {2}) when there is an injection of V(G) into the hypergraph
vertices together with an injection of E(G) into the hyperedges such that
each graph edge is contained in its image hyperedge.  Detection backtracks
over the vertex injection and delegates the edge injection to a bipartite
matching (a system of distinct representatives over the candidate
hyperedges of each mapped pair).
"""

from collections import namedtuple

from .hypergraph import (Hypergraph, _read_edge_list, check_coloring,
                         complete_host)

NOT_INJECTIVE_VERTICES = "NOT_INJECTIVE_VERTICES"
NOT_INJECTIVE_EDGES = "NOT_INJECTIVE_EDGES"
CONTAINMENT_FAIL = "CONTAINMENT_FAIL"
COLOR_FAIL = "COLOR_FAIL"


# K_t as a Berge target is the complete 2-uniform host
complete_graph = complete_host


def path_graph(n):
    """Path on n vertices (n - 1 edges)."""
    return Hypergraph(n, ((i, i + 1) for i in range(1, n)), {2})


def cycle_graph(n):
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return Hypergraph(n, edges, {2})


def parse_target(text):
    """A target graph file: the hypergraph layout with 2-vertex edges,
    except that an edge line may list its two vertices in either order and
    the text need not end in a newline."""
    n, edges = _read_edge_list(text, "target graph")
    return Hypergraph(n, edges, {2})


class BergeCertificate(namedtuple("BergeCertificate", "vertex_map edge_map")):
    """Witness of a Berge-G copy: `vertex_map` sends graph vertex -> host
    vertex, `edge_map` sends graph edge index -> hyperedge index.  Both are
    stored as sorted (key, value) tuples."""

    __slots__ = ()

    @classmethod
    def from_dicts(cls, vertex_map, edge_map):
        return cls(tuple(sorted(vertex_map.items())),
                   tuple(sorted(edge_map.items())))

    def vertex_dict(self):
        return dict(self.vertex_map)

    def edge_dict(self):
        return dict(self.edge_map)


class VerifyResult(namedtuple("VerifyResult", "ok reason detail",
                              defaults=(None, ""))):
    """`ok`, the reason code of a failure (None on success), and its
    `detail`: the failing edge, for CONTAINMENT_FAIL and COLOR_FAIL."""

    __slots__ = ()

    def __bool__(self):
        return self.ok

    def __str__(self):
        return ": ".join(filter(None, (self.reason, self.detail)))


def verify_certificate(hg, g, cert, coloring=None, color=None):
    """Check a Berge certificate against its host and target.

    Returns a truthy VerifyResult on success; on failure the result carries
    one of the reason codes NOT_INJECTIVE_VERTICES, NOT_INJECTIVE_EDGES,
    CONTAINMENT_FAIL, COLOR_FAIL, and for the last two the first failing
    target edge, in index order, as its detail.
    """
    vmap = cert.vertex_dict()
    emap = cert.edge_dict()
    if (set(vmap) != set(range(1, g.n + 1))
            or len(set(vmap.values())) != g.n
            or any(not 1 <= w <= hg.n for w in vmap.values())):
        return VerifyResult(False, NOT_INJECTIVE_VERTICES)
    if (set(emap) != set(range(g.num_edges))
            or len(set(emap.values())) != g.num_edges
            or any(not 0 <= i < hg.num_edges for i in emap.values())):
        return VerifyResult(False, NOT_INJECTIVE_EDGES)
    for ei, (u, v) in enumerate(g.edges):
        host_edge = set(hg.edges[emap[ei]])
        if not {vmap[u], vmap[v]} <= host_edge:
            return VerifyResult(False, CONTAINMENT_FAIL, (
                f"target edge {ei} ({u}, {v}) maps to the host pair "
                f"{(vmap[u], vmap[v])}, which its hyperedge {emap[ei]} "
                f"misses"))
    if coloring is not None and color is not None:
        check_coloring(hg, coloring)
        if any(coloring.colors[i] != color for i in emap.values()):
            # sought only once the check fails: a success costs the check
            ei, b = next((ei, b) for ei, b in sorted(emap.items())
                         if coloring.colors[b] != color)
            return VerifyResult(False, COLOR_FAIL, (
                f"target edge {ei} {g.edges[ei]} is on hyperedge {b} of "
                f"color {coloring.colors[b]}, not color {color}"))
    return VerifyResult(True)


def lift_embedding(hg, g, embedding, coloring, color):
    """The Berge-G copy putting each embedded target edge on h(uv), the
    first hyperedge holding its host pair; checked to lie in `color` of
    `coloring` (None for an edgeless target, which has no color)."""
    vmap = dict(embedding)
    pair_edges = hg.pair_edges()
    emap = {ei: pair_edges[tuple(sorted((vmap[u], vmap[v])))][0]
            for ei, (u, v) in enumerate(g.edges)}
    cert = BergeCertificate.from_dicts(vmap, emap)
    result = verify_certificate(hg, g, cert, coloring, color)
    assert result, f"lifted certificate failed verification: {result}"
    return cert


def _augment(cands, owner, i, seen):
    """Kuhn's augmenting path from graph edge i, over the matching `owner`
    (hyperedge bit -> graph edge) of the candidate bitmasks `cands`: bits
    are tried from low to high, skipping those in seen[0], which the
    search adds to.  Returns the free bit the path ends at, or 0."""
    avail = cands[i] & ~seen[0]
    while avail:
        bit = avail & -avail
        seen[0] |= bit
        j = owner.get(bit)
        end = bit if j is None else _augment(cands, owner, j, seen)
        if end:
            owner[bit] = i
            return end
        avail = cands[i] & ~seen[0]
    return 0


def _kuhn(cands):
    """Kuhn's augmenting-path matching on candidate bitmasks, one per
    graph edge, trying bits from low to high (ascending hyperedge order).
    Returns the chosen hyperedge index per graph edge, or None when no
    matching covers every graph edge."""
    owner = {}
    for i in range(len(cands)):
        if not _augment(cands, owner, i, [0]):
            return None
    return [bit.bit_length() - 1 for bit in sorted(owner, key=owner.get)]


def _mask(indices):
    """The bitmask with these bit positions set."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def matching_for_assignment(hg, g, vertex_map, allowed=None):
    """Given an injective vertex map, pick distinct containing hyperedges
    for all graph edges, or return None if no such injection exists.

    `allowed`, when given, restricts the usable hyperedge indices (e.g. to
    one color class).
    """
    vmap = dict(vertex_map)
    if len(set(vmap.values())) != len(vmap):
        raise ValueError("vertex_map is not injective")
    pair_edges = hg.pair_edges()
    mask = -1 if allowed is None else _mask(i for i in allowed if i >= 0)
    cands = [mask & _mask(pair_edges.get(tuple(sorted((vmap[u], vmap[v]))),
                                         ())) for u, v in g.edges]
    match = _kuhn(cands) if all(cands) else None
    return None if match is None else dict(enumerate(match))


class BergeSearch:
    """The Berge-G search on one host, built once and run on any set of
    allowed hyperedges (a bitmask), e.g. on each coloring's color classes.

    Target vertices are placed in descending degree order, host vertices
    tried ascending.  The host is held as incidence bitmasks:
    `vertex_edges[v]` has bit e for each hyperedge e containing v, and
    `edge_vertices[e]` has bit v for each vertex of e (bit 0 is never a
    vertex).  A position's host vertices are the unused ones that share an
    allowed hyperedge with the image of every earlier neighbour.  A graph
    edge is placed with its later endpoint; its candidates are the allowed
    hyperedges containing both images.  The placed edges keep a matching
    into their candidates, extended by one augmenting path per new edge; a
    placement is pruned when that fails (no matching covers them, Hall).
    A target vertex of degree d is placed only on host vertices in at
    least d allowed hyperedges, since its d edges need distinct images
    that all contain it: the vertices this skips lie in no copy at that
    position, so the first copy found, and its edge map, are unchanged.
    `nodes` (placements tried, root included) and `hall_tests`
    (augmenting-path searches) add up over `run` calls.  A target edge
    that is not a vertex pair is a ValueError.
    """

    __slots__ = ("hg", "g", "order", "degree", "incident", "vertex_edges",
                 "edge_vertices", "nodes", "hall_tests")

    def __init__(self, hg, g):
        deg = [0] * (g.n + 1)
        for e in g.edges:
            if len(e) != 2:
                raise ValueError(f"target edge {e} is not a vertex pair")
            for v in e:
                deg[v] += 1
        order = sorted(range(1, g.n + 1), key=lambda v: (-deg[v], v))
        pos = {v: i for i, v in enumerate(order)}
        self.hg, self.g, self.order = hg, g, order
        self.degree = [deg[v] for v in order]  # per position
        # incident[i]: (edge, earlier position) for edges placed at i
        self.incident = [[] for _ in range(g.n)]
        for ei, (u, v) in enumerate(g.edges):
            first, later = sorted((pos[u], pos[v]))
            self.incident[later].append((ei, first))
        self.vertex_edges = [0] * (hg.n + 1)
        self.edge_vertices = [_mask(e) for e in hg.edges]
        for idx, e in enumerate(hg.edges):
            for v in e:
                self.vertex_edges[v] |= 1 << idx
        self.nodes = self.hall_tests = 0

    def run(self, allowed):
        """(vertex_map, edge_map) dicts of the first copy, in search order,
        that uses only hyperedges in the `allowed` bitmask; else None."""
        g, n, incident = self.g, self.hg.n, self.incident
        vertex_edges, edge_vertices = self.vertex_edges, self.edge_vertices
        if g.n > n or g.num_edges > allowed.bit_count():
            return None
        if g.num_edges == 0:
            # vacuous edge map; any injective vertex placement works
            return {v: v for v in range(1, g.n + 1)}, {}
        degree = self.degree
        image = [0] * g.n
        free = (1 << (n + 1)) - 2  # the unused host vertices
        nbrs = [-1] * (n + 1)  # filled on demand: see `assign`
        cand = [0] * g.num_edges  # set when the edge is placed
        nodes = hall_tests = 0

        def assign(i, owner, taken):
            """Place position i onward, given a matching `owner` of the
            placed edges that takes the hyperedge bits `taken`."""
            nonlocal free, nodes, hall_tests
            nodes += 1
            if i == g.n:
                return True
            edges = incident[i]
            hosts = free
            for _, p in edges:
                a = image[p]
                if nbrs[a] < 0:
                    # the vertices of the allowed hyperedges at a (a itself
                    # is used, so never a candidate)
                    mask, es = 0, vertex_edges[a] & allowed
                    while es:
                        low = es & -es
                        mask |= edge_vertices[low.bit_length() - 1]
                        es ^= low
                    nbrs[a] = mask
                hosts &= nbrs[a]
            need = degree[i]
            while hosts:
                low = hosts & -hosts
                hosts ^= low
                hv = low.bit_length() - 1
                here = vertex_edges[hv] & allowed
                if here.bit_count() < need:
                    continue  # too few allowed hyperedges at hv
                matched, took = owner, taken
                if edges:
                    matched = owner.copy()
                for ei, p in edges:
                    cand[ei] = here & vertex_edges[image[p]]
                    bit = cand[ei] & ~took
                    if bit:
                        bit &= -bit
                        matched[bit] = ei
                    else:
                        hall_tests += 1
                        bit = _augment(cand, matched, ei, [0])
                        if not bit:
                            break  # no matching covers the placed edges
                    took |= bit
                else:
                    image[i] = hv
                    free ^= low
                    if assign(i + 1, matched, took):
                        return True
                    free |= low
            return False

        found = assign(0, {}, 0)
        self.nodes += nodes
        self.hall_tests += hall_tests
        if not found:
            return None
        # the same Kuhn matching, over every edge's candidates in index
        # order, that a from-scratch Hall test of the full copy finds
        return dict(zip(self.order, image)), dict(enumerate(_kuhn(cand)))

    def certificate(self, allowed):
        """The certificate of `run(allowed)`, or None.  This is the one
        check of a copy the search finds: the certificate must verify and
        use only hyperedges in `allowed`."""
        found = self.run(allowed)
        if found is None:
            return None
        cert = BergeCertificate.from_dicts(*found)
        result = verify_certificate(self.hg, self.g, cert)
        assert result, f"found certificate failed verification: {result}"
        assert all(allowed >> i & 1 for i in found[1].values()), \
            "certificate uses a hyperedge outside the allowed set"
        return cert


def find_berge(hg, g, coloring=None, color=None):
    """Search for a Berge-G certificate in the host, optionally restricted
    to hyperedges of one color (ValueError unless it is 0 or 1).

    Builds a `BergeSearch` and runs it once, on the edge set or the color
    class.  Returns a verified certificate or None when no copy exists.
    """
    allowed = (1 << hg.num_edges) - 1
    if coloring is not None and color is not None:
        check_coloring(hg, coloring)
        if color not in (0, 1):
            raise ValueError(f"color {color} outside palette 0..1")
        allowed = _mask(coloring.indices_of(color))
    return BergeSearch(hg, g).certificate(allowed)


def contains_mono_berge(hg, coloring, g1, g2):
    """First monochromatic Berge target in a 2-colored host: a blue (color
    0) Berge-G1 if one exists, else a red (color 1) Berge-G2, else None."""
    check_coloring(hg, coloring)
    first = BergeSearch(hg, g1)
    second = first if g2 == g1 else BergeSearch(hg, g2)
    for color, search in ((0, first), (1, second)):
        cert = search.certificate(_mask(coloring.indices_of(color)))
        if cert is not None:
            return (color, cert)
    return None
