"""Executable reductions from colored covering hypergraphs to colored
complete graphs.

Two routes are provided.  The scatter/trace route samples a vertex subset
S meeting every hyperedge in at most 2 points; the trace of the host on S
is then a complete graph whose pairs inherit colors from distinct
hyperedges, so monochromatic subgraphs lift to Berge certificates.  The
product route colors every pair of the full vertex set by (host color of a
chosen containing hyperedge, label of the pair inside that hyperedge),
giving a 2*C(k,2)-colored complete graph whose monochromatic subgraphs
also lift, because two pairs inside one hyperedge always carry different
labels.
"""

import random
from collections import namedtuple
from fractions import Fraction
from itertools import combinations, islice
from math import comb

from ._common import DEFAULT_MAX_ATTEMPTS
from .berge import find_berge, lift_embedding
from .hypergraph import Hypergraph, check_coloring


class ScatterSample(namedtuple("ScatterSample", "subset attempts seed")):
    """A sampled vertex subset with every hyperedge intersection <= 2."""

    __slots__ = ()


def _check_subset_size(n, s):
    if not 0 <= s <= n:
        raise ValueError(f"subset size {s} outside 0..{n}")


def _draws(hg, s, seed):
    """The seeded stream of draws that the sampler and the trial counter
    read: each draw is (a uniform s-subset, sorted, whether every
    hyperedge meets it in at most 2 vertices).  The host and `s` are
    checked here, before any draw is taken."""
    if not hg.is_covering():
        raise ValueError("host must be covering")
    _check_subset_size(hg.n, s)
    rng = random.Random(seed)
    triples = {t for edge in hg.edges for t in combinations(edge, 3)}

    def draws():
        while True:
            subset = tuple(sorted(rng.sample(range(1, hg.n + 1), s)))
            yield subset, triples.isdisjoint(combinations(subset, 3))

    return draws()


def sample_scattered_subset(hg, s, seed=0,
                            max_attempts=DEFAULT_MAX_ATTEMPTS):
    """Rejection-sample a uniform s-subset until every hyperedge meets it
    in at most 2 vertices; None after max_attempts rejections."""
    if max_attempts < 0:
        raise ValueError(f"max attempts must be non-negative, "
                         f"got {max_attempts}")
    draws = islice(_draws(hg, s, seed), max_attempts)
    for attempt, (subset, scattered) in enumerate(draws, 1):
        if scattered:
            return ScatterSample(subset, attempt, seed)
    return None


def scatter_rejection_trials(hg, s, trials, seed=0):
    """Draw `trials` independent uniform s-subsets and count how many are
    rejected by the scatteredness test.  Used to compare the observed
    rejection rate against the analytic union bound."""
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    draws = islice(_draws(hg, s, seed), trials)
    rejected = sum(not scattered for _, scattered in draws)
    return rejected, trials


def scatter_failure_bound(n, s, k):
    """Union bound 3 C(k,3) C(s,3) / (n-2) on the probability that some
    hyperedge meets a uniform s-subset in 3+ points, as an exact rational;
    s must lie in 0..n."""
    if n < 3:
        raise ValueError("requires n >= 3")
    _check_subset_size(n, s)
    return Fraction(3 * comb(k, 3) * comb(s, 3), n - 2)


class TraceColoring(namedtuple("TraceColoring",
                               "subset pair_color provenance")):
    """Complete 2-colored graph on a scattered subset, with provenance:
    each pair's color comes from the unique-intersection hyperedge chosen
    for it, and distinct pairs always use distinct hyperedges."""

    __slots__ = ()


def trace_coloring(hg, coloring, sample):
    """Color each pair of the scattered subset by the color of a hyperedge
    whose intersection with the subset is exactly that pair.

    The chosen hyperedge is the canonically smallest admissible one.
    Hyperedges meeting the subset in fewer than 2 vertices contribute
    nothing.  Scatteredness makes the pair -> hyperedge map injective.
    """
    check_coloring(hg, coloring)
    if not hg.is_covering():
        raise ValueError("host must be covering")
    sset = set(sample.subset)
    if (list(sample.subset) != sorted(sset)
            or any(not 1 <= v <= hg.n for v in sset)):
        raise ValueError(f"sample is not ascending distinct vertices in "
                         f"1..{hg.n}")
    if any(len(sset.intersection(e)) > 2 for e in hg.edges):
        raise ValueError("sample is not scattered in this host")
    # any edge containing both endpoints meets the scattered subset in
    # exactly this pair, so h(uv), the first containing edge, is admissible
    pair_edges = hg.pair_edges()
    provenance = {pair: pair_edges[pair][0]
                  for pair in combinations(sample.subset, 2)}
    images = list(provenance.values())
    assert len(set(images)) == len(images), "trace provenance not injective"
    pair_color = {pair: coloring.colors[i] for pair, i in provenance.items()}
    return TraceColoring(sample.subset, pair_color, provenance)


class ProductReduction(namedtuple(
        "ProductReduction",
        "n palette_size label_count pair_color provenance")):
    """2*C(k,2)-colored complete graph on the host's vertex set.  The color
    of pair uv encodes (host color of h(uv), label of uv inside h(uv));
    labels enumerate each hyperedge's pairs lexicographically from 1."""

    __slots__ = ()

    def color_parts(self, color_id):
        """Decode a product color id into (host color, label)."""
        return color_id // self.label_count, color_id % self.label_count + 1


def multicolor_product_reduction(hg, coloring):
    """Deterministic product reduction: h(uv) is the canonically smallest
    hyperedge containing uv; the product palette has 2*C(k,2) color ids
    where k is the largest permitted edge size."""
    check_coloring(hg, coloring)
    if not hg.is_covering():
        raise ValueError("host must be covering")
    k = hg.max_edge_size
    label_count = comb(k, 2)
    edge_labels = [
        {pair: r + 1 for r, pair in enumerate(combinations(edge, 2))}
        for edge in hg.edges
    ]
    pair_color = {}
    provenance = {}
    pair_edges = hg.pair_edges()
    for pair in combinations(range(1, hg.n + 1), 2):
        i = pair_edges[pair][0]
        label = edge_labels[i][pair]
        pair_color[pair] = coloring.colors[i] * label_count + (label - 1)
        provenance[pair] = (i, label)
    return ProductReduction(hg.n, 2 * label_count, label_count,
                            pair_color, provenance)


def _mono_color(pair_color, g, embedding):
    """The one color of the embedded target's pairs; None if edgeless."""
    vmap = dict(embedding)
    colors = {pair_color[tuple(sorted((vmap[u], vmap[v])))]
              for u, v in g.edges}
    if len(colors) > 1:
        raise ValueError(f"embedding is not monochromatic: colors {colors}")
    return next(iter(colors), None)


def lift_mono_subgraph(reduction, hg, g, embedding, coloring):
    """Lift a monochromatic (in the product palette) embedded copy of the
    target graph to a Berge certificate whose hyperedges all carry, in
    `coloring`, the host color encoded in the shared product color."""
    mono = _mono_color(reduction.pair_color, g, embedding)
    host_color = None if mono is None else reduction.color_parts(mono)[0]
    return lift_embedding(hg, g, embedding, coloring, host_color)


def lift_trace_subgraph(trace, hg, g, embedding, coloring):
    """Lift a monochromatic embedded copy found in a trace coloring to a
    Berge certificate on the hyperedges its pairs took their colors from,
    all of the trace's color in `coloring`."""
    mono = _mono_color(trace.pair_color, g, embedding)
    return lift_embedding(hg, g, embedding, coloring, mono)


def find_mono_subgraph(pair_color, n, g):
    """Search a pair-colored complete(ish) graph for a monochromatic copy
    of the target; returns (color, embedding dict) or None.  Colors are
    scanned in ascending order."""
    by_color = {}
    for pair, c in pair_color.items():
        by_color.setdefault(c, []).append(pair)
    for c in sorted(by_color):
        pairs = by_color[c]
        if len(pairs) < g.num_edges:
            continue
        host = Hypergraph(n, pairs, uniformity={2})
        cert = find_berge(host, g)
        if cert is not None:
            vmap = cert.vertex_dict()
            return c, vmap
    return None
