"""Immutable hypergraphs with mixed edge sizes, plus the structural
primitives everything else is built on: 2-shadow, covering test, co-degree,
and edge-minimal covering reduction.

Vertices are the integers 1..n.  Edges are stored canonically (each edge an
ascending tuple, the edge list sorted lexicographically), so equality and
serialization are deterministic.  A simple graph, such as a 2-shadow or a
Berge target, is a Hypergraph with uniformity {2}.
"""

from itertools import chain, combinations, repeat
from operator import lt


class Hypergraph:
    """A hypergraph on vertices 1..n with a fixed set of allowed edge sizes.

    Edges are deduplicated, normalized to ascending tuples and kept in
    lexicographic order; instances are immutable by convention and safe to
    share across threads.
    """

    __slots__ = ("n", "edges", "uniformity", "_pair_edges")

    def __init__(self, n, edges, uniformity=None):
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        edges = list(map(tuple, edges))
        canon = _canonical(edges)
        sizes = set(map(len, canon))
        vertices = set(chain.from_iterable(canon))
        if ((canon is not edges
             and list(map(len, canon)) != list(map(len, edges)))
                or min(sizes, default=2) < 2
                or vertices and (min(vertices) < 1 or max(vertices) > n)
                or len(set(canon)) < len(canon)):
            _raise_first_bad_edge(n, edges)
        canon.sort()
        if uniformity is None:
            uniformity = sizes if sizes else {2}
        uniformity = frozenset(int(r) for r in uniformity)
        if any(r < 2 for r in uniformity):
            raise ValueError(f"uniformity set {set(uniformity)} contains sizes < 2")
        bad = sizes - uniformity
        if bad:
            raise ValueError(f"edge sizes {sorted(bad)} not in uniformity set "
                             f"{sorted(uniformity)}")
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "edges", tuple(canon))
        object.__setattr__(self, "uniformity", uniformity)
        object.__setattr__(self, "_pair_edges", None)

    def __setattr__(self, name, value):
        raise AttributeError("Hypergraph is immutable")

    def __delattr__(self, name):
        raise AttributeError("Hypergraph is immutable")

    def __reduce__(self):
        return (Hypergraph, (self.n, self.edges, self.uniformity))

    def __eq__(self, other):
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (self.n == other.n and self.edges == other.edges
                and self.uniformity == other.uniformity)

    def __hash__(self):
        return hash((self.n, self.edges, self.uniformity))

    def __repr__(self):
        return (f"Hypergraph(n={self.n}, m={len(self.edges)}, "
                f"R={sorted(self.uniformity)})")

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def max_edge_size(self):
        """Largest permitted edge cardinality (k in the uniformity set)."""
        return max(self.uniformity)

    def pair_edges(self):
        """Map each vertex pair (u, v), u < v, to the sorted tuple of indices
        of edges containing both endpoints.  Computed once and cached."""
        if self._pair_edges is None:
            idx = {}
            for i, e in enumerate(self.edges):
                for p in combinations(e, 2):
                    idx.setdefault(p, []).append(i)
            object.__setattr__(
                self, "_pair_edges", {p: tuple(v) for p, v in idx.items()})
        return self._pair_edges

    def shadow(self):
        """2-shadow: the 2-uniform hypergraph (simple graph) whose edges are
        exactly the vertex pairs covered by some hyperedge."""
        return Hypergraph(self.n, self.pair_edges(), {2})

    def is_covering(self):
        """True iff every vertex pair lies in some hyperedge (equivalently
        the shadow is covering, i.e. complete, equivalently the minimum
        co-degree is >= 1)."""
        return len(self.pair_edges()) == self.n * (self.n - 1) // 2

    def codegree(self, vertex_set):
        """Number of hyperedges containing every vertex of `vertex_set`."""
        s = set(vertex_set)
        if not s <= set(range(1, self.n + 1)):
            raise ValueError(f"vertex set {sorted(s)} outside 1..{self.n}")
        if len(s) == 2:
            return len(self.pair_edges().get(tuple(sorted(s)), ()))
        return sum(1 for e in self.edges if s <= set(e))

    def min_codegree(self):
        """Minimum co-degree over all vertex pairs (0 if some pair is
        uncovered, or if n < 2)."""
        pairs = self.pair_edges()
        total = self.n * (self.n - 1) // 2
        if len(pairs) < total:
            return 0
        return min((len(v) for v in pairs.values()), default=0)


def _canonical(edges):
    """Each edge tuple as the ascending tuple of its distinct vertices.
    Returns `edges` itself when they already are, which is tested a
    column at a time when all the edges have one size."""
    if len(set(map(len, edges))) == 1:
        cols = list(zip(*edges))
        if all(all(map(lt, a, b)) for a, b in zip(cols, cols[1:])):
            return edges
    return list(map(tuple, map(sorted, map(set, edges))))


def _raise_first_bad_edge(n, edges):
    """Raise ValueError naming the first edge a hypergraph on 1..n cannot
    hold: repeated vertices, fewer than 2 vertices, a vertex out of range,
    or a duplicate, checked in that order."""
    seen = set()
    for e in edges:
        t = tuple(sorted(set(e)))
        if len(t) != len(e):
            raise ValueError(f"edge {e} has repeated vertices")
        if len(t) < 2:
            raise ValueError(f"edge {t} has cardinality < 2")
        if t[0] < 1 or t[-1] > n:
            raise ValueError(f"edge {t} out of vertex range 1..{n}")
        if t in seen:
            raise ValueError(f"duplicate edge {t}")
        seen.add(t)


class EdgeColoring:
    """A 2-coloring: the color of each hyperedge index, in canonical edge
    order, blue = 0 and red = 1.  Immutable, equal and hashed by value."""

    __slots__ = ("colors",)

    def __init__(self, colors):
        colors = tuple(map(int, colors))
        if not {0, 1}.issuperset(colors):
            bad = next(c for c in colors if c not in (0, 1))
            raise ValueError(f"color {bad} outside palette 0..1")
        object.__setattr__(self, "colors", colors)

    def __setattr__(self, name, value):
        raise AttributeError("EdgeColoring is immutable")

    def __delattr__(self, name):
        raise AttributeError("EdgeColoring is immutable")

    def __reduce__(self):
        return (EdgeColoring, (self.colors,))

    def __eq__(self, other):
        if not isinstance(other, EdgeColoring):
            return NotImplemented
        return self.colors == other.colors

    def __hash__(self):
        return hash((self.colors,))

    def __repr__(self):
        return f"EdgeColoring(colors={self.colors!r})"

    def __len__(self):
        return len(self.colors)

    def indices_of(self, color):
        return tuple(i for i, c in enumerate(self.colors) if c == color)


def check_coloring(hg, coloring):
    """Raise unless `coloring` has exactly one color per edge of `hg`."""
    if len(coloring) != hg.num_edges:
        raise ValueError(f"coloring length {len(coloring)} != edge count "
                         f"{hg.num_edges}")


def complete_host(n):
    """K_n as a 2-uniform covering hypergraph (every pair is its own edge);
    also the Berge target K_n."""
    return Hypergraph(n, combinations(range(1, n + 1), 2), uniformity={2})


def minimal_covering_subhypergraph(hg):
    """Strip removable edges until the covering property is edge-minimal.

    Edges are tried for removal in reverse canonical order; an edge is kept
    only if it is the unique cover of some pair.  The result is covering and
    every remaining edge has a private pair, so no single edge can be
    dropped.  Deterministic but not necessarily minimum-cardinality.
    """
    if not hg.is_covering():
        raise ValueError("input hypergraph is not covering")
    cover_count = {p: len(es) for p, es in hg.pair_edges().items()}
    keep = [True] * hg.num_edges
    for i in range(hg.num_edges - 1, -1, -1):
        pairs = list(combinations(hg.edges[i], 2))
        if all(cover_count[p] > 1 for p in pairs):
            keep[i] = False
            for p in pairs:
                cover_count[p] -= 1
    return Hypergraph(hg.n, (e for i, e in enumerate(hg.edges) if keep[i]),
                      hg.uniformity)


# -- text formats -----------------------------------------------------------
#
# Hypergraph file: line 1 is "<n> <m>", then one line per edge with the
# ascending vertex ids separated by single spaces.  Blank lines and lines
# starting with '#' are ignored.  A trailing newline is required.  Edges are
# canonicalized on load; files written by this package are always in
# canonical order.  Berge target files use the same layout with 2-vertex
# edges (see `berge.parse_target`).
#
# Coloring sidecar: one non-comment line of m characters, each '0' or '1',
# giving the color of each edge in canonical edge order.


def _check_text(text):
    if not isinstance(text, str):
        raise TypeError(f"expected text, got {type(text).__name__}")


def _content_rows(text):
    """The lines of `text` that are neither blank nor '#' comments."""
    _check_text(text)
    rows = list(filter(str.strip, text.splitlines()))
    if "#" in text:
        rows = [ln for ln in rows if not ln.lstrip().startswith("#")]
    return rows


def _first_content_row(text):
    """The first of `_content_rows(text)`, or None; the text is read only
    up to that row."""
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        rows = _content_rows(text[start:end])
        if rows:
            return rows[0]
        start = end
    return None


def _ints(row):
    """The integers of an edge, block or header row, else ValueError."""
    try:
        return tuple(map(int, row.split()))
    except ValueError:
        raise ValueError(f"non-integer entry in line {row!r}") from None


def _header(row, fields):
    """The integers of a header row with the named fields, e.g. `fields`
    "<n> <m>"; anything else raises ValueError quoting the row."""
    try:
        values = _ints(row)
    except ValueError:
        values = None
    if values is None or len(values) != len(fields.split()):
        raise ValueError(f"header must be '{fields}', got {row!r}")
    return values


def _int_rows(rows):
    """The integer tuples of edge or block rows, as a list in row order;
    the first row that is not all integers is named (`_ints`)."""
    try:
        return list(map(tuple, map(map, repeat(int), map(str.split, rows))))
    except ValueError:
        for row in rows:
            _ints(row)  # raises for the first row with a non-integer
        raise


def _format_rows(rows):
    """An iterator over the lines of integer rows, entries separated by
    single spaces, from one '%s' format per row size."""
    row = {k: " ".join(["%s"] * k) for k in set(map(len, rows))}
    return map(str.__mod__, map(row.__getitem__, map(len, rows)), rows)


def _read_edge_list(text, what):
    """(n, edge tuples) of an "<n> <m>" header and its m edge lines, in
    file order; `what` names the file kind in error messages."""
    rows = _content_rows(text)
    if not rows:
        raise ValueError(f"empty {what} text")
    n, m = _header(rows[0], "<n> <m>")
    if len(rows) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(rows) - 1}")
    return n, _int_rows(rows[1:])


def format_hypergraph(hg):
    lines = [f"{hg.n} {hg.num_edges}"]
    lines.extend(_format_rows(hg.edges))
    return "\n".join(lines) + "\n"


def parse_hypergraph(text, uniformity=None):
    _check_text(text)
    if not text.endswith("\n"):
        raise ValueError("hypergraph text must end with a newline")
    n, edges = _read_edge_list(text, "hypergraph")
    if _canonical(edges) != edges:
        for e in edges:
            if list(e) != sorted(set(e)):
                raise ValueError(f"edge line {e} is not strictly ascending")
    return Hypergraph(n, edges, uniformity)


def format_coloring(coloring):
    return "".join(str(c) for c in coloring.colors) + "\n"


def parse_coloring(text, num_edges):
    rows = _content_rows(text)
    if len(rows) != 1:
        raise ValueError("coloring sidecar must contain exactly one "
                         "non-comment line")
    digits = rows[0].strip()
    if not digits.isdigit():
        raise ValueError(f"coloring line {digits!r} has non-digit characters")
    if len(digits) != num_edges:
        raise ValueError(f"coloring length {len(digits)} != edge count "
                         f"{num_edges}")
    return EdgeColoring(tuple(map(int, digits)))
