"""The three workloads: seeded input generation, one pass over the
instance list through `coverramsey.cli.main` and the library, and the
output checks against `reference`.

A workload object is built once per run from the seed.  `setup(workdir)`
writes its input files, `run_pass(p)` drives one pass, and `check(p)`
computes the reference answers into `expected` (outside the timed region)
and compares the first pass's outputs with them.  Later passes are checked
by byte identity against the first.
"""

import json
import os
import random
from itertools import combinations

import reference as ref

TARGETS = {name: (nv, sorted(tuple(sorted(e)) for e in edges))
           for name, (nv, edges) in {
               "K3": (3, combinations(range(1, 4), 2)),
               "K4": (4, combinations(range(1, 5), 2)),
               "K5": (5, combinations(range(1, 6), 2)),
               "C4": (4, [(1, 2), (2, 3), (3, 4), (4, 1)]),
               "C5": (5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]),
               "C6": (6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)]),
               "P4": (4, [(1, 2), (2, 3), (3, 4)]),
           }.items()}


def target_text(target):
    nv, edges = target
    return f"{nv} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def host_text(n, edges):
    return f"{n} {len(edges)}\n" + "".join(
        " ".join(map(str, e)) + "\n" for e in edges)


def relabel(perm, edges, colors=None):
    """Apply the vertex permutation (perm[v] is the new label of v) and
    return the edges in canonical order, with the colors carried along."""
    moved = [(tuple(sorted(perm[v] for v in e)), i)
             for i, e in enumerate(edges)]
    moved.sort()
    new_edges = [e for e, _ in moved]
    if colors is None:
        return new_edges
    return new_edges, [colors[i] for _, i in moved]


def random_perm(rng, n):
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return [0] + labels


def write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


class Exhaustive:
    """Thousands of tiny colored Berge searches inside `unavoidable`."""

    name = "exhaustive"

    def __init__(self, seed):
        self.seed = seed

    def setup(self, workdir):
        rng = random.Random(f"exhaustive:{self.seed}")
        paths = {}
        for n in (5, 6):
            paths[f"K{n}"] = os.path.join(workdir, f"k{n}.hg")
            write(paths[f"K{n}"],
                  host_text(n, list(combinations(range(1, n + 1), 2))))
        for name in ("K3", "C4", "P4"):
            paths[name] = os.path.join(workdir, f"{name.lower()}.g")
            write(paths[name], target_text(TARGETS[name]))
        jobs = min(2, len(os.sched_getaffinity(0)))
        self.cases = []
        for host, g1, g2 in (("K6", "K3", "K3"), ("K5", "K3", "K3"),
                             ("K6", "C4", "C4"), ("K5", "C4", "C4"),
                             ("K6", "K3", "P4")):
            self.cases.append(
                (f"{host}:{g1},{g2}", paths[host], paths[g1], paths[g2], []))
        self.cases.append(
            ("K6:K3,K3:jobs", paths["K6"], paths["K3"], paths["K3"],
             ["--jobs", str(jobs), "--shard-bits", "2"]))
        # All covering 3-graphs on 5 points, each under its own seeded
        # relabelling; the family is closed under relabelling.
        triples = list(combinations(range(1, 6), 3))
        self.hosts5 = []
        for r in range(1, len(triples) + 1):
            for subset in combinations(triples, r):
                covered = {p for e in subset for p in combinations(e, 2)}
                if len(covered) == 10:
                    edges = relabel(random_perm(rng, 5), subset)
                    idx = len(self.hosts5)
                    path = os.path.join(workdir, f"h5-{idx:03d}.hg")
                    write(path, host_text(5, edges))
                    self.hosts5.append(edges)
                    self.cases.append((f"H5-{idx:03d}:K3,K3", path,
                                       paths["K3"], paths["K3"], []))
        self.instances = [case[0] for case in self.cases]

    def _references(self):
        """Expected verdicts: the classical Ramsey values for K5 and K6,
        and the brute-force oracle for each 5-point host, whose AVOIDABLE
        count must be the README's 85 of 388."""
        from _oracles import naive_unavoidable
        from coverramsey import Hypergraph, complete_graph

        expected = {}
        for inst in self.instances[:6]:
            host, pair = inst.split(":")[:2]
            expected[inst] = ref.unavoidable_on_kn(tuple(pair.split(",")),
                                                   int(host[1:]))
        k3 = complete_graph(3)
        for inst, edges in zip(self.instances[6:], self.hosts5):
            verdict, _ = naive_unavoidable(
                Hypergraph(5, edges, uniformity={3}), k3, k3)
            expected[inst] = verdict
        avoidable = sum(not v for k, v in expected.items()
                        if k.startswith("H5"))
        if (len(self.hosts5), avoidable) != (388, 85):
            raise RuntimeError(f"reference count {avoidable} of "
                               f"{len(self.hosts5)} differs from 85 of 388")
        return {k: "UNAVOIDABLE" if v else "AVOIDABLE"
                for k, v in expected.items()}

    def run_pass(self, p):
        for i, (inst, host, g1, g2, extra) in enumerate(self.cases):
            p.instance = inst
            out = p.out(f"u{i:03d}.json")
            p.cli(["unavoidable", host, g1, g2, "-o", out, *extra])
            with p.guard(inst):
                if json.loads(read(out))["verdict"] == "AVOIDABLE":
                    p.cli(["verify", out])

    def check(self, p):
        self.expected = self._references()
        for i, (inst, host, g1, g2, _) in enumerate(self.cases):
            with p.guard(inst):
                self._check_one(p, inst, f"u{i:03d}.json", host, g1, g2)

    def _check_one(self, p, inst, name, host, g1, g2):
        rec = p.record(inst, name)
        if rec is None:
            return
        want = self.expected[inst]
        if rec["verdict"] != want:
            p.fail(inst, f"verdict {rec['verdict']}, expected {want}")
        elif want == "AVOIDABLE":
            n, edges = ref.parse_hypergraph_text(read(host))
            colors = [int(c) for c in rec["witness"]]
            if (ref.contains_berge(n, edges, ref.parse_target_text(read(g1)),
                                   ref.color_class(colors, 0))
                    or ref.contains_berge(n, edges,
                                          ref.parse_target_text(read(g2)),
                                          ref.color_class(colors, 1))):
                p.fail(inst, "witness holds a monochromatic target")


class LowerBound:
    """The paper's constructive lower-bound pipeline: thresholds, designs,
    Moser-Tardos colorings, certificates and their re-verification."""

    name = "lower-bound"
    # t = 5 has no admissible n (the CLI exits 1), so the scan starts at 6.
    THRESHOLDS = (6, 7, 8, 9)
    DESIGNS = ((21, 3), (25, 5), (27, 3), (81, 3), (75, 3))
    MT = ((21, 3, 5), (25, 5, 5), (27, 3, 6))
    # Moser-Tardos resample counts vary from 0 to 8 between seeds on
    # D(27,3), t=6 (0.8 to 8.9 s), which would swamp every other cost of
    # the pass; the resampler therefore always runs with --seed 0 on the
    # design as built, and the workload seed relabels the certified hosts.
    MT_SEED = 0

    def __init__(self, seed):
        self.seed = seed

    def setup(self, workdir):
        rng = random.Random(f"lower-bound:{self.seed}")
        self.perms = {(n, k): random_perm(rng, n) for n, k, _ in self.MT}
        self.instances = [f"bound:t={t}" for t in self.THRESHOLDS]
        self.instances += [f"design:{n},{k}" for n, k in self.DESIGNS]
        self.instances += [f"mt:D({n},{k}),t={t}" for n, k, t in self.MT]

    def run_pass(self, p):
        for t in self.THRESHOLDS:
            p.instance = f"bound:t={t}"
            _, stdout = p.cli(["bound", "lll-threshold", str(t), "3",
                                  "--admissible", "--format", "structured"])
            p.stdout[p.instance] = stdout
        for n, k in self.DESIGNS:
            p.instance = f"design:{n},{k}"
            out = p.out(f"d{n}_{k}.design")
            p.cli(["gen-design", str(n), str(k), "-o", out])
            p.cli(["verify", out])
        for n, k, t in self.MT:
            p.instance = f"mt:D({n},{k}),t={t}"
            with p.guard(p.instance):
                self._mt_pipeline(p, n, k, t)

    def _mt_pipeline(self, p, n, k, t):
        """mt-lll on the design just written, then certify-lower on the
        relabelled host and coloring, with both records verified."""
        host, col = p.out(f"d{n}_{k}.hg"), p.out(f"mt{n}_{k}.col")
        rl_host, rl_col = p.out(f"rl{n}_{k}.hg"), p.out(f"rl{n}_{k}.col")
        rec, cert = p.out(f"mt{n}_{k}.json"), p.out(f"cl{n}_{k}.json")
        blocks = design_blocks(read(p.out(f"d{n}_{k}.design")))
        write(host, host_text(n, blocks))
        p.cli(["mt-lll", host, str(t), "--seed", str(self.MT_SEED),
               "-o", rec, "--coloring-out", col])
        p.cli(["verify", rec])
        edges, colors = relabel(self.perms[(n, k)], blocks,
                                ref.parse_coloring_text(read(col)))
        write(rl_host, host_text(n, edges))
        write(rl_col, "".join(map(str, colors)) + "\n")
        p.cli(["certify-lower", rl_host, rl_col, str(t), "-o", cert])
        p.cli(["verify", cert])

    def check(self, p):
        self.expected = {f"bound:t={t}": ref.lll_threshold_admissible(t, 3)
                         for t in self.THRESHOLDS}
        for t in self.THRESHOLDS:
            inst = f"bound:t={t}"
            with p.guard(inst):
                value = json.loads(p.stdout[inst])["value"]
                if value != self.expected[inst]:
                    p.fail(inst, f"threshold {value}, expected "
                                 f"{self.expected[inst]}")
        for n, k in self.DESIGNS:
            inst = f"design:{n},{k}"
            with p.guard(inst):
                if not ref.design_ok(read(p.out(f"d{n}_{k}.design")), n, k):
                    p.fail(inst, "design fails the reference check")
        for n, k, t in self.MT:
            inst = f"mt:D({n},{k}),t={t}"
            for name in (f"mt{n}_{k}.json", f"cl{n}_{k}.json"):
                with p.guard(inst):
                    rec = p.record(inst, name)
                    if rec is None:
                        continue
                    if rec["bound"] != n + 1 or rec["t"] != t:
                        p.fail(inst, f"{name} states the wrong bound")
                    hn, edges = ref.parse_hypergraph_text(rec["host_text"])
                    colors = ref.parse_coloring_text(rec["coloring_text"])
                    if not ref.mono_clique_free(hn, edges, colors, t):
                        p.fail(inst, f"{name}: coloring has a "
                                     f"monochromatic Berge-K{t}")


def design_blocks(text):
    """Blocks of a design file in canonical order."""
    _, classes = ref.parse_design_text(text)
    return sorted(tuple(sorted(blk)) for cls in classes for blk in cls)


class Certify:
    """Few deep Berge searches on large hosts, the scatter/trace and
    product reductions, and record reads by `verify`."""

    name = "certify"
    DESIGN_HOSTS = ((21, 3), (25, 5), (27, 3), (49, 7), (81, 3))
    # Non-linear covering hosts (n, k): every pair in at least two edges.
    DENSE_HOSTS = ((12, 3), (14, 4), (16, 3))
    COLORINGS = 3
    FIND = ("K4", "K5", "C5", "C6")
    SCATTER_S = 6
    SCATTER_TRIALS = 500
    # A uniform 6-subset of these hosts is scattered with probability
    # 0.04 (D49_7) to 0.76 (D81_3), so 1000 attempts do not fail; on
    # D25_5 (0.006) and the dense hosts (0 to 0.004) they could.
    SCATTER_HOSTS = ("D21_3", "D27_3", "D49_7", "D81_3")
    # A few searches take seconds on some seeds and milliseconds on most:
    # cycles on D49_7 (3 to 8 s, about one search in forty) and the K5
    # searches that find nothing on D25_5 and D49_7 (0.2 to 1.5 s).  Drawn
    # per seed they would swamp every other cost of a pass, so they are
    # left out of the seeded grid and a few are pinned instead, as (seed,
    # host, coloring, target, color), to be measured on every run.
    GRID_TARGETS = {"D25_5": ("K4", "C5", "C6"), "D49_7": ("K4",)}
    PINNED = ((58, "D49_7", 1, "C6", 0), (4, "D49_7", 0, "K5", 0),
              (7, "D25_5", 2, "K5", 1), (5, "D25_5", 2, "K5", 1))

    def __init__(self, seed):
        self.seed = seed

    def _host(self, seed, name):
        """Host `name` ("D<n>_<k>" design or "N<n>_<k>" dense) and its
        colorings, from their own seeded stream."""
        from coverramsey import construct_resolvable_bibd

        rng = random.Random(f"certify:{seed}:{name}")
        n, k = (int(x) for x in name[1:].split("_"))
        if name[0] == "D":
            edges = relabel(random_perm(rng, n),
                            construct_resolvable_bibd(n, k).blocks())
        else:
            edges = dense_covering(rng, n, k)
        colorings = [[rng.randrange(2) for _ in edges]
                     for _ in range(self.COLORINGS)]
        return (n, edges), colorings

    def setup(self, workdir):
        self.hosts = {}
        self.colorings = {}
        self.instances = []
        names = [f"D{n}_{k}" for n, k in self.DESIGN_HOSTS]
        names += [f"N{n}_{k}" for n, k in self.DENSE_HOSTS]
        for name in names:
            self.hosts[name], colorings = self._host(self.seed, name)
            for c, colors in enumerate(colorings):
                self.colorings[(name, c)] = colors
                for tname in self.GRID_TARGETS.get(name, self.FIND):
                    for color in (0, 1):
                        self.instances.append(
                            f"find:{name}.{c}:{tname}:{color}")
                self.instances.append(f"reduce:{name}.{c}")
                self.instances.append(f"product-route:{name}.{c}")
                if name in self.SCATTER_HOSTS:
                    self.instances.append(f"trace-route:{name}.{c}")
            if name in self.SCATTER_HOSTS:
                self.instances.append(f"scatter:{name}")
        for i, (seed, name, c, tname, color) in enumerate(self.PINNED):
            self.hosts[f"pinned{i}"], colorings = self._host(seed, name)
            self.colorings[(f"pinned{i}", 0)] = colorings[c]
            self.instances.append(f"find:pinned{i}.0:{tname}:{color}")
        self.paths = {}
        for name, (n, edges) in self.hosts.items():
            self.paths[name] = os.path.join(workdir, f"{name}.hg")
            write(self.paths[name], host_text(n, edges))
        for (name, c), colors in self.colorings.items():
            self.paths[(name, c)] = os.path.join(workdir, f"{name}.{c}.col")
            write(self.paths[(name, c)], "".join(map(str, colors)) + "\n")
        for tname in self.FIND + ("K3",):
            self.paths[tname] = os.path.join(workdir, f"{tname}.g")
            write(self.paths[tname], target_text(TARGETS[tname]))
        self.scatter_seed = random.Random(f"certify:{self.seed}").randrange(
            2 ** 31)

    def _colors(self, name, c):
        return self.colorings[(name, int(c))]

    def run_pass(self, p):
        for i, inst in enumerate(self.instances):
            p.instance = inst
            kind, rest = inst.split(":", 1)
            if kind == "find":
                hc, tname, color = rest.split(":")
                name, c = hc.split(".")
                out = p.out(f"f{i:03d}.json")
                p.cli(["find-berge", self.paths[name], self.paths[tname],
                       "--coloring", self.paths[(name, int(c))],
                       "--color", color, "-o", out])
                p.cli(["verify", out])
            elif kind == "reduce":
                name, c = rest.split(".")
                out = p.out(f"r{i:03d}.json")
                p.cli(["reduce-product", self.paths[name],
                       self.paths[(name, int(c))], "-o", out])
                p.cli(["verify", out])
            elif kind == "scatter":
                out = p.out(f"s{i:03d}.json")
                p.cli(["scatter", self.paths[rest], str(self.SCATTER_S),
                       "--seed", str(self.scatter_seed),
                       "--trials", str(self.SCATTER_TRIALS), "-o", out])
                p.cli(["verify", out])
            else:
                name, c = rest.split(".")
                p.lib(self._route, kind, self.paths[name],
                      self.paths[(name, int(c))])

    def _route(self, kind, host_path, col_path):
        """One library route from the host and coloring files to a
        verified lifted Berge-K3 certificate.  Names are looked up on the
        modules at call time, so that a traced run sees the calls."""
        import coverramsey.berge as berge
        import coverramsey.hypergraph as hyper
        import coverramsey.reductions as red

        k3 = berge.complete_graph(3)
        hg = hyper.parse_hypergraph(read(host_path))
        coloring = hyper.parse_coloring(read(col_path), hg.num_edges)
        if kind == "trace-route":
            sample = red.sample_scattered_subset(hg, self.SCATTER_S,
                                                 seed=self.scatter_seed)
            if sample is None:
                return {"found": False}
            reduction = red.trace_coloring(hg, coloring, sample)
            lift = red.lift_trace_subgraph
        else:
            reduction = red.multicolor_product_reduction(hg, coloring)
            lift = red.lift_mono_subgraph
        hit = red.find_mono_subgraph(reduction.pair_color, hg.n, k3)
        if hit is None:
            return {"found": False}
        cert = lift(reduction, hg, k3, hit[1], coloring)
        color = coloring.colors[cert.edge_dict()[0]]
        return {"found": True, "vertex_map": cert.vertex_map,
                "edge_map": cert.edge_map, "color": color,
                "ok": bool(berge.verify_certificate(hg, k3, cert, coloring,
                                                    color))}

    def check(self, p):
        self.expected = {}
        record_checks = {"find": self._check_find,
                         "reduce": self._check_reduce,
                         "scatter": self._check_scatter}
        for i, inst in enumerate(self.instances):
            kind, rest = inst.split(":", 1)
            with p.guard(inst):
                if kind in record_checks:
                    rec = p.record(inst, f"{kind[0]}{i:03d}.json")
                    if rec is not None:
                        record_checks[kind](p, inst, rest, rec)
                else:
                    self._check_route(p, inst, kind, rest)

    def _check_find(self, p, inst, rest, rec):
        """A found copy must pass the reference certificate check; a
        not-found answer must match the reference enumeration, which is
        run only then (it is slow on some hosts where copies exist)."""
        hc, tname, color = rest.split(":")
        name, c = hc.split(".")
        n, edges = self.hosts[name]
        colors = self._colors(name, c)
        if rec["found"]:
            self.expected[inst] = ref.certificate_ok(
                n, edges, TARGETS[tname], rec["vertex_map"], rec["edge_map"],
                colors, int(color))
        else:
            self.expected[inst] = ref.contains_berge(
                n, edges, TARGETS[tname], ref.color_class(colors, int(color)))
        if rec["found"] != self.expected[inst]:
            p.fail(inst, f"found={rec['found']}, reference "
                         f"{self.expected[inst]}")

    def _check_reduce(self, p, inst, rest, rec):
        name, c = rest.split(".")
        n, edges = self.hosts[name]
        if rec["color_matrix_lower"] != product_matrix(
                n, edges, self._colors(name, c)):
            p.fail(inst, "product color matrix differs from the reference")

    def _check_scatter(self, p, inst, rest, rec):
        _, edges = self.hosts[rest]
        subset = set(rec["subset"])
        if (len(subset) != self.SCATTER_S
                or any(len(subset.intersection(e)) > 2 for e in edges)):
            p.fail(inst, "sampled subset is not a scattered 6-set")
        if (rec["trials"] != self.SCATTER_TRIALS
                or not 0 <= rec["rejected"] <= self.SCATTER_TRIALS):
            p.fail(inst, "rejection trial counts are off")

    def _check_route(self, p, inst, kind, rest):
        result = p.results.get(inst)
        if result is None:
            return
        name, c = rest.split(".")
        n, edges = self.hosts[name]
        colors = self._colors(name, c)
        if not result["found"]:
            # R(3,3) = 6, so a 2-colored trace on 6 points always holds a
            # monochromatic K3; the product route may miss only when the
            # reference product coloring has no monochromatic triangle.
            if kind == "trace-route" or product_has_triangle(n, edges,
                                                             colors):
                p.fail(inst, "route found no monochromatic K3")
        elif not result["ok"]:
            p.fail(inst, "verify_certificate rejects the lifted certificate")
        elif not ref.certificate_ok(n, edges, TARGETS["K3"],
                                    result["vertex_map"], result["edge_map"],
                                    colors, result["color"]):
            p.fail(inst, "lifted certificate fails the reference check")


def dense_covering(rng, n, k):
    """Random k-uniform host on 1..n with every pair in two or more
    edges: random k-sets are added until the co-degree reaches 2."""
    edges = set()
    cover = {p: 0 for p in combinations(range(1, n + 1), 2)}
    while min(cover.values()) < 2:
        short = [p for p, c in cover.items() if c < 2]
        u, v = short[rng.randrange(len(short))]
        rest = rng.sample([w for w in range(1, n + 1) if w not in (u, v)],
                          k - 2)
        e = tuple(sorted((u, v, *rest)))
        if e in edges:
            continue
        edges.add(e)
        for q in combinations(e, 2):
            cover[q] += 1
    return sorted(edges)


def product_matrix(n, edges, colors):
    """Lower-triangular product colors: pair uv takes the first edge
    containing it; color = host color * C(k,2) + (label of uv in it) - 1,
    labels numbering each edge's pairs lexicographically from 1."""
    k = max(len(e) for e in edges)
    labels = k * (k - 1) // 2
    first = {}
    for i, e in enumerate(edges):
        for r, q in enumerate(combinations(e, 2)):
            first.setdefault(q, colors[i] * labels + r)
    return [[first[(u, v)] for u in range(1, v)] for v in range(2, n + 1)]


def product_has_triangle(n, edges, colors):
    matrix = product_matrix(n, edges, colors)
    color_of = {(u, v): matrix[v - 2][u - 1]
                for v in range(2, n + 1) for u in range(1, v)}
    for a, b, c in combinations(range(1, n + 1), 3):
        if color_of[(a, b)] == color_of[(a, c)] == color_of[(b, c)]:
            return True
    return False


WORKLOADS = {w.name: w for w in (Exhaustive, LowerBound, Certify)}
