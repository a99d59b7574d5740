"""Command-line front end.

Every output file embeds a run manifest (subcommand, argv, seed, input
digests, tool version) so runs are reproducible byte for byte; wall time
goes to stderr only.  Certificate-style outputs are JSON records that the
`verify` subcommand can re-check from the file alone.

Exit codes: 0 success / verdict found, 1 precondition violation,
2 search or sampling limit exceeded, 3 verification failure.

Importing this module loads no library module: each function imports the
library names it calls when it runs, so a command loads only the modules
its subcommand uses (`verify`, which reads any record, loads them all).
"""

import argparse
import contextlib
import functools
import io
import json
import reprlib
import sys
import time

from . import __version__
from ._common import (DEFAULT_COLORING_LIMIT, DEFAULT_MAX_ATTEMPTS,
                      DEFAULT_MAX_RESAMPLES, LimitExceededError,
                      VerificationFailure)

EXIT_OK = 0
EXIT_PRECONDITION = 1
EXIT_LIMIT = 2
EXIT_VERIFY = 3


def _read(args, path):
    """The text of the input file `path`, its digest noted for the run's
    manifest."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc
    import hashlib  # only here, so that the CLI starts without OpenSSL
    args._inputs[path] = "sha256:" + hashlib.sha256(data).hexdigest()
    return data.decode("utf-8")


def _seed(args):
    """The seed of a run: its --seed, or None for a command without one."""
    return getattr(args, "seed", None)


def _manifest(args):
    return {
        "tool": "coverramsey",
        "version": __version__,
        "subcommand": args.command,
        "argv": args._argv,
        "seed": _seed(args),
        "inputs": args._inputs,
    }


def _text_file(kind, args, body):
    """A text output file: '# coverramsey <kind>' and '# manifest: ...'
    comment lines, then `body`."""
    return (f"# coverramsey {kind}\n"
            f"# manifest: {json.dumps(_manifest(args), sort_keys=True)}\n"
            + body)


def _emit_json(record, path):
    text = json.dumps(record, indent=2, sort_keys=True,
                      ensure_ascii=False) + "\n"
    _emit_text(text, path)


def _emit_text(text, path):
    """Write `text` to the file `path`, naming it on stderr, or to stdout
    when no path is given."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {path}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _record(kind, args, **fields):
    """The JSON record of type `kind` with the run's manifest."""
    return {"record": kind, "manifest": _manifest(args), **fields}


def _fraction_str(frac):
    return f"{frac.numerator}/{frac.denominator}"


def _product_fields(hg, coloring):
    """The product-reduction fields fixed by the host and its coloring.
    Row v - 2 of the matrix lists the colors of the pairs (u, v), u < v."""
    from .reductions import multicolor_product_reduction
    red = multicolor_product_reduction(hg, coloring)
    matrix = [[red.pair_color[(u, v)] for u in range(1, v)]
              for v in range(2, red.n + 1)]
    provenance = [[u, v, ie, label]
                  for (u, v), (ie, label) in sorted(red.provenance.items())]
    return {"n": red.n, "palette_size": red.palette_size,
            "label_count": red.label_count, "color_matrix_lower": matrix,
            "provenance": provenance}


def _covering_fields(hg):
    """The covering-check fields fixed by the host."""
    return {"n": hg.n, "m": hg.num_edges, "covering": hg.is_covering(),
            "min_codegree": hg.min_codegree()}


def _scatter_fields(hg, s, seed, trials, max_attempts):
    """The scatter-sample fields fixed by the host, `s`, the seed, the
    trial count and the attempt limit; the trial fields only when `trials`
    is nonzero, `subset` and `attempts` only when a sample is found."""
    from .reductions import (sample_scattered_subset, scatter_failure_bound,
                             scatter_rejection_trials)
    k = hg.max_edge_size
    bound = scatter_failure_bound(hg.n, s, k)
    fields = {"k": k, "failure_bound": _fraction_str(bound),
              "failure_bound_float": float(bound)}
    if trials:
        rejected, trials = scatter_rejection_trials(hg, s, trials, seed=seed)
        fields.update(trials=trials, rejected=rejected,
                      empirical_rate=rejected / trials)
    sample = sample_scattered_subset(hg, s, seed=seed,
                                     max_attempts=max_attempts)
    fields["found"] = sample is not None
    if sample is not None:
        fields.update(subset=list(sample.subset), attempts=sample.attempts)
    return fields


# -- subcommands --------------------------------------------------------------


def cmd_gen_design(args):
    from .designs import (construct_resolvable_bibd, format_design,
                          verify_resolvable_bibd)
    design = construct_resolvable_bibd(args.n, args.k)
    report = verify_resolvable_bibd(design)
    if not report.ok():
        raise VerificationFailure(
            f"constructed design failed its own verifier: "
            f"{report.violations[0].detail}")
    _emit_text(_text_file("design", args, format_design(design)),
               args.output)
    return EXIT_OK


def cmd_check_covering(args):
    from .hypergraph import format_hypergraph, parse_hypergraph
    hg = parse_hypergraph(_read(args, args.host))
    fields = _covering_fields(hg)
    if args.format == "structured":
        _emit_json(_record("covering-check", args,
                           host_text=format_hypergraph(hg), **fields),
                   args.output)
    else:
        _emit_text(f"covering: {fields['covering']} "
                   f"(n={hg.n}, m={hg.num_edges}, "
                   f"min co-degree {fields['min_codegree']})\n", args.output)
    return EXIT_OK


def _load_host_and_coloring(args):
    from .hypergraph import parse_coloring, parse_hypergraph
    hg = parse_hypergraph(_read(args, args.host))
    coloring = None
    if getattr(args, "coloring", None) is not None:
        coloring = parse_coloring(_read(args, args.coloring), hg.num_edges)
    return hg, coloring


def cmd_find_berge(args):
    from .berge import find_berge, parse_target
    from .hypergraph import format_coloring, format_hypergraph
    hg, coloring = _load_host_and_coloring(args)
    target_text = _read(args, args.target)
    target = parse_target(target_text)
    color = args.color
    if (coloring is None) != (color is None):
        raise ValueError("--coloring and --color must be given together")
    cert = find_berge(hg, target, coloring, color)
    record = _record("berge-certificate", args,
                     host_text=format_hypergraph(hg), target_text=target_text,
                     color=color, found=cert is not None)
    if coloring is not None:
        record["coloring_text"] = format_coloring(coloring)
    if cert is not None:
        record["vertex_map"] = [list(p) for p in cert.vertex_map]
        record["edge_map"] = [list(p) for p in cert.edge_map]
    _emit_json(record, args.output)
    return EXIT_OK


def _shard_bits(args):
    """The prefix length an `unavoidable` command line merges shards of,
    or None when it runs one search; its flags are checked first."""
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    if args.jobs == 1 and args.shard_bits is None:
        return None
    if args.shard is not None:
        raise ValueError("--shard runs one shard and takes neither "
                         "--jobs > 1 nor --shard-bits")
    return 2 if args.shard_bits is None else args.shard_bits


def _unavoidability(hg, g1, g2, args, bits, jobs):
    """The result of the `unavoidable` command line `args` on the host and
    targets, its shards (if `bits` is not None) run by `jobs` workers."""
    from .search import unavoidable, unavoidable_sharded
    if bits is None:
        return unavoidable(hg, g1, g2, shard=args.shard, limit=args.limit)
    return unavoidable_sharded(hg, g1, g2, bits, limit=args.limit, jobs=jobs)


def cmd_unavoidable(args):
    from .berge import parse_target
    from .hypergraph import (format_coloring, format_hypergraph,
                             parse_hypergraph)
    bits = _shard_bits(args)
    hg = parse_hypergraph(_read(args, args.host))
    g1_text, g2_text = _read(args, args.g1), _read(args, args.g2)
    g1, g2 = parse_target(g1_text), parse_target(g2_text)
    result = _unavoidability(hg, g1, g2, args, bits, args.jobs)
    record = _record("unavoidability-result", args,
                     host_text=format_hypergraph(hg), g1_text=g1_text,
                     g2_text=g2_text, verdict=result.verdict,
                     colorings_examined=result.colorings_examined,
                     shard=result.shard_spec)
    if result.witness is not None:
        record["witness"] = format_coloring(result.witness).strip()
    if args.format == "structured" or args.output:
        _emit_json(record, args.output)
    else:
        line = (f"{result.verdict} after {result.colorings_examined} "
                f"colorings")
        if result.witness is not None:
            line += f"; witness {record['witness']}"
        _emit_text(line + "\n", args.output)
    return EXIT_OK


def cmd_mt_lll(args):
    from .hypergraph import parse_hypergraph
    from .search import lower_bound_certificate, moser_tardos_coloring
    hg = parse_hypergraph(_read(args, args.host))
    run = moser_tardos_coloring(hg, args.t, seed=args.seed,
                                max_resamples=args.max_resamples)
    if run.coloring is None:
        print(f"no good coloring within {run.resamples} resamples",
              file=sys.stderr)
        return EXIT_LIMIT
    cert = lower_bound_certificate(hg, run.coloring, args.t)
    if args.coloring_out:
        _emit_text(_text_file("coloring", args, cert.coloring_text),
                   args.coloring_out)
    _emit_json(_record("lower-bound-certificate", args, **cert._asdict(),
                       resamples=run.resamples), args.output)
    return EXIT_OK


def cmd_scatter(args):
    from .hypergraph import format_hypergraph, parse_hypergraph
    hg = parse_hypergraph(_read(args, args.host))
    fields = _scatter_fields(hg, args.s, args.seed, args.trials,
                             args.max_attempts)
    _emit_json(_record("scatter-sample", args, host_text=format_hypergraph(hg),
                       s=args.s, **fields), args.output)
    if not fields["found"]:
        print(f"no scattered subset within {args.max_attempts} attempts",
              file=sys.stderr)
        return EXIT_LIMIT
    return EXIT_OK


def cmd_reduce_product(args):
    from .hypergraph import format_coloring, format_hypergraph
    hg, coloring = _load_host_and_coloring(args)
    _emit_json(_record("product-reduction", args,
                       host_text=format_hypergraph(hg),
                       coloring_text=format_coloring(coloring),
                       **_product_fields(hg, coloring)), args.output)
    return EXIT_OK


def _bound_report(args):
    """The BoundReport of a `bound` command line; the number of integer
    arguments is checked first."""
    from .bounds import (asymptotic_lower, lll_inequality_holds,
                         lll_threshold_n, thm1_upper_bound)
    needed = {"thm1": 2, "lll": 3, "lll-threshold": 2, "asym": 1}[args.formula]
    given = [v for v in (args.a, args.b, args.c) if v is not None]
    if len(given) != needed:
        raise ValueError(f"bound {args.formula} takes {needed} integer "
                         f"argument(s), got {len(given)}")
    if args.formula == "thm1":
        return thm1_upper_bound(args.a, args.b)
    if args.formula == "lll":
        return lll_inequality_holds(args.a, args.b, args.c)
    if args.formula == "lll-threshold":
        return lll_threshold_n(args.a, args.b, admissible=args.admissible)
    return asymptotic_lower(args.a)


def _bound_fields(report):
    """The bound-report fields of a BoundReport; a Fraction value as
    "p/q"."""
    from fractions import Fraction
    value = report.value
    return {"formula_id": report.formula_id, "inputs": report.inputs,
            "value": (_fraction_str(value) if isinstance(value, Fraction)
                      else value),
            "satisfied": report.satisfied, "notes": list(report.notes)}


def cmd_bound(args):
    report = _bound_report(args)
    if args.format == "structured":
        _emit_json(_record("bound-report", args, **_bound_fields(report)),
                   args.output)
    else:
        _emit_text(report.render(), args.output)
    return EXIT_OK


def cmd_certify_lower(args):
    from .search import lower_bound_certificate
    hg, coloring = _load_host_and_coloring(args)
    cert = lower_bound_certificate(hg, coloring, args.t)
    _emit_json(_record("lower-bound-certificate", args, **cert._asdict()),
               args.output)
    print(cert.statement, file=sys.stderr)
    return EXIT_OK


# -- verify -------------------------------------------------------------------


def _mismatch(record, recomputed):
    """A message naming the first field of `recomputed` whose recorded
    value differs, or None.  Values are compared as JSON with sorted keys,
    as records are written, so 5.0 or true does not pass for 5 or 1.  Long
    values are abbreviated."""
    for field, value in recomputed.items():
        if (json.dumps(record[field], sort_keys=True)
                != json.dumps(value, sort_keys=True)):
            return (f"{field} mismatch: recomputed {reprlib.repr(value)}, "
                    f"recorded {reprlib.repr(record[field])}")
    return None


def _verify_berge_record(record):
    from .berge import (BergeCertificate, find_berge, parse_target,
                        verify_certificate)
    from .hypergraph import parse_coloring, parse_hypergraph
    hg = parse_hypergraph(record["host_text"])
    target = parse_target(record["target_text"])
    color = record.get("color")
    if (color is None) != ("coloring_text" not in record):
        raise ValueError("malformed berge-certificate record: 'color' and "
                         "'coloring_text' must be given together")
    coloring = None
    if "coloring_text" in record:
        coloring = parse_coloring(record["coloring_text"], hg.num_edges)
    if not record.get("found"):
        # an absence claim is checked by running the recorded search again
        if find_berge(hg, target, coloring, color) is not None:
            return False, ("absence claim refuted: the recorded search "
                           "finds a copy")
        return True, "absence re-verified: the recorded search finds no copy"
    cert = BergeCertificate(
        tuple(tuple(p) for p in record["vertex_map"]),
        tuple(tuple(p) for p in record["edge_map"]))
    result = verify_certificate(hg, target, cert, coloring, color)
    return bool(result), result.reason or "certificate verifies"


def _verify_lower_bound_record(record):
    from .hypergraph import format_coloring, parse_coloring, parse_hypergraph
    from .search import lower_bound_certificate, moser_tardos_coloring
    hg = parse_hypergraph(record["host_text"])
    coloring = parse_coloring(record["coloring_text"], hg.num_edges)
    try:
        cert = lower_bound_certificate(hg, coloring, record["t"])
    except VerificationFailure as exc:
        return False, str(exc)
    problem = _mismatch(record, cert._asdict())
    if not problem and ("resamples" in record
                        or record["manifest"]["subcommand"] == "mt-lll"):
        # an mt-lll run is re-run: its coloring and resample count must
        # be the ones the recorded seed and resample limit give
        args = _recorded_args(record, "mt-lll")
        run = moser_tardos_coloring(hg, record["t"], seed=args.seed,
                                    max_resamples=args.max_resamples)
        problem = _mismatch(record, {
            "coloring_text": run.coloring and format_coloring(run.coloring),
            "resamples": run.resamples})
    return not problem, problem or cert.statement


def _verify_unavoidability_record(record):
    from .berge import contains_mono_berge, parse_target
    from .hypergraph import parse_coloring, parse_hypergraph
    from .search import AVOIDABLE, UNAVOIDABLE, avoidable_counters
    hg = parse_hypergraph(record["host_text"])
    g1 = parse_target(record["g1_text"])
    g2 = parse_target(record["g2_text"])
    if record["verdict"] not in (AVOIDABLE, UNAVOIDABLE):
        raise ValueError(f"malformed unavoidability-result record: unknown "
                         f"verdict {record['verdict']!r}")
    if record["verdict"] == AVOIDABLE:
        coloring = parse_coloring(record["witness"] + "\n", hg.num_edges)
        hit = contains_mono_berge(hg, coloring, g1, g2)
        if hit is not None:
            return False, f"witness contains a monochromatic target: {hit[0]}"
        # version 0.1.0 visited colorings in Gray-code order; later ones
        # in binary order, where the witness and argv fix the counters
        if record["manifest"]["version"] != "0.1.0":
            args = _recorded_args(record, "unavoidable")
            counters = avoidable_counters(hg, g1, g2, coloring, args.shard,
                                          _shard_bits(args))
            if counters is None:
                return False, ("witness extends no shard prefix of the "
                               "recorded run")
            examined, spec = counters
            problem = _mismatch(record, {"colorings_examined": examined,
                                         "shard": spec})
            if problem:
                return False, problem
        return True, "witness re-verified (avoids both targets)"
    # the search is re-run as recorded, its shards by one worker
    args = _recorded_args(record, "unavoidable")
    result = _unavoidability(hg, g1, g2, args, _shard_bits(args), 1)
    problem = _mismatch(record, {
        "verdict": result.verdict,
        "colorings_examined": result.colorings_examined,
        "shard": result.shard_spec})
    return not problem, problem or ("UNAVOIDABLE verdicts re-verify only "
                                    "by re-running the search")


def _recorded_args(record, command):
    """The arguments of the run that wrote `record`, parsed from its
    manifest argv by the parser that run used; the manifest seed must be
    the argv's --seed, or null for a command that takes no seed."""
    argv = record["manifest"]["argv"]
    args = None
    if type(argv) is list and all(type(a) is str for a in argv):
        sink = io.StringIO()  # argparse reports a bad argv by printing
        try:
            with (contextlib.redirect_stdout(sink),
                  contextlib.redirect_stderr(sink)):
                args = build_parser().parse_args(argv)
        except SystemExit:
            pass
    if args is None or args.command != command:
        raise ValueError(f"malformed {record['record']} record: argv "
                         f"{reprlib.repr(argv)} is not a {command} command")
    seed, want = record["manifest"]["seed"], _seed(args)
    if seed is not want and (type(seed) is not int or seed != want):
        wanted = ("null, as the command takes no --seed" if want is None
                  else f"the argv's --seed {want}")
        raise ValueError(f"malformed {record['record']} record: seed "
                         f"{reprlib.repr(seed)} is not {wanted}")
    return args


def _verify_scatter_record(record):
    from .hypergraph import parse_hypergraph
    hg = parse_hypergraph(record["host_text"])
    s = record["s"]
    args = _recorded_args(record, "scatter")
    fields = _scatter_fields(hg, s, args.seed, record.get("trials", 0),
                             args.max_attempts)
    if {"rejected", "empirical_rate"} & record.keys() - fields.keys():
        raise ValueError("malformed scatter-sample record: rejection "
                         "counts without a positive 'trials'")
    # checked before the re-derived fields, so a bad subset is named as such
    if record["found"]:
        subset = set(record["subset"])
        if (len(record["subset"]) != s or len(subset) != s
                or any(type(v) is not int or not 1 <= v <= hg.n
                       for v in subset)):
            return False, f"subset is not {s} distinct vertices in 1..{hg.n}"
        worst = max(len(subset.intersection(e)) for e in hg.edges)
        if worst > 2:
            return False, (f"some hyperedge meets the subset in {worst} "
                           f"vertices")
    problem = _mismatch(record, fields)
    if problem:
        return False, problem
    if not record["found"]:
        return True, (f"absence re-derived: no scattered subset within "
                      f"{args.max_attempts} attempts")
    return True, "subset is scattered"


def _verify_product_record(record):
    from .hypergraph import parse_coloring, parse_hypergraph
    hg = parse_hypergraph(record["host_text"])
    coloring = parse_coloring(record["coloring_text"], hg.num_edges)
    problem = _mismatch(record, _product_fields(hg, coloring))
    return (not problem,
            problem or "reduction reproduces from host and coloring")


def _verify_bound_record(record):
    args = _recorded_args(record, "bound")
    problem = _mismatch(record, _bound_fields(_bound_report(args)))
    return not problem, problem or "bound re-derived from the recorded argv"


def _verify_covering_record(record):
    from .hypergraph import parse_hypergraph
    hg = parse_hypergraph(record["host_text"])
    problem = _mismatch(record, _covering_fields(hg))
    return not problem, problem or "covering check reproduces from host"


def _json_record(text):
    """The JSON record `text` holds.  JSON has no comments, so a '#' line
    before the record is named rather than reported as a parse error."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        for number, line in enumerate(text.splitlines(), 1):
            if line.lstrip().startswith("#"):
                raise ValueError(
                    f"line {number} is a '#' comment ({line.strip()!r}); "
                    f"a JSON record cannot hold comment lines") from None
            if line.strip():
                break
        raise


def cmd_verify(args):
    # every library module, whatever the record: perfbench's tracer wraps
    # functions only in loaded modules, and a workload pass may run no
    # other command that loads, say, `reductions`
    from . import berge, bounds, designs, hypergraph, reductions, search
    from .designs import parse_design, verify_resolvable_bibd
    from .hypergraph import _first_content_row, parse_hypergraph
    text = _read(args, args.file)
    # dispatch on the first line that is neither blank nor a '#' comment
    first = _first_content_row(text) or ""
    if first.lstrip().startswith("{"):
        record = _json_record(text)
        kind = record.get("record")
        handlers = {
            "berge-certificate": _verify_berge_record,
            "lower-bound-certificate": _verify_lower_bound_record,
            "unavoidability-result": _verify_unavoidability_record,
            "scatter-sample": _verify_scatter_record,
            "product-reduction": _verify_product_record,
            "bound-report": _verify_bound_record,
            "covering-check": _verify_covering_record,
        }
        try:
            if kind not in handlers:
                raise ValueError(f"unknown record type {kind!r}")
            ok, message = handlers[kind](record)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed {kind} record: {exc!r}") from exc
    else:
        if text.startswith("# coverramsey coloring\n"):
            raise ValueError(f"{args.file} is a coloring sidecar, which "
                             f"holds no claim; verify the mt-lll or "
                             f"certify-lower record instead")
        head = first.split()
        if len(head) == 3:
            design = parse_design(text)
            report = verify_resolvable_bibd(design)
            ok = report.ok()
            message = ("design verifies" if ok else
                       "; ".join(f"{v.code}: {v.detail}"
                                 for v in report.violations))
        elif len(head) == 2:
            hg = parse_hypergraph(text)
            ok = True
            message = (f"hypergraph parses (n={hg.n}, m={hg.num_edges}, "
                       f"covering={hg.is_covering()})")
        else:
            raise ValueError("unrecognized file type")
    print(message)
    return EXIT_OK if ok else EXIT_VERIFY


# -- parser -------------------------------------------------------------------


@functools.cache
def build_parser():
    """The argument parser, built on first use.  Subcommand handlers are
    looked up by name when `main` dispatches, not stored in the parser."""
    parser = argparse.ArgumentParser(
        prog="coverramsey",
        description="cover Ramsey toolkit: designs, Berge detection, "
                    "reductions, coloring search and exact bounds")
    parser.add_argument("--version", action="version",
                        version=f"coverramsey {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, output=True, fmt=True):
        if output:
            p.add_argument("-o", "--output", help="write result to this file")
        if fmt:
            p.add_argument("--format", choices=("text", "structured"),
                           default="text")

    p = sub.add_parser("gen-design", help="construct a resolvable design")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    add_common(p, fmt=False)

    p = sub.add_parser("check-covering", help="covering test for a host file")
    p.add_argument("host")
    add_common(p)

    p = sub.add_parser("find-berge", help="search for a Berge copy")
    p.add_argument("host")
    p.add_argument("target")
    p.add_argument("--coloring", help="coloring sidecar file")
    p.add_argument("--color", type=int, help="restrict to this color class")
    add_common(p, fmt=False)

    p = sub.add_parser("unavoidable",
                       help="exhaustive 2-coloring unavoidability check")
    p.add_argument("host")
    p.add_argument("g1")
    p.add_argument("g2")
    p.add_argument("--shard", help="bit-string prefix fixing leading edges")
    p.add_argument("--shard-bits", type=int,
                   help="split into the prefix shards of this length "
                        "and merge them (default 2 under --jobs > 1)")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--limit", type=int, default=DEFAULT_COLORING_LIMIT,
                   help="max colorings per (sharded) search")
    add_common(p)

    p = sub.add_parser("mt-lll",
                       help="Moser-Tardos resampling on a design host")
    p.add_argument("host")
    p.add_argument("t", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-resamples", type=int,
                   default=DEFAULT_MAX_RESAMPLES)
    p.add_argument("--coloring-out", help="also write the coloring sidecar")
    add_common(p, fmt=False)

    p = sub.add_parser("scatter", help="sample a scattered vertex subset")
    p.add_argument("host")
    p.add_argument("s", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-attempts", type=int, default=DEFAULT_MAX_ATTEMPTS)
    p.add_argument("--trials", type=int, default=0,
                   help="also estimate the rejection rate empirically")
    add_common(p, fmt=False)

    p = sub.add_parser("reduce-product",
                       help="product reduction to a multicolored K_n")
    p.add_argument("host")
    p.add_argument("coloring")
    add_common(p, fmt=False)

    p = sub.add_parser("bound", help="evaluate a closed-form bound")
    p.add_argument("formula",
                   choices=("thm1", "lll", "lll-threshold", "asym"))
    p.add_argument("a", type=int)
    p.add_argument("b", type=int, nargs="?")
    p.add_argument("c", type=int, nargs="?")
    p.add_argument("--admissible", action="store_true",
                   help="restrict lll-threshold to design-admissible n")
    add_common(p)

    p = sub.add_parser("certify-lower",
                       help="verify a coloring and emit a lower-bound "
                            "certificate")
    p.add_argument("host")
    p.add_argument("coloring")
    p.add_argument("t", type=int)
    add_common(p, fmt=False)

    p = sub.add_parser("verify", help="re-verify an output file standalone")
    p.add_argument("file")
    add_common(p, output=False, fmt=False)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args._argv = argv
    args._inputs = {}
    start = time.monotonic()
    try:
        code = globals()["cmd_" + args.command.replace("-", "_")](args)
    except ValueError as exc:  # and its subclasses, e.g. NoValidNError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except LimitExceededError as exc:
        print(f"limit exceeded: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    finally:
        print(f"# wall-time: {time.monotonic() - start:.3f}s",
              file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
