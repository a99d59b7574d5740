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


def _manifest(args):
    """The manifest of a run; its seed is None for a command without one."""
    return {
        "tool": "coverramsey",
        "version": __version__,
        "subcommand": args.command,
        "argv": args._argv,
        "seed": getattr(args, "seed", None),
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
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {path}: {exc.strerror}") from exc
        print(f"wrote {path}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _fraction_str(frac):
    return f"{frac.numerator}/{frac.denominator}"


# -- field functions ----------------------------------------------------------
# Each JSON-writing command has one field function, (args, text, claim=None)
# -> every field of its record but `record` and `manifest`.  It reads each
# input through text(role), for the role `host`, `coloring`, `target`, `g1`
# or `g2`: from the command's input files, or, under `verify`, from the
# record's `<role>_text` field with `args` parsed from the manifest argv.
# `claim`, the record under `verify`, has its positive claim checked in place
# of a search; a claim that fails its check raises VerificationFailure.


def _input_files(args):
    """The `text` of a command's field function: its input file of a role."""
    return lambda role: _read(args, getattr(args, role))


def _host_and_coloring(args, text):
    from .hypergraph import parse_coloring, parse_hypergraph
    hg = parse_hypergraph(text("host"))
    coloring = None
    if args.coloring is not None:
        coloring = parse_coloring(text("coloring"), hg.num_edges)
    return hg, coloring


def _covering_fields(args, text, claim=None):
    from .hypergraph import format_hypergraph, parse_hypergraph
    hg = parse_hypergraph(text("host"))
    return {"host_text": format_hypergraph(hg), "n": hg.n, "m": hg.num_edges,
            "covering": hg.is_covering(), "min_codegree": hg.min_codegree()}


def _berge_fields(args, text, claim=None):
    """A claimed copy is checked by `verify_certificate`, with no search;
    a claimed absence is searched for again."""
    from .berge import (BergeCertificate, find_berge, parse_target,
                        verify_certificate)
    from .hypergraph import format_coloring, format_hypergraph
    hg, coloring = _host_and_coloring(args, text)
    target_text = text("target")
    target = parse_target(target_text)
    if (coloring is None) != (args.color is None):
        raise ValueError("--coloring and --color must be given together")
    if claim is not None and claim["found"]:
        cert = BergeCertificate(claim["vertex_map"], claim["edge_map"])
        result = verify_certificate(hg, target, cert, coloring, args.color)
        if not result:
            raise VerificationFailure(str(result))
    else:
        cert = find_berge(hg, target, coloring, args.color)
        if claim is not None and cert is not None:
            raise VerificationFailure("absence claim refuted: the recorded "
                                      "search finds a copy")
    fields = {"host_text": format_hypergraph(hg), "target_text": target_text,
              "color": args.color, "found": cert is not None}
    if coloring is not None:
        fields["coloring_text"] = format_coloring(coloring)
    if cert is not None:
        fields.update(vertex_map=[list(p) for p in cert.vertex_map],
                      edge_map=[list(p) for p in cert.edge_map])
    return fields


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


def _unavoidable_fields(args, text, claim=None):
    """A claimed AVOIDABLE witness is checked, and its counters derived
    from it and the argv, with no search; a claimed UNAVOIDABLE verdict is
    searched again, its shards by one worker."""
    from .berge import contains_mono_berge, parse_target
    from .hypergraph import (format_coloring, format_hypergraph,
                             parse_coloring, parse_hypergraph)
    from .search import (AVOIDABLE, UNAVOIDABLE, UnavoidabilityResult,
                         avoidable_counters, unavoidable, unavoidable_sharded)
    bits = _shard_bits(args)
    hg = parse_hypergraph(text("host"))
    g1_text, g2_text = text("g1"), text("g2")
    g1, g2 = parse_target(g1_text), parse_target(g2_text)
    if claim is not None and claim["verdict"] not in (AVOIDABLE, UNAVOIDABLE):
        raise ValueError(f"malformed unavoidability-result record: unknown "
                         f"verdict {claim['verdict']!r}")
    if claim is not None and claim["verdict"] == AVOIDABLE:
        witness = parse_coloring(claim["witness"] + "\n", hg.num_edges)
        hit = contains_mono_berge(hg, witness, g1, g2)
        if hit is not None:
            raise VerificationFailure(f"witness contains a monochromatic "
                                      f"target: {hit[0]}")
        counters = avoidable_counters(hg, g1, g2, witness, args.shard, bits)
        if counters is None:
            raise VerificationFailure("witness extends no shard prefix of "
                                      "the recorded run")
        result = UnavoidabilityResult(AVOIDABLE, witness, *counters)
    elif bits is None:
        result = unavoidable(hg, g1, g2, shard=args.shard, limit=args.limit)
    else:
        result = unavoidable_sharded(hg, g1, g2, bits, limit=args.limit,
                                     jobs=args.jobs if claim is None else 1)
    fields = {"host_text": format_hypergraph(hg), "g1_text": g1_text,
              "g2_text": g2_text, "verdict": result.verdict,
              "colorings_examined": result.colorings_examined,
              "shard": result.shard_spec}
    if result.witness is not None:
        fields["witness"] = format_coloring(result.witness).strip()
    return fields


def _mt_lll_fields(args, text, claim=None):
    """With no good coloring within the resample limit, only
    `coloring_text` (None) and `resamples`.  The run's last bad-event scan,
    which found none, is the certificate's proof."""
    from .hypergraph import parse_hypergraph
    from .search import moser_tardos_coloring, package_lower_bound
    hg = parse_hypergraph(text("host"))
    run = moser_tardos_coloring(hg, args.t, seed=args.seed,
                                max_resamples=args.max_resamples)
    if run.coloring is None:
        return {"coloring_text": None, "resamples": run.resamples}
    cert = package_lower_bound(hg, run.coloring, args.t, "bad-event-scan")
    return {**cert._asdict(), "resamples": run.resamples}


def _certify_lower_fields(args, text, claim=None):
    from .search import lower_bound_certificate
    hg, coloring = _host_and_coloring(args, text)
    return lower_bound_certificate(hg, coloring, args.t)._asdict()


def _scatter_fields(args, text, claim=None):
    """The trial fields only under --trials, `subset` and `attempts` only
    when a sample is found."""
    from .hypergraph import format_hypergraph, parse_hypergraph
    from .reductions import (sample_scattered_subset, scatter_failure_bound,
                             scatter_rejection_trials)
    hg = parse_hypergraph(text("host"))
    s, k = args.s, hg.max_edge_size
    bound = scatter_failure_bound(hg.n, s, k)
    fields = {"host_text": format_hypergraph(hg), "s": s, "k": k,
              "failure_bound": _fraction_str(bound),
              "failure_bound_float": float(bound)}
    if args.trials:
        rejected, trials = scatter_rejection_trials(hg, s, args.trials,
                                                    seed=args.seed)
        fields.update(trials=trials, rejected=rejected,
                      empirical_rate=rejected / trials)
    sample = sample_scattered_subset(hg, s, seed=args.seed,
                                     max_attempts=args.max_attempts)
    fields["found"] = sample is not None
    if sample is not None:
        fields.update(subset=list(sample.subset), attempts=sample.attempts)
    return fields


def _product_fields(args, text, claim=None):
    """Row v - 2 of the color matrix lists the colors of the pairs (u, v),
    u < v."""
    from .hypergraph import format_coloring, format_hypergraph
    from .reductions import multicolor_product_reduction
    hg, coloring = _host_and_coloring(args, text)
    red = multicolor_product_reduction(hg, coloring)
    matrix = [[red.pair_color[(u, v)] for u in range(1, v)]
              for v in range(2, red.n + 1)]
    provenance = [[u, v, ie, label]
                  for (u, v), (ie, label) in sorted(red.provenance.items())]
    return {"host_text": format_hypergraph(hg),
            "coloring_text": format_coloring(coloring), "n": red.n,
            "palette_size": red.palette_size,
            "label_count": red.label_count, "color_matrix_lower": matrix,
            "provenance": provenance}


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


def _bound_fields(args, text=None, claim=None):
    """A Fraction value as "p/q"."""
    from fractions import Fraction
    report = _bound_report(args)
    value = report.value
    return {"formula_id": report.formula_id, "inputs": report.inputs,
            "value": (_fraction_str(value) if isinstance(value, Fraction)
                      else value),
            "satisfied": report.satisfied, "notes": list(report.notes)}


# command -> the type of record it writes, and its field function
_FIELDS = {
    "check-covering": ("covering-check", _covering_fields),
    "find-berge": ("berge-certificate", _berge_fields),
    "unavoidable": ("unavoidability-result", _unavoidable_fields),
    "mt-lll": ("lower-bound-certificate", _mt_lll_fields),
    "certify-lower": ("lower-bound-certificate", _certify_lower_fields),
    "scatter": ("scatter-sample", _scatter_fields),
    "reduce-product": ("product-reduction", _product_fields),
    "bound": ("bound-report", _bound_fields),
}


def _record(args, fields):
    """The JSON record of the command line `args`, with its manifest."""
    return {"record": _FIELDS[args.command][0], "manifest": _manifest(args),
            **fields}


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
    fields = _covering_fields(args, _input_files(args))
    if args.format == "structured":
        _emit_json(_record(args, fields), args.output)
    else:
        _emit_text(f"covering: {fields['covering']} (n={fields['n']}, "
                   f"m={fields['m']}, min co-degree "
                   f"{fields['min_codegree']})\n", args.output)
    return EXIT_OK


def cmd_find_berge(args):
    _emit_json(_record(args, _berge_fields(args, _input_files(args))),
               args.output)
    return EXIT_OK


def cmd_unavoidable(args):
    fields = _unavoidable_fields(args, _input_files(args))
    if args.format == "structured" or args.output:
        _emit_json(_record(args, fields), args.output)
    else:
        line = (f"{fields['verdict']} after {fields['colorings_examined']} "
                f"colorings")
        if "witness" in fields:
            line += f"; witness {fields['witness']}"
        _emit_text(line + "\n", args.output)
    return EXIT_OK


def cmd_mt_lll(args):
    fields = _mt_lll_fields(args, _input_files(args))
    if fields["coloring_text"] is None:
        print(f"no good coloring within {fields['resamples']} resamples",
              file=sys.stderr)
        return EXIT_LIMIT
    if args.coloring_out:
        _emit_text(_text_file("coloring", args, fields["coloring_text"]),
                   args.coloring_out)
    _emit_json(_record(args, fields), args.output)
    return EXIT_OK


def cmd_scatter(args):
    fields = _scatter_fields(args, _input_files(args))
    _emit_json(_record(args, fields), args.output)
    if not fields["found"]:
        print(f"no scattered subset within {args.max_attempts} attempts",
              file=sys.stderr)
        return EXIT_LIMIT
    return EXIT_OK


def cmd_reduce_product(args):
    _emit_json(_record(args, _product_fields(args, _input_files(args))),
               args.output)
    return EXIT_OK


def cmd_bound(args):
    if args.format == "structured":
        _emit_json(_record(args, _bound_fields(args)), args.output)
    else:
        _emit_text(_bound_report(args).render(), args.output)
    return EXIT_OK


def cmd_certify_lower(args):
    fields = _certify_lower_fields(args, _input_files(args))
    _emit_json(_record(args, fields), args.output)
    print(fields["statement"], file=sys.stderr)
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


def _recorded_args(record, kind):
    """The arguments of the run that wrote `record`, parsed from its
    manifest argv by the parser that run used, for a command that writes
    records of type `kind`.  The manifest must be the one that run writes,
    but for its `version` and `inputs`, which only inform: the digests hash
    the raw input files, which the canonical embedded texts do not keep."""
    manifest = record["manifest"]
    argv = manifest["argv"]
    commands = [c for c, (writes, _) in _FIELDS.items() if writes == kind]
    args = None
    if type(argv) is list and all(type(a) is str for a in argv):
        sink = io.StringIO()  # argparse reports a bad argv by printing
        try:
            with (contextlib.redirect_stdout(sink),
                  contextlib.redirect_stderr(sink)):
                args = build_parser().parse_args(argv)
        except SystemExit:
            pass
    if args is None or args.command not in commands:
        raise ValueError(f"malformed {kind} record: argv "
                         f"{reprlib.repr(argv)} is not a "
                         f"{' or '.join(commands)} command")
    args._argv, args._inputs = argv, manifest["inputs"]
    want = {**_manifest(args), "version": manifest["version"]}
    extra = manifest.keys() - want.keys()
    problem = _mismatch(manifest, want) or (
        f"field {min(extra)!r} is unknown" if extra else None)
    if problem:
        raise ValueError(f"malformed {kind} record: manifest {problem}")
    return args


# the line `verify` prints for a record of each type that checks out
_VERIFIED = {
    "covering-check": lambda record, args: (
        "covering check reproduces from host"),
    "berge-certificate": lambda record, args: (
        "certificate verifies" if record["found"] else
        "absence re-verified: the recorded search finds no copy"),
    "unavoidability-result": lambda record, args: (
        "witness re-verified (avoids both targets)"
        if record["verdict"] == "AVOIDABLE" else
        "UNAVOIDABLE verdicts re-verify only by re-running the search"),
    "lower-bound-certificate": lambda record, args: record["statement"],
    "scatter-sample": lambda record, args: (
        "subset is scattered" if record["found"] else
        f"absence re-derived: no scattered subset within "
        f"{args.max_attempts} attempts"),
    "product-reduction": lambda record, args: (
        "reduction reproduces from host and coloring"),
    "bound-report": lambda record, args: (
        "bound re-derived from the recorded argv"),
}


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
    from .hypergraph import _first_content_row
    text = _read(args, args.file)
    # dispatch on the first line that is neither blank nor a '#' comment
    first = _first_content_row(text) or ""
    if first.lstrip().startswith("{"):
        record = _json_record(text)
        kind = record.get("record")
        try:
            if kind not in _VERIFIED:
                raise ValueError(f"unknown record type {kind!r}")
            # the record is re-derived from its embedded inputs under its
            # argv; a field the argv does not write is malformed
            run = _recorded_args(record, kind)
            fields = _FIELDS[run.command][1](
                run, lambda role: record[role + "_text"], record)
            problem = _mismatch(record, fields)
            extra = record.keys() - fields.keys() - {"record", "manifest"}
            if extra and not problem:
                raise ValueError(f"malformed {kind} record: its argv writes "
                                 f"no field {min(extra)!r}")
            ok, message = not problem, problem or _VERIFIED[kind](record, run)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed {kind} record: {exc!r}") from exc
        except VerificationFailure as exc:
            ok, message = False, str(exc)
    elif len(first.split()) == 3:
        report = verify_resolvable_bibd(parse_design(text))
        ok = report.ok()
        message = ("design verifies" if ok else
                   "; ".join(f"{v.code}: {v.detail}"
                             for v in report.violations))
    else:
        raise ValueError(f"{args.file} is neither a JSON record nor a "
                         f"design, so it holds no claim to verify; check a "
                         f"host with check-covering, and a coloring through "
                         f"the mt-lll or certify-lower record that embeds "
                         f"it")
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
