"""Randomized round trips and malformed inputs for every text parser:
hosts, Berge targets, coloring sidecars and designs.

Each malformed case is a seeded instance of one format with one seeded
mutation.  The (format, seed, mutation, message) list is pinned by its
SHA-256, so a change to the shared row codec that alters any error
message shows up here.
"""

import functools
import hashlib
import json
import random

import pytest

from coverramsey import (__version__, format_coloring, format_design,
                         format_hypergraph, parse_coloring, parse_design,
                         parse_hypergraph, parse_target)
from coverramsey.cli import main

from _oracles import (fano, random_coloring, random_covering_hypergraph,
                      random_design, random_hypergraph)

SEEDS = range(40)
BAD_TOKENS = ("x", "1.5", "7a", "-", "0x1", "%")
PADDING = ("", "  ", "\t", "#", "# note", "   # 1 x")
# SHA-256 of the JSON list of [format, seed, mutation, message], one
# entry per malformed case
MESSAGES_SHA256 = ("3fd9bb737bc3e312d79710f757d5fe59"
                   "0da5aa721086463923908e50fd116aa1")


def _host(rng):
    if rng.random() < 0.5:
        return random_hypergraph(rng)
    return random_covering_hypergraph(rng, rng.randint(3, 7), mixed=True)


def _instance(fmt, seed):
    """(object, its text, the parser, the formatter) of one seeded
    instance of a format."""
    rng = random.Random(f"codec:{fmt}:{seed}")
    if fmt == "host":
        hg = _host(rng)
        return hg, format_hypergraph(hg), parse_hypergraph, format_hypergraph
    if fmt == "target":
        g = random_hypergraph(rng, k_max=2)
        return g, format_hypergraph(g), parse_target, format_hypergraph
    if fmt == "coloring":
        hg = _host(rng)
        coloring = random_coloring(rng, hg)
        parse = functools.partial(parse_coloring, num_edges=hg.num_edges)
        return coloring, format_coloring(coloring), parse, format_coloring
    design = random_design(rng)
    return design, format_design(design), parse_design, format_design


FORMATS = ("host", "target", "coloring", "design")


def _rows(lines, fmt):
    """Indices of the edge or block rows (not the header, not '%')."""
    if fmt == "coloring":
        return [0]
    return [i for i in range(1, len(lines)) if lines[i] != "%"]


def _non_integer(rng, lines, fmt):
    if fmt == "coloring":
        row = lines[0]
        j = rng.randrange(len(row))
        lines[0] = row[:j] + rng.choice("x.-a") + row[j + 1:]
        return lines
    i = rng.choice([0] + _rows(lines, fmt))
    tokens = lines[i].split()
    tokens[rng.randrange(len(tokens))] = rng.choice(BAD_TOKENS)
    lines[i] = " ".join(tokens)
    return lines


def _missing_row(rng, lines, fmt):
    if fmt == "design":
        cuts = [i for i, ln in enumerate(lines) if ln == "%"]
        del lines[rng.choice(cuts)]
    elif fmt == "coloring":
        del lines[0]
    else:
        del lines[rng.choice(_rows(lines, fmt))]
    return lines


def _extra_row(rng, lines, fmt):
    row = "%" if fmt == "design" else lines[rng.choice(_rows(lines, fmt))]
    lines.insert(rng.randint(0 if fmt == "coloring" else 1, len(lines)), row)
    return lines


def _out_of_range(rng, lines, fmt):
    if fmt == "design":
        return None  # the design parser leaves point ranges to the verifier
    if fmt == "coloring":
        row = lines[0]
        j = rng.randrange(len(row))
        lines[0] = row[:j] + rng.choice("23456789") + row[j + 1:]
        return lines
    n = int(lines[0].split()[0])
    i = rng.choice(_rows(lines, fmt))
    tokens = lines[i].split()
    if rng.random() < 0.5:
        tokens[-1] = str(n + 1)
    else:
        tokens[0] = "0"
    lines[i] = " ".join(tokens)
    return lines


def _non_ascending(rng, lines, fmt):
    if fmt != "host":
        return None  # a target edge may be given in either order
    i = rng.choice(_rows(lines, fmt))
    tokens = lines[i].split()
    j = rng.randrange(len(tokens) - 1)
    tokens[j], tokens[j + 1] = tokens[j + 1], tokens[j]
    lines[i] = " ".join(tokens)
    return lines


def _duplicate_edge(rng, lines, fmt):
    rows = _rows(lines, fmt)
    if fmt not in ("host", "target") or len(rows) < 2:
        return None
    i, j = rng.sample(rows, 2)
    copy = lines[i].split()
    if fmt == "target" and rng.random() < 0.5:
        copy.reverse()
    lines[j] = " ".join(copy)
    return lines


def _header_fields(rng, lines, fmt):
    if fmt == "coloring":
        return None
    fields = lines[0].split()
    if rng.random() < 0.5:
        fields.append(str(rng.randint(2, 9)))
    else:
        fields.pop()
    lines[0] = " ".join(fields)
    return lines


def _row_length(rng, lines, fmt):
    if fmt != "coloring":
        return None
    lines[0] = (lines[0][:-1] if rng.random() < 0.5
                else lines[0] + rng.choice("01"))
    return lines


MUTATIONS = {
    "non-integer": _non_integer,
    "missing-row": _missing_row,
    "extra-row": _extra_row,
    "out-of-range": _out_of_range,
    "non-ascending": _non_ascending,
    "duplicate-edge": _duplicate_edge,
    "header-fields": _header_fields,
    "row-length": _row_length,
}


def _text(lines):
    return "".join(ln + "\n" for ln in lines)


def _padded(rng, lines):
    """The lines with blank and '#' lines inserted at random places."""
    lines = list(lines)
    for _ in range(rng.randint(1, 3)):
        lines.insert(rng.randint(0, len(lines)), rng.choice(PADDING))
    return lines


def _message(parse, text):
    try:
        parse(text)
    except ValueError as exc:
        return str(exc)
    return None


@functools.cache
def _malformed_cases():
    """(format, seed, mutation, text, padded text, message, padded
    message) for every applicable mutation of every seeded instance."""
    cases = []
    for fmt in FORMATS:
        for seed in SEEDS:
            _, text, parse, _ = _instance(fmt, seed)
            for name, mutate in MUTATIONS.items():
                rng = random.Random(f"mutate:{fmt}:{seed}:{name}")
                lines = mutate(rng, text.splitlines(), fmt)
                if lines is None:
                    continue
                padded = _text(_padded(rng, lines))
                cases.append((fmt, seed, name, _text(lines), padded,
                              _message(parse, _text(lines)),
                              _message(parse, padded)))
    return tuple(cases)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("seed", SEEDS)
def test_round_trip(fmt, seed):
    obj, text, parse, fmt_out = _instance(fmt, seed)
    assert parse(text) == obj
    assert fmt_out(parse(text)) == text
    rng = random.Random(f"pad:{fmt}:{seed}")
    assert parse(_text(_padded(rng, text.splitlines()))) == obj


@pytest.mark.parametrize("seed", SEEDS)
def test_target_edge_lines_in_either_order(seed):
    g, text, _, _ = _instance("target", seed)
    lines = text.splitlines()
    rng = random.Random(f"reverse:{seed}")
    i = rng.randrange(1, len(lines))
    lines[i] = " ".join(reversed(lines[i].split()))
    assert parse_target(_text(lines)) == g


@pytest.mark.parametrize("fmt", FORMATS)
def test_every_mutation_raises_one_line(fmt):
    cases = [c for c in _malformed_cases() if c[0] == fmt]
    assert cases
    for _, seed, name, text, _, message, padded_message in cases:
        assert message is not None, (seed, name, text)
        assert "\n" not in message, (seed, name, message)
        # blank and '#' lines change no message
        assert padded_message == message, (seed, name)


def test_messages_are_pinned():
    pairs = [[fmt, seed, name, message]
             for fmt, seed, name, _, _, message, _ in _malformed_cases()]
    digest = hashlib.sha256(json.dumps(pairs).encode()).hexdigest()
    assert digest == MESSAGES_SHA256


def _manifest(argv):
    """The manifest a command line `argv` writes, its inputs not read."""
    return {"tool": "coverramsey", "version": __version__,
            "subcommand": argv[0], "argv": argv, "seed": None, "inputs": {}}


def _verify_file(tmp_path, fmt, seed, text):
    """A file that `verify` reads the malformed text from: the text itself
    for hosts and designs, a record embedding it otherwise."""
    if fmt in ("host", "design"):
        body = text
    elif fmt == "target":
        body = json.dumps({"record": "berge-certificate",
                           "manifest": _manifest(["find-berge", "h", "g"]),
                           "host_text": format_hypergraph(fano()),
                           "target_text": text, "color": None,
                           "found": False})
    else:
        hg = _host(random.Random(f"codec:coloring:{seed}"))
        body = json.dumps({"record": "product-reduction",
                           "manifest": _manifest(["reduce-product", "h",
                                                  "c"]),
                           "host_text": format_hypergraph(hg),
                           "coloring_text": text})
    path = tmp_path / f"bad.{fmt}"
    path.write_text(body)
    return path


@pytest.mark.parametrize("fmt", FORMATS)
def test_verify_reports_each_malformed_file(tmp_path, capsys, fmt):
    for case_fmt, seed, name, text, _, message, _ in _malformed_cases():
        if case_fmt != fmt:
            continue
        path = _verify_file(tmp_path, fmt, seed, text)
        assert main(["verify", str(path)]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        errors = [ln for ln in captured.err.splitlines()
                  if ln.startswith("error:")]
        assert len(errors) == 1, (seed, name, captured.err)
        # a host file is refused and a design file checked, each typed by
        # its header, which a case may break; an embedded text is read as
        # its record's argv says
        if fmt in ("target", "coloring"):
            assert errors == [f"error: {message}"], (seed, name)
        assert captured.out == ""
