import argparse
import json

import pytest

from coverramsey import (Hypergraph, complete_graph, complete_host,
                         construct_resolvable_bibd, design_to_hypergraph,
                         format_design, format_hypergraph, parse_design)
from coverramsey.cli import build_parser, main
from coverramsey.reductions import DEFAULT_MAX_ATTEMPTS
from coverramsey.search import (DEFAULT_COLORING_LIMIT, DEFAULT_MAX_RESAMPLES,
                                lower_bound_certificate, moser_tardos_coloring)

from _oracles import fano


@pytest.fixture()
def files(tmp_path):
    paths = {}
    paths["fano"] = tmp_path / "fano.hg"
    paths["fano"].write_text(format_hypergraph(fano()))
    paths["k5"] = tmp_path / "k5.hg"
    paths["k5"].write_text(format_hypergraph(complete_host(5)))
    paths["k6"] = tmp_path / "k6.hg"
    paths["k6"].write_text(format_hypergraph(complete_host(6)))
    paths["k3"] = tmp_path / "k3.g"
    paths["k3"].write_text(format_hypergraph(complete_graph(3)))
    paths["k4"] = tmp_path / "k4.g"
    paths["k4"].write_text(format_hypergraph(complete_graph(4)))
    paths["fano_blue"] = tmp_path / "fano_blue.col"
    paths["fano_blue"].write_text("0000000\n")
    paths["dir"] = tmp_path
    return paths


def run(*argv):
    return main([str(a) for a in argv])


def error_lines(capsys, stdout=None):
    """The `error:` lines on stderr; fails on a traceback, and on stdout
    other than `stdout` when that is given."""
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    assert stdout is None or out == stdout
    return [ln for ln in err.splitlines() if ln.startswith("error:")]


class TestGenDesign:
    def test_gen_and_verify(self, files, capsys):
        out = files["dir"] / "d9.design"
        assert run("gen-design", "9", "3", "-o", out) == 0
        text = out.read_text()
        assert text.startswith("# coverramsey design\n# manifest: ")
        design = parse_design(text)
        assert design.n == 9 and design.num_classes == 4
        assert run("verify", out) == 0
        assert "design verifies" in capsys.readouterr().out

    def test_unsupported_parameters_exit_1(self, files):
        assert run("gen-design", "7", "3") == 1

    def test_design_that_fails_its_own_verifier_exit_3(self, files, capsys,
                                                       monkeypatch):
        # D(9,3) with the block (1, 2, 3) of class 0 repeated in class 1
        import coverramsey.designs
        design = construct_resolvable_bibd(9, 3)
        classes = list(design.classes)
        classes[1] = (design.classes[0][0],) + classes[1][1:]
        monkeypatch.setattr(coverramsey.designs, "construct_resolvable_bibd",
                            lambda n, k: design._replace(classes=classes))
        out = files["dir"] / "d9.design"
        assert run("gen-design", "9", "3", "-o", out) == 3
        err = capsys.readouterr().err.splitlines()
        assert [ln for ln in err if not ln.startswith("# wall-time")] == [
            "verification failure: constructed design failed its own "
            "verifier: class 1 does not partition 1..9"]
        assert not out.exists()

    def test_design_that_fails_its_audit_exit_3(self, files, capsys):
        # D(4,2) without its third parallel class
        bad = files["dir"] / "bad.design"
        bad.write_text("4 2 2\n1 2\n3 4\n%\n1 3\n2 4\n")
        assert run("verify", bad) == 3
        assert capsys.readouterr().out == (
            "PAIR_COUNT_FAIL: pair (1, 4) covered 0 times; "
            "PAIR_COUNT_FAIL: pair (2, 3) covered 0 times; "
            "CLASS_COUNT_FAIL: 2 classes, expected (n-1)/(k-1) = 3\n")

    def test_byte_identical_reruns(self, files):
        a = files["dir"] / "a.design"
        b = files["dir"] / "b.design"
        assert run("gen-design", "15", "3", "-o", a) == 0
        assert run("gen-design", "15", "3", "-o", b) == 0
        a_txt = a.read_text().replace(str(a), "OUT")
        b_txt = b.read_text().replace(str(b), "OUT")
        assert a_txt == b_txt


@pytest.mark.parametrize("argv,target,strerror", [
    (["bound", "thm1", "3", "6", "-o"], "{missing}",
     "No such file or directory"),
    (["gen-design", "9", "3", "-o"], "{dir}", "Is a directory"),
    (["mt-lll", "{fano}", "4", "-o", "{record}", "--coloring-out"],
     "{missing}", "No such file or directory")],
    ids=["bound", "gen-design", "mt-lll"])
def test_unwritable_output_exit_1(files, capsys, argv, target, strerror):
    paths = {**files, "missing": files["dir"] / "no" / "x.txt",
             "record": files["dir"] / "lb.json"}
    path = target.format(**paths)
    assert run(*(a.format(**paths) for a in argv), path) == 1
    assert error_lines(capsys) == [f"error: cannot write {path}: {strerror}"]
    assert not paths["record"].exists()  # the sidecar is written first


class TestCheckCovering:
    def test_text_output(self, files, capsys):
        assert run("check-covering", files["fano"]) == 0
        assert "covering: True" in capsys.readouterr().out

    def test_structured_output(self, files, capsys):
        assert run("check-covering", files["fano"],
                   "--format", "structured") == 0
        record = json.loads(capsys.readouterr().out)
        assert record["covering"] is True and record["min_codegree"] == 1


class TestFindBerge:
    def test_certificate_roundtrip(self, files, capsys):
        out = files["dir"] / "cert.json"
        assert run("find-berge", files["fano"], files["k4"], "-o", out) == 0
        record = json.loads(out.read_text())
        assert record["found"] is True
        assert run("verify", out) == 0

    def test_absent_result(self, files, capsys):
        k5t = files["dir"] / "k5t.g"
        k5t.write_text(format_hypergraph(complete_graph(5)))
        assert run("find-berge", files["fano"], k5t) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["found"] is False

    def test_colored_search(self, files, capsys):
        assert run("find-berge", files["fano"], files["k3"],
                   "--coloring", files["fano_blue"], "--color", "0") == 0
        record = json.loads(capsys.readouterr().out)
        assert record["found"] is True and record["color"] == 0

    def test_color_without_coloring_rejected(self, files):
        assert run("find-berge", files["fano"], files["k3"],
                   "--color", "0") == 1

    @pytest.mark.parametrize("color", ["7", "-1"])
    def test_color_outside_palette_exit_1(self, files, capsys, color):
        assert run("find-berge", files["fano"], files["k3"],
                   "--coloring", files["fano_blue"], "--color", color) == 1
        err = capsys.readouterr().err
        assert [ln for ln in err.splitlines() if ln.startswith("error:")] \
            == [f"error: color {color} outside palette 0..1"]
        assert "Traceback" not in err

    def test_tampered_certificate_fails_verify(self, files, capsys):
        out = files["dir"] / "cert.json"
        run("find-berge", files["fano"], files["k3"], "-o", out)
        record = json.loads(out.read_text())
        record["edge_map"][0][1] = (record["edge_map"][0][1] + 2) % 7
        record["edge_map"][1][1] = (record["edge_map"][1][1] + 3) % 7
        out.write_text(json.dumps(record))
        assert run("verify", out) == 3

    @pytest.mark.parametrize("drop", ["coloring_text", "color"])
    def test_color_claim_without_coloring_is_malformed(self, files, capsys,
                                                       drop):
        # the argv's --coloring and --color decide: without its coloring
        # text the record is malformed, and a null color is a mismatch
        out = files["dir"] / "cert.json"
        assert run("find-berge", files["fano"], files["k3"],
                   "--coloring", files["fano_blue"], "--color", "0",
                   "-o", out) == 0
        record = json.loads(out.read_text())
        if drop == "color":
            record["color"] = None
        else:
            del record["coloring_text"]
        out.write_text(json.dumps(record))
        capsys.readouterr()
        if drop == "color":
            assert run("verify", out) == 3
            assert capsys.readouterr().out == (
                "color mismatch: recomputed 0, recorded None\n")
        else:
            assert run("verify", out) == 1
            assert error_lines(capsys) == [
                "error: malformed berge-certificate record: "
                "KeyError('coloring_text')"]

    def test_edge_moved_off_its_pair_exit_3(self, files, capsys):
        # target edge 0 of K3 moved to an unused Fano line that misses
        # the host pair its end points map to
        out = files["dir"] / "cert.json"
        assert run("find-berge", files["fano"], files["k3"], "-o", out) == 0
        record = json.loads(out.read_text())
        vmap = dict(record["vertex_map"])
        pair = (vmap[1], vmap[2])
        used = {b for _, b in record["edge_map"]}
        b = next(i for i, e in enumerate(fano().edges)
                 if i not in used and not set(pair) <= set(e))
        record["edge_map"][0][1] = b
        out.write_text(json.dumps(record))
        capsys.readouterr()
        assert run("verify", out) == 3
        assert capsys.readouterr().out == (
            f"CONTAINMENT_FAIL: target edge 0 (1, 2) maps to the host pair "
            f"{pair}, which its hyperedge {b} misses\n")

    @pytest.mark.parametrize("host,coloring", [
        ("k4", None), ("fano", None), ("fano", "fano_blue")])
    def test_forged_absence_exit_3(self, files, capsys, host, coloring):
        # K3 is in K4 (the K4 target file read as a host) and in Fano's
        # all-blue class
        colored = () if coloring is None else (
            "--coloring", files[coloring], "--color", "0")
        out = files["dir"] / "cert.json"
        assert run("find-berge", files[host], files["k3"], *colored,
                   "-o", out) == 0
        record = json.loads(out.read_text())
        assert record["found"] is True
        record["found"] = False
        del record["vertex_map"], record["edge_map"]
        out.write_text(json.dumps(record))
        capsys.readouterr()
        assert run("verify", out) == 3
        assert capsys.readouterr().out == (
            "absence claim refuted: the recorded search finds a copy\n")

    @pytest.mark.parametrize("target,colored", [
        ("k5", ()), ("k3", ("--coloring", "mix", "--color", "1"))])
    def test_genuine_absence_verifies(self, files, capsys, target, colored):
        k5 = files["dir"] / "k5t.g"
        k5.write_text(format_hypergraph(complete_graph(5)))
        mix = files["dir"] / "mix.col"
        mix.write_text("0101010\n")  # color 1: the lines through vertex 4
        paths = {"k5": k5, "k3": files["k3"], "mix": mix}
        out = files["dir"] / "cert.json"
        assert run("find-berge", files["fano"], paths[target],
                   *(paths.get(a, a) for a in colored), "-o", out) == 0
        assert json.loads(out.read_text())["found"] is False
        capsys.readouterr()
        assert run("verify", out) == 0
        assert capsys.readouterr().out == (
            "absence re-verified: the recorded search finds no copy\n")


class TestUnavoidable:
    def test_k5_avoidable(self, files, capsys):
        assert run("unavoidable", files["k5"], files["k3"], files["k3"]) == 0
        assert "AVOIDABLE" in capsys.readouterr().out

    def test_record_verifies(self, files):
        out = files["dir"] / "unavoid.json"
        assert run("unavoidable", files["k5"], files["k3"], files["k3"],
                   "-o", out) == 0
        assert run("verify", out) == 0

    def test_version_0_1_0_record_fails_like_a_forgery(self, files, capsys):
        # 0.1.0 visited colorings in Gray-code order, but a record's version
        # is only informational: its counters are derived in binary order
        out = files["dir"] / "unavoid.json"
        assert run("unavoidable", files["k5"], files["k3"], files["k3"],
                   "-o", out) == 0
        record = json.loads(out.read_text())
        record["manifest"]["version"] = "0.1.0"
        record.update(witness="0011101100", colorings_examined=76)
        out.write_text(json.dumps(record))
        capsys.readouterr()
        assert run("verify", out) == 3
        assert capsys.readouterr().out == (
            "colorings_examined mismatch: recomputed 111, recorded 76\n")

    def test_forged_counters_under_an_old_version_exit_3(self, files,
                                                         capsys):
        # K5 (K3, K3) is avoidable; an edited version skips no check
        out = files["dir"] / "unavoid.json"
        self.forge(out, files["k5"], files["k3"], files["k3"],
                   colorings_examined=1, shard="11")
        record = json.loads(out.read_text())
        record["manifest"]["version"] = "0.1.0"
        out.write_text(json.dumps(record))
        capsys.readouterr()
        assert run("verify", out) == 3
        assert capsys.readouterr().out == (
            "colorings_examined mismatch: recomputed 111, recorded 1\n")

    def test_unknown_verdict_is_malformed(self, files, capsys):
        out = files["dir"] / "unavoid.json"
        assert run("unavoidable", files["k6"], files["k3"], files["k3"],
                   "-o", out) == 0
        record = json.loads(out.read_text())
        record["verdict"] = "banana"
        out.write_text(json.dumps(record))
        capsys.readouterr()
        assert run("verify", out) == 1
        assert error_lines(capsys, stdout="") == [
            "error: malformed unavoidability-result record: unknown "
            "verdict 'banana'"]

    def forge(self, out, *argv, **fields):
        """Write an `unavoidable` record of the command line `argv` to
        `out`, with `fields` replaced (None deletes)."""
        assert run("unavoidable", *argv, "-o", out) == 0
        record = json.loads(out.read_text())
        record.update(fields)
        for key in [k for k, v in fields.items() if v is None]:
            del record[key]
        out.write_text(json.dumps(record))

    def test_forged_unavoidable_record_exit_3(self, files, capsys):
        # K5 (K3, K3) is avoidable; the forged record claims otherwise
        out = files["dir"] / "unavoid.json"
        self.forge(out, files["k5"], files["k3"], files["k3"],
                   verdict="UNAVOIDABLE", witness=None, colorings_examined=512)
        capsys.readouterr()
        assert run("verify", out) == 3
        assert capsys.readouterr().out == (
            "verdict mismatch: recomputed 'AVOIDABLE', recorded "
            "'UNAVOIDABLE'\n")

    @pytest.mark.parametrize("fields,message", [
        ({"verdict": "AVOIDABLE", "witness": "0" * 15},
         "witness contains a monochromatic target: 0"),
        ({"colorings_examined": 16383},
         "colorings_examined mismatch: recomputed 16384, recorded 16383"),
        ({"shard": "0"}, "shard mismatch: recomputed None, recorded '0'")],
        ids=["verdict", "colorings_examined", "shard"])
    def test_forged_k6_record_exit_3(self, files, capsys, fields, message):
        out = files["dir"] / "unavoid.json"
        self.forge(out, files["k6"], files["k3"], files["k3"], **fields)
        capsys.readouterr()
        assert run("verify", out) == 3
        assert capsys.readouterr().out == message + "\n"

    @pytest.mark.parametrize("g2", ["k3", "k4"])
    @pytest.mark.parametrize("argv", [
        [], ["--shard", "11"], ["--shard-bits", "2"], ["--jobs", "2"],
        ["--shard-bits", "5"]])
    def test_avoidable_record_verifies(self, files, capsys, argv, g2):
        out = files["dir"] / "unavoid.json"
        assert run("unavoidable", files["k5"], files["k3"], files[g2],
                   *argv, "-o", out) == 0
        assert json.loads(out.read_text())["verdict"] == "AVOIDABLE"
        capsys.readouterr()
        assert run("verify", out) == 0
        assert capsys.readouterr().out == (
            "witness re-verified (avoids both targets)\n")

    @pytest.mark.parametrize("argv,fields,message", [
        ([], {"colorings_examined": 1},
         "colorings_examined mismatch: recomputed 111, recorded 1"),
        ([], {"shard": "11"},
         "shard mismatch: recomputed None, recorded '11'"),
        (["--shard", "11"], {"colorings_examined": 111},
         "colorings_examined mismatch: recomputed 177, recorded 111"),
        (["--shard", "11"], {"shard": None},
         "shard mismatch: recomputed '11', recorded None"),
        (["--shard-bits", "2"], {"colorings_examined": 111},
         "colorings_examined mismatch: recomputed 56, recorded 111"),
        (["--shard-bits", "2"], {"shard": "merged[3]"},
         "shard mismatch: recomputed 'merged[2]', recorded 'merged[3]'"),
        # the genuine witness of the unsharded run, and its color swap,
        # which avoids K3 too but has edge 0 red
        (["--shard", "11"], {"witness": "0011101100"},
         "witness extends no shard prefix of the recorded run"),
        ([], {"witness": "1100010011"},
         "witness extends no shard prefix of the recorded run")],
        ids=["count", "shard", "shard-count", "shard-spec", "merged-count",
             "merged-spec", "other-prefix", "edge-0-red"])
    def test_forged_avoidable_counters_exit_3(self, files, capsys, argv,
                                              fields, message):
        # K5 (K3, K3) is avoidable; the counters follow from the witness
        # and the argv, so a record whose counters were edited fails
        out = files["dir"] / "unavoid.json"
        self.forge(out, files["k5"], files["k3"], files["k3"], *argv)
        record = json.loads(out.read_text())
        record.update(fields)
        out.write_text(json.dumps(record))
        capsys.readouterr()
        assert run("verify", out) == 3
        assert capsys.readouterr().out == message + "\n"

    @pytest.mark.parametrize("argv", [
        [], ["--shard", "01"], ["--shard-bits", "2"], ["--jobs", "2"],
        ["--shard-bits", "3", "--limit", "4096"]])
    def test_unavoidable_record_verifies_by_rerun(self, files, capsys, argv):
        out = files["dir"] / "unavoid.json"
        assert run("unavoidable", files["k6"], files["k3"], files["k3"],
                   *argv, "-o", out) == 0
        assert json.loads(out.read_text())["verdict"] == "UNAVOIDABLE"
        capsys.readouterr()
        assert run("verify", out) == 0
        assert capsys.readouterr().out == (
            "UNAVOIDABLE verdicts re-verify only by re-running the search\n")

    def test_rerun_past_the_recorded_limit_exit_2(self, files, capsys):
        out = files["dir"] / "unavoid.json"
        self.forge(out, files["k6"], files["k3"], files["k3"])
        record = json.loads(out.read_text())
        record["manifest"]["argv"] += ["--limit", "4"]
        out.write_text(json.dumps(record))
        capsys.readouterr()
        assert run("verify", out) == 2
        assert "limit exceeded: 16384 colorings exceed the limit 4" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("seed", [0, "0", False],
                             ids=["int", "str", "bool"])
    def test_unavoidable_record_with_a_seed_is_malformed(self, files, capsys,
                                                         seed):
        # the unavoidable parser has no --seed, so its records hold null
        out = files["dir"] / "unavoid.json"
        self.forge(out, files["k6"], files["k3"], files["k3"])
        record = json.loads(out.read_text())
        assert record["manifest"]["seed"] is None
        record["manifest"]["seed"] = seed
        out.write_text(json.dumps(record))
        capsys.readouterr()
        assert run("verify", out) == 1
        assert error_lines(capsys) == [
            f"error: malformed unavoidability-result record: manifest seed "
            f"mismatch: recomputed None, recorded {seed!r}"]

    def test_default_limit_is_the_library_default(self):
        args = build_parser().parse_args(["unavoidable", "h", "g1", "g2"])
        assert args.limit == DEFAULT_COLORING_LIMIT

    def test_shard_flag(self, files, capsys):
        assert run("unavoidable", files["k5"], files["k3"], files["k3"],
                   "--shard", "11", "--format", "structured") == 0
        record = json.loads(capsys.readouterr().out)
        assert record["shard"] == "11"

    def test_limit_exit_2(self, files):
        assert run("unavoidable", files["k5"], files["k3"], files["k3"],
                   "--limit", "4") == 2

    @pytest.mark.parametrize("limit", ["0", "-1"])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_non_positive_limit_exit_1(self, files, capsys, limit, jobs):
        assert run("unavoidable", files["k5"], files["k3"], files["k3"],
                   "--limit", limit, "--jobs", jobs) == 1
        err = capsys.readouterr().err
        assert [ln for ln in err.splitlines() if ln.startswith("error:")] \
            == [f"error: coloring limit must be at least 1, got {limit}"]
        assert "limit exceeded" not in err and "Traceback" not in err

    def test_k6_unavoidable(self, files, capsys):
        assert run("unavoidable", files["k6"], files["k3"], files["k3"]) == 0
        assert "UNAVOIDABLE" in capsys.readouterr().out

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_non_positive_jobs_exit_1(self, files, capsys, jobs):
        assert run("unavoidable", files["k5"], files["k3"], files["k3"],
                   "--jobs", jobs) == 1
        assert "error: --jobs must be at least 1" in capsys.readouterr().err

    def test_negative_shard_bits_exit_1(self, files, capsys):
        assert run("unavoidable", files["k5"], files["k3"], files["k3"],
                   "--jobs", "2", "--shard-bits", "-1") == 1
        err = capsys.readouterr().err
        assert [ln for ln in err.splitlines() if ln.startswith("error:")] \
            == ["error: shard bits must be non-negative, got -1"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["--shard", "01", "--jobs", "2"],
        ["--shard", "01", "--shard-bits", "2"]])
    def test_shard_with_sharding_flag_exit_1(self, files, capsys, argv):
        out = files["dir"] / "unavoid.json"
        assert run("unavoidable", files["k5"], files["k3"], files["k3"],
                   *argv, "-o", out) == 1
        assert error_lines(capsys) == [
            "error: --shard runs one shard and takes neither --jobs > 1 "
            "nor --shard-bits"]
        assert not out.exists()

    @pytest.mark.parametrize("argv,shard", [
        ([], None), (["--jobs", "2"], "merged[2]"),
        (["--jobs", "2", "--shard-bits", "3"], "merged[3]"),
        (["--shard-bits", "3"], "merged[3]"),
        (["--shard-bits", "2", "--jobs", "1"], "merged[2]")])
    def test_shard_bits_default_to_2_under_jobs(self, files, capsys, argv,
                                               shard):
        # unset by default, so that a plain run stays unsharded; given
        # with one job, the shards run in-process
        assert build_parser().parse_args(
            ["unavoidable", "h", "g1", "g2"]).shard_bits is None
        assert run("unavoidable", files["k6"], files["k3"], files["k3"],
                   *argv, "--format", "structured") == 0
        record = json.loads(capsys.readouterr().out)
        assert record["shard"] == shard
        assert record["verdict"] == "UNAVOIDABLE"


class TestMtLllAndCertify:
    def test_full_chain(self, files, capsys):
        d9 = files["dir"] / "d9.design_host"
        assert run("gen-design", "9", "3", "-o",
                   files["dir"] / "d9.design") == 0
        # convert design to hypergraph host via the library, then run MT
        from coverramsey import construct_resolvable_bibd, design_to_hypergraph
        host = design_to_hypergraph(construct_resolvable_bibd(9, 3))
        d9.write_text(format_hypergraph(host))
        cert_file = files["dir"] / "lb.json"
        col_file = files["dir"] / "mt.col"
        assert run("mt-lll", d9, "4", "--seed", "0", "-o", cert_file,
                   "--coloring-out", col_file) == 0
        record = json.loads(cert_file.read_text())
        assert record["statement"] == "R̂³(BK₄,BK₄) ≥ 10"
        assert run("verify", cert_file) == 0
        # the sidecar feeds certify-lower and reproduces the same statement
        lb2 = files["dir"] / "lb2.json"
        assert run("certify-lower", d9, col_file, "4", "-o", lb2) == 0
        assert json.loads(lb2.read_text())["statement"] == record["statement"]
        assert run("verify", lb2) == 0

    @pytest.mark.parametrize("field,value", [
        ("bound", 999), ("bound", 10.0), ("n", 5), ("method", "made-up"),
        ("uniformity", [7]), ("statement", "R̂³(BK₄,BK₄) ≥ 99")])
    def test_forged_lower_bound_field_exit_3(self, files, capsys, field,
                                             value):
        from coverramsey import construct_resolvable_bibd, design_to_hypergraph
        d9 = files["dir"] / "d9.hg"
        host = design_to_hypergraph(construct_resolvable_bibd(9, 3))
        d9.write_text(format_hypergraph(host))
        out = files["dir"] / "lb.json"
        assert run("mt-lll", d9, "4", "-o", out) == 0
        record = json.loads(out.read_text())
        assert run("verify", out) == 0
        record[field] = value
        out.write_text(json.dumps(record))
        capsys.readouterr()
        assert run("verify", out) == 3
        assert capsys.readouterr().out.startswith(f"{field} mismatch: ")

    def test_non_canonical_host_text_exit_3(self, files, capsys):
        # every certificate field is compared, the embedded texts too
        col = files["dir"] / "pentagon.col"
        col.write_text("0110011010\n")  # blue 5-cycle, red pentagram on K5
        out = files["dir"] / "lb.json"
        assert run("certify-lower", files["k5"], col, "3", "-o", out) == 0
        record = json.loads(out.read_text())
        assert run("verify", out) == 0
        lines = record["host_text"].splitlines(keepends=True)
        lines[1], lines[2] = lines[2], lines[1]
        record["host_text"] = "".join(lines)
        out.write_text(json.dumps(record))
        capsys.readouterr()
        assert run("verify", out) == 3
        assert capsys.readouterr().out.startswith("host_text mismatch: ")

    @pytest.mark.parametrize("t", ["0", "1"])
    @pytest.mark.parametrize("command", ["mt-lll", "certify-lower"])
    def test_t_below_2_exit_1(self, files, capsys, command, t):
        d9 = files["dir"] / "d9.hg"
        d9.write_text(format_hypergraph(
            design_to_hypergraph(construct_resolvable_bibd(9, 3))))
        col = files["dir"] / "d9.col"
        col.write_text("010101010101\n")
        out = files["dir"] / "lb.json"
        argv = [d9, t] if command == "mt-lll" else [d9, col, t]
        assert run(command, *argv, "-o", out) == 1
        assert error_lines(capsys) == [f"error: t must be at least 2, got {t}"]
        assert not out.exists()

    def test_t2_on_a_host_with_a_hyperedge_exit_1(self, files, capsys):
        # the hyperedge is a monochromatic Berge-K_2 in its own color, so
        # no resample can help: refused at once, however many are allowed
        host, out = files["dir"] / "edge.hg", files["dir"] / "lb.json"
        host.write_text("2 1\n1 2\n")
        assert run("mt-lll", host, "2", "-o", out) == 1
        assert error_lines(capsys, stdout="") == [
            "error: t = 2 has no good coloring on a host with a hyperedge: "
            "each hyperedge is a monochromatic Berge-K_2"]
        assert not out.exists()

    def test_verify_rejects_t1_record(self, files, capsys):
        # the record that mt-lll once wrote for t = 1 on D(9,3)
        d9 = files["dir"] / "d9.hg"
        d9.write_text(format_hypergraph(
            design_to_hypergraph(construct_resolvable_bibd(9, 3))))
        out = files["dir"] / "lb.json"
        assert run("mt-lll", d9, "4", "-o", out) == 0
        record = json.loads(out.read_text())
        record.update(t=1, statement="R̂³(BK₁,BK₁) ≥ 10")
        argv = record["manifest"]["argv"]
        argv[argv.index("4")] = "1"
        out.write_text(json.dumps(record))
        capsys.readouterr()
        assert run("verify", out) == 1
        assert error_lines(capsys) == ["error: t must be at least 2, got 1"]

    @pytest.mark.parametrize("command", ["certify-lower", "reduce-product"])
    def test_empty_coloring_path_exit_1(self, files, capsys, command):
        extra = ["3"] if command == "certify-lower" else []
        assert run(command, files["fano"], "", *extra) == 1
        err = error_lines(capsys)
        assert len(err) == 1 and err[0].startswith("error: cannot read ")

    @pytest.fixture()
    def d21(self, files):
        path = files["dir"] / "d21.hg"
        path.write_text(format_hypergraph(
            design_to_hypergraph(construct_resolvable_bibd(21, 3))))
        return path

    def test_no_coloring_within_the_resample_limit_exit_2(self, files,
                                                          capsys, d21):
        out = files["dir"] / "lb.json"
        assert run("mt-lll", d21, "5", "--seed", "0", "--max-resamples", "0",
                   "-o", out) == 2
        assert "no good coloring within 0 resamples\n" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_all_blue_certify_lower_record_exit_3(self, files, capsys,
                                                  d21):
        col, out = files["dir"] / "d21.col", files["dir"] / "lb.json"
        assert run("mt-lll", d21, "5", "--coloring-out", col) == 0
        assert run("certify-lower", d21, col, "5", "-o", out) == 0
        record = json.loads(out.read_text())
        record["coloring_text"] = "0" * 70 + "\n"
        out.write_text(json.dumps(record))
        capsys.readouterr()
        assert run("verify", out) == 3
        assert capsys.readouterr().out == (
            "monochromatic Berge-K_5 on (1, 2, 3, 6, 8) in color 0\n")

    def test_certify_lower_rejects_bad_coloring_exit_3(self, files):
        col = files["dir"] / "allblue.col"
        col.write_text("0" * 15 + "\n")
        assert run("certify-lower", files["k6"], col, "3") == 3

    def test_mt_byte_identical(self, files):
        from coverramsey import construct_resolvable_bibd, design_to_hypergraph
        d9 = files["dir"] / "d9.hg"
        host = design_to_hypergraph(construct_resolvable_bibd(9, 3))
        d9.write_text(format_hypergraph(host))
        a = files["dir"] / "a.json"
        b = files["dir"] / "b.json"
        assert run("mt-lll", d9, "4", "--seed", "7", "-o", a) == 0
        assert run("mt-lll", d9, "4", "--seed", "7", "-o", b) == 0
        assert (a.read_text().replace(str(a), "OUT")
                == b.read_text().replace(str(b), "OUT"))

    def test_negative_max_resamples_exit_1(self, files, capsys):
        out = files["dir"] / "lb.json"
        assert run("mt-lll", files["fano"], "3", "--max-resamples", "-1",
                   "-o", out) == 1
        assert error_lines(capsys) == [
            "error: max resamples must be non-negative, got -1"]
        assert not out.exists()

    def test_default_max_resamples_is_the_library_default(self):
        args = build_parser().parse_args(["mt-lll", "h", "4"])
        assert args.max_resamples == DEFAULT_MAX_RESAMPLES

    @pytest.mark.parametrize("field,value", [
        ("resamples", -5), ("resamples", 4), ("resamples", 3.0),
        ("coloring_text", None)])
    def test_forged_mt_run_field_exit_3(self, files, capsys, field, value):
        d9 = files["dir"] / "d9.hg"
        d9.write_text(format_hypergraph(
            design_to_hypergraph(construct_resolvable_bibd(9, 3))))
        out = files["dir"] / "lb.json"
        assert run("mt-lll", d9, "4", "--max-resamples", "40",
                   "-o", out) == 0
        record = json.loads(out.read_text())
        assert record["resamples"] == 3
        assert run("verify", out) == 0
        if value is None:
            # the swapped coloring avoids monochromatic Berge-K_4 too, so
            # only re-running the resampler from the seed exposes it
            value = record[field].translate(str.maketrans("01", "10"))
        record[field] = value
        out.write_text(json.dumps(record))
        capsys.readouterr()
        assert run("verify", out) == 3
        assert capsys.readouterr().out.startswith(f"{field} mismatch: ")

    def test_resample_limit_is_read_from_argv(self, files, capsys):
        # seed 0 needs 3 resamples on D(9,3) for t = 4; under a recorded
        # limit of 1 the re-run finds no coloring
        d9 = files["dir"] / "d9.hg"
        d9.write_text(format_hypergraph(
            design_to_hypergraph(construct_resolvable_bibd(9, 3))))
        out = files["dir"] / "lb.json"
        assert run("mt-lll", d9, "4", "-o", out) == 0
        record = json.loads(out.read_text())
        record["manifest"]["argv"] += ["--max-resamples", "1"]
        out.write_text(json.dumps(record))
        capsys.readouterr()
        assert run("verify", out) == 3
        assert capsys.readouterr().out.startswith(
            "coloring_text mismatch: recomputed None")

    @pytest.mark.parametrize("command", ["mt-lll", "scatter"])
    @pytest.mark.parametrize("seed", [None, True, 1.5, "0", 1])
    def test_seed_not_the_argv_seed_is_malformed(self, files, capsys,
                                                 command, seed):
        # a null seed would seed the re-run from OS entropy
        d9 = files["dir"] / "d9.hg"
        d9.write_text(format_hypergraph(
            design_to_hypergraph(construct_resolvable_bibd(9, 3))))
        out = files["dir"] / "rec.json"
        argv = [d9, "4"] if command == "mt-lll" else [d9, "3"]
        assert run(command, *argv, "-o", out) == 0
        assert run("verify", out) == 0
        record = json.loads(out.read_text())
        record["manifest"]["seed"] = seed
        out.write_text(json.dumps(record))
        capsys.readouterr()
        assert run("verify", out) == 1
        assert error_lines(capsys, stdout="") == [
            f"error: malformed {record['record']} record: manifest seed "
            f"mismatch: recomputed 0, recorded {seed!r}"]

    @pytest.mark.parametrize("n,k,t,seed", [
        *[(9, 3, 3, seed) for seed in range(5)], (21, 3, 5, 0), (25, 5, 5, 0),
        (1, None, 2, 0)])
    def test_mt_certificate_is_the_certify_lower_one(self, files, n, k, t,
                                                     seed):
        # the run's last scan is the proof, and packaged as the
        # certificate that lower_bound_certificate gives its coloring; a
        # host without pairs is linear, vacuously, for both
        hg = (Hypergraph(n, []) if k is None
              else design_to_hypergraph(construct_resolvable_bibd(n, k)))
        host = files["dir"] / "d.hg"
        host.write_text(format_hypergraph(hg))
        out = files["dir"] / "lb.json"
        assert run("mt-lll", host, t, "--seed", seed, "-o", out) == 0
        record = json.loads(out.read_text())
        mt = moser_tardos_coloring(hg, t, seed=seed)
        cert = lower_bound_certificate(hg, mt.coloring, t)._asdict()
        assert {f: record[f] for f in cert} == json.loads(json.dumps(cert))
        assert record["method"] == "bad-event-scan"

    def test_one_bad_event_scan_per_run(self, files, monkeypatch):
        import coverramsey.search
        built = []
        init = coverramsey.search._CliqueScan.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(coverramsey.search._CliqueScan, "__init__",
                            counted)
        d9 = files["dir"] / "d9.hg"
        d9.write_text(format_hypergraph(
            design_to_hypergraph(construct_resolvable_bibd(9, 3))))
        paths = [files["dir"] / name for name in ("mt.json", "mt.col",
                                                  "lb.json")]
        for argv in (["mt-lll", d9, "4", "-o", paths[0], "--coloring-out",
                      paths[1]], ["verify", paths[0]],
                     ["certify-lower", d9, paths[1], "4", "-o", paths[2]],
                     ["verify", paths[2]]):
            built.clear()
            assert run(*argv) == 0
            assert len(built) == 1, argv

    def test_mt_record_without_resamples_is_malformed(self, files, capsys):
        d9 = files["dir"] / "d9.hg"
        d9.write_text(format_hypergraph(
            design_to_hypergraph(construct_resolvable_bibd(9, 3))))
        out = files["dir"] / "lb.json"
        assert run("mt-lll", d9, "4", "-o", out) == 0
        record = json.loads(out.read_text())
        del record["resamples"]
        out.write_text(json.dumps(record))
        capsys.readouterr()
        assert run("verify", out) == 1
        assert error_lines(capsys, stdout="") == [
            "error: malformed lower-bound-certificate record: "
            "KeyError('resamples')"]

    @pytest.mark.parametrize("command", ["mt-lll", "certify-lower"])
    def test_t_beyond_the_host_is_vacuous(self, files, capsys, command):
        # K_20000 has no copy on 9 vertices; it used to be built anyway
        d9 = files["dir"] / "d9.hg"
        d9.write_text(format_hypergraph(
            design_to_hypergraph(construct_resolvable_bibd(9, 3))))
        col = files["dir"] / "d9.col"
        col.write_text("0" * 12 + "\n")
        out = files["dir"] / "lb.json"
        argv = [d9, "20000"] if command == "mt-lll" else [d9, col, "20000"]
        assert run(command, *argv, "-o", out) == 0
        record = json.loads(out.read_text())
        assert record["statement"] == "R̂³(BK₂₀₀₀₀,BK₂₀₀₀₀) ≥ 10"
        assert run("verify", out) == 0


class TestScatter:
    def test_sample_found(self, files, capsys):
        assert run("scatter", files["fano"], "3", "--seed", "1",
                   "--trials", "200") == 0
        record = json.loads(capsys.readouterr().out)
        assert record["found"] is True and len(record["subset"]) == 3
        assert record["failure_bound"] == "3/5"
        assert record["empirical_rate"] <= 0.6

    def test_impossible_subset_exit_2(self, files, capsys):
        assert run("scatter", files["fano"], "7",
                   "--max-attempts", "40") == 2

    def test_negative_trials_exit_1(self, files, capsys):
        out = files["dir"] / "scatter.json"
        assert run("scatter", files["fano"], "3", "--trials", "-1",
                   "-o", out) == 1
        assert "error: trials must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_max_attempts_exit_1(self, files, capsys):
        out = files["dir"] / "scatter.json"
        assert run("scatter", files["fano"], "3", "--max-attempts", "-3",
                   "-o", out) == 1
        assert error_lines(capsys) == [
            "error: max attempts must be non-negative, got -3"]
        assert not out.exists()

    @pytest.mark.parametrize("extra", [[], ["--trials", "5"]])
    def test_subset_size_out_of_range_exit_1(self, files, capsys, extra):
        assert run("scatter", files["fano"], "99", *extra) == 1
        assert error_lines(capsys) == ["error: subset size 99 outside 0..7"]

    @pytest.mark.parametrize("extra", [[], ["--trials", "5"]])
    def test_negative_subset_size_exit_1(self, files, capsys, extra):
        assert run("scatter", files["fano"], "-1", *extra) == 1
        assert error_lines(capsys) == ["error: subset size -1 outside 0..7"]

    def test_negative_subset_size_in_a_record_exit_1(self, files, capsys):
        out = files["dir"] / "scatter.json"
        assert run("scatter", files["fano"], "3", "-o", out) == 0
        record = json.loads(out.read_text())
        record["s"] = -1
        record["manifest"]["argv"].remove("3")
        record["manifest"]["argv"] += ["--", "-1"]
        out.write_text(json.dumps(record))
        capsys.readouterr()
        assert run("verify", out) == 1
        assert error_lines(capsys) == ["error: subset size -1 outside 0..7"]

    def test_record_verifies(self, files, capsys):
        out = files["dir"] / "scatter.json"
        assert run("scatter", files["fano"], "3", "-o", out) == 0
        assert run("verify", out) == 0

    def test_absence_is_re_derived(self, files, capsys):
        out = files["dir"] / "scatter.json"
        assert run("scatter", files["fano"], "7", "--max-attempts", "40",
                   "-o", out) == 2
        capsys.readouterr()
        assert run("verify", out) == 0
        assert capsys.readouterr().out == (
            "absence re-derived: no scattered subset within 40 attempts\n")

    def test_subset_holding_a_block_exit_3(self, files, capsys):
        out = files["dir"] / "scatter.json"
        assert run("scatter", files["fano"], "3", "-o", out) == 0
        record = json.loads(out.read_text())
        record["subset"] = [1, 2, 3]
        out.write_text(json.dumps(record))
        capsys.readouterr()
        assert run("verify", out) == 3
        assert capsys.readouterr().out == (
            "subset mismatch: recomputed [4, 6, 7], recorded [1, 2, 3]\n")

    def test_default_max_attempts_is_the_library_default(self):
        args = build_parser().parse_args(["scatter", "h", "3"])
        assert args.max_attempts == DEFAULT_MAX_ATTEMPTS

    def test_absence_verifies_under_the_recorded_max_attempts(self, files):
        # seed 2 finds a scattered 3-set of the Fano plane at attempt 3
        out = files["dir"] / "scatter.json"
        assert run("scatter", files["fano"], "3", "--seed", "2",
                   "--max-attempts", "2", "-o", out) == 2
        assert json.loads(out.read_text())["found"] is False
        assert run("verify", out) == 0

    @pytest.mark.parametrize("n,k,argv,field,value,message", [
        (25, 5, ["3", "--seed", "2"], "found", False,
         "found mismatch: recomputed True, recorded False"),
        (27, 3, ["4", "--trials", "200", "--seed", "3"], "attempts", 999,
         "attempts mismatch: recomputed 2, recorded 999"),
    ])
    def test_forged_sample_field_exit_3(self, files, capsys, n, k, argv,
                                        field, value, message):
        host = files["dir"] / f"d{n}.hg"
        host.write_text(format_hypergraph(
            design_to_hypergraph(construct_resolvable_bibd(n, k))))
        out = files["dir"] / "scatter.json"
        assert run("scatter", host, *argv, "-o", out) == 0
        record = json.loads(out.read_text())
        assert run("verify", out) == 0
        record[field] = value
        out.write_text(json.dumps(record))
        capsys.readouterr()
        assert run("verify", out) == 3
        assert capsys.readouterr().out == message + "\n"

    @pytest.mark.parametrize("argv", [
        ["scatter", "fano.hg", "three"], ["mt-lll", "fano.hg", "3"],
        ["scatter", "fano.hg", "3", "--max-attempts"], ["--version"], None])
    def test_argv_that_does_not_parse_is_malformed(self, files, capsys,
                                                   argv):
        out = files["dir"] / "scatter.json"
        assert run("scatter", files["fano"], "3", "-o", out) == 0
        record = json.loads(out.read_text())
        record["manifest"]["argv"] = argv
        out.write_text(json.dumps(record))
        capsys.readouterr()
        assert run("verify", out) == 1
        captured = capsys.readouterr()
        assert captured.out == ""  # argparse's usage and version go nowhere
        assert captured.err.splitlines()[0] == (
            f"error: malformed scatter-sample record: argv {argv!r} is not "
            f"a scatter command")
        assert "usage:" not in captured.err

    @pytest.mark.parametrize("field,value,message", [
        ("subset", [1, 1, 999], "subset mismatch: recomputed "
         "[1, 2, 3, 4, 5, 6], recorded [1, 1, 999]"),
        ("subset", [], "subset mismatch: recomputed [1, 2, 3, 4, 5, 6], "
         "recorded []"),
        ("subset", [1, 2, 3, 4, 5, 6.0], "subset mismatch: recomputed "
         "[1, 2, 3, 4, 5, 6], recorded [1, 2, 3, 4, 5, 6.0]"),
        ("k", 3, "k mismatch: recomputed 2, recorded 3"),
        ("failure_bound", "1/2", None),
        ("failure_bound_float", 1.0, None),
    ])
    def test_forged_record_exit_3(self, files, capsys, field, value,
                                  message):
        out = files["dir"] / "scatter.json"
        assert run("scatter", files["k6"], "6", "-o", out) == 0
        record = json.loads(out.read_text())
        assert record["subset"] == [1, 2, 3, 4, 5, 6]
        assert run("verify", out) == 0
        record[field] = value
        out.write_text(json.dumps(record))
        capsys.readouterr()
        assert run("verify", out) == 3
        printed = capsys.readouterr().out
        if message is None:
            assert printed.startswith(f"{field} mismatch: ")
        else:
            assert printed == message + "\n"


    @pytest.mark.parametrize("field,value,message", [
        ("trials", 7, "trials mismatch: recomputed 50, recorded 7"),
        ("rejected", 999, "rejected mismatch: recomputed 12, recorded 999"),
        ("empirical_rate", 5.0,
         "empirical_rate mismatch: recomputed 0.24, recorded 5.0"),
    ])
    def test_forged_trial_field_exit_3(self, files, capsys, field, value,
                                       message):
        out = files["dir"] / "scatter.json"
        assert run("scatter", files["fano"], "3", "--trials", "50",
                   "-o", out) == 0
        record = json.loads(out.read_text())
        assert (record["trials"], record["rejected"]) == (50, 12)
        assert run("verify", out) == 0
        record[field] = value
        out.write_text(json.dumps(record))
        capsys.readouterr()
        assert run("verify", out) == 3
        assert capsys.readouterr().out == message + "\n"

    def test_trial_counts_without_trials_are_malformed(self, files, capsys):
        out = files["dir"] / "scatter.json"
        assert run("scatter", files["fano"], "3", "--trials", "50",
                   "-o", out) == 0
        record = json.loads(out.read_text())
        del record["trials"]
        out.write_text(json.dumps(record))
        capsys.readouterr()
        assert run("verify", out) == 1
        assert error_lines(capsys) == [
            "error: malformed scatter-sample record: KeyError('trials')"]


class TestReduceProduct:
    def test_reduction_record(self, files, capsys):
        out = files["dir"] / "red.json"
        col = files["dir"] / "mix.col"
        col.write_text("0110100\n")
        assert run("reduce-product", files["fano"], col, "-o", out) == 0
        record = json.loads(out.read_text())
        assert record["palette_size"] == 6
        assert len(record["color_matrix_lower"]) == 6  # rows for v = 2..7
        assert run("verify", out) == 0

    @pytest.mark.parametrize("field,value", [
        ("palette_size", 99), ("label_count", -4), ("n", 1),
        ("provenance", []), ("color_matrix_lower", [[0]])])
    def test_forged_field_exit_3(self, files, capsys, field, value):
        out = files["dir"] / "red.json"
        col = files["dir"] / "mix.col"
        col.write_text("0110100\n")
        assert run("reduce-product", files["fano"], col, "-o", out) == 0
        record = json.loads(out.read_text())
        record[field] = value
        out.write_text(json.dumps(record))
        capsys.readouterr()
        assert run("verify", out) == 3
        assert capsys.readouterr().out.startswith(f"{field} mismatch: ")


# a command line for each formula, with both lll verdicts
BOUND_ARGVS = [["thm1", "3", "6"], ["lll", "10", "4", "3"],
               ["lll", "20", "10", "3"],
               ["lll-threshold", "12", "3", "--admissible"],
               ["lll-threshold", "12", "3"], ["asym", "20"]]


class TestBound:
    def test_thm1_text(self, files, capsys):
        assert run("bound", "thm1", "3", "6") == 0
        assert "value = 486" in capsys.readouterr().out

    def test_lll_structured(self, files, capsys):
        assert run("bound", "lll", "10", "4", "3",
                   "--format", "structured") == 0
        record = json.loads(capsys.readouterr().out)
        assert record["satisfied"] in (True, False)

    def test_threshold_admissible(self, files, capsys):
        assert run("bound", "lll-threshold", "12", "3", "--admissible") == 0
        out = capsys.readouterr().out
        assert "satisfied = True" in out

    def test_asym(self, files, capsys):
        assert run("bound", "asym", "20") == 0
        assert "10654.9" in capsys.readouterr().out

    @pytest.mark.parametrize("t", ["2030", "2100"])
    def test_asym_beyond_float_range_exit_1(self, files, capsys, t):
        assert run("bound", "asym", t) == 1
        assert error_lines(capsys) == [
            f"error: asymptote for t={t} exceeds the float range"]

    def test_wrong_arity_exit_1(self, files):
        assert run("bound", "lll", "10") == 1

    def test_no_valid_n_exit_1(self, files):
        assert run("bound", "lll-threshold", "3", "2") == 1

    @pytest.mark.parametrize("argv,message", [
        (["5", "3", "--admissible"], "no admissible n in [t, 6] for t=5, k=3"),
        (["2", "3"], "requires t >= 3 and k >= 2")])
    def test_threshold_outside_its_range_exit_1(self, files, capsys, argv,
                                                message):
        assert run("bound", "lll-threshold", *argv) == 1
        assert error_lines(capsys) == [f"error: {message}"]

    @pytest.mark.parametrize("argv", BOUND_ARGVS)
    def test_record_verifies(self, files, capsys, argv):
        out = files["dir"] / "bound.json"
        assert run("bound", *argv, "--format", "structured", "-o", out) == 0
        capsys.readouterr()
        assert run("verify", out) == 0
        assert capsys.readouterr().out == (
            "bound re-derived from the recorded argv\n")

    @pytest.mark.parametrize("argv,field,value,message", [
        (["thm1", "3", "6"], "value", 487,
         "value mismatch: recomputed 486, recorded 487"),
        (["lll", "20", "10", "3"], "satisfied", False,
         "satisfied mismatch: recomputed True, recorded False"),
        (["lll", "10", "4", "3"], "satisfied", True,
         "satisfied mismatch: recomputed False, recorded True"),
        (["lll-threshold", "12", "3", "--admissible"], "value", 99,
         None),
        (["asym", "20"], "value", 10654.0, None),
        (["thm1", "3", "6"], "formula_id", "lll", None),
        (["lll", "10", "4", "3"], "inputs", {"n": 10}, None),
        (["asym", "20"], "notes", [], None),
    ])
    def test_forged_field_exit_3(self, files, capsys, argv, field, value,
                                 message):
        out = files["dir"] / "bound.json"
        assert run("bound", *argv, "--format", "structured", "-o", out) == 0
        record = json.loads(out.read_text())
        record[field] = value
        out.write_text(json.dumps(record))
        capsys.readouterr()
        assert run("verify", out) == 3
        printed = capsys.readouterr().out
        assert printed.startswith(f"{field} mismatch: recomputed ")
        if message is not None:
            assert printed == message + "\n"

    def test_record_of_another_command_is_malformed(self, files, capsys):
        out = files["dir"] / "bound.json"
        assert run("bound", "thm1", "3", "6", "--format", "structured",
                   "-o", out) == 0
        record = json.loads(out.read_text())
        record["manifest"]["argv"] = ["scatter", "fano.hg", "3"]
        out.write_text(json.dumps(record))
        capsys.readouterr()
        assert run("verify", out) == 1
        assert error_lines(capsys) == [
            "error: malformed bound-report record: argv ['scatter', "
            "'fano.hg', '3'] is not a bound command"]


class TestEveryRecordVerifies:
    """Each file a command line writes is one `verify` re-checks, and a
    JSON record with a field its argv does not write is malformed."""

    @pytest.fixture()
    def d9(self, files):
        path = files["dir"] / "d9.hg"
        path.write_text(format_hypergraph(
            design_to_hypergraph(construct_resolvable_bibd(9, 3))))
        return path

    def test_every_record_verifies(self, files, capsys, d9):
        k5 = files["dir"] / "k5t.g"
        k5.write_text(format_hypergraph(complete_graph(5)))
        col = files["dir"] / "d9.col"
        paths = {**files, "d9": d9, "k5t": k5, "d9col": col}
        argvs = [
            ["gen-design", "9", "3"],
            ["find-berge", "{fano}", "{k4}"],
            ["find-berge", "{fano}", "{k5t}"],
            ["find-berge", "{fano}", "{k3}", "--coloring", "{fano_blue}",
             "--color", "0"],
            ["find-berge", "{fano}", "{k3}", "--coloring", "{fano_blue}",
             "--color", "1"],
            ["unavoidable", "{fano}", "{k3}", "{k3}"],
            ["unavoidable", "{k5}", "{k3}", "{k3}", "--shard-bits", "1"],
            ["mt-lll", "{d9}", "3", "--coloring-out", "{d9col}"],
            ["certify-lower", "{d9}", "{d9col}", "3"],
            ["scatter", "{fano}", "3", "--trials", "20"],
            ["scatter", "{d9}", "9", "--max-attempts", "5"],
            ["reduce-product", "{fano}", "{fano_blue}"],
            ["check-covering", "{d9}", "--format", "structured"],
        ] + [["bound", *argv, "--format", "structured"]
             for argv in BOUND_ARGVS]
        # every command but verify itself writes a file that verify reads
        commands = next(action for action in build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        assert {argv[0] for argv in argvs} == commands.choices.keys() - {
            "verify"}
        for i, argv in enumerate(argvs):
            out = files["dir"] / f"rec{i}.json"
            assert run(*(a.format(**paths) for a in argv),
                       "-o", out) in (0, 2), argv
            capsys.readouterr()
            assert run("verify", out) == 0, (argv, capsys.readouterr())
            if argv[0] == "gen-design":
                continue
            capsys.readouterr()
            record = json.loads(out.read_text())
            out.write_text(json.dumps({**record, "extra": 1}))
            assert run("verify", out) == 1, argv
            assert error_lines(capsys, stdout="") == [
                f"error: malformed {record['record']} record: its argv "
                f"writes no field 'extra'"], argv
            manifest = {**record["manifest"], "extra": 1}
            out.write_text(json.dumps({**record, "manifest": manifest}))
            assert run("verify", out) == 1, argv
            assert error_lines(capsys, stdout="") == [
                f"error: malformed {record['record']} record: manifest "
                f"field 'extra' is unknown"], argv

    def test_covering_check_record_is_re_derived(self, files, capsys):
        out = files["dir"] / "cover.json"
        assert run("check-covering", files["fano"], "--format",
                   "structured", "-o", out) == 0
        record = json.loads(out.read_text())
        capsys.readouterr()
        assert run("verify", out) == 0
        assert capsys.readouterr().out == (
            "covering check reproduces from host\n")
        for field, value, recomputed in [("covering", False, True),
                                         ("min_codegree", 2, 1),
                                         ("min_codegree", True, 1)]:
            out.write_text(json.dumps({**record, field: value}))
            assert run("verify", out) == 3
            assert capsys.readouterr().out == (
                f"{field} mismatch: recomputed {recomputed}, "
                f"recorded {value}\n")


class TestArgvDecides:
    """`verify` reads every run parameter from the manifest argv, never
    from the record, so a record re-derived for other parameters fails."""

    @pytest.fixture()
    def paths(self, files):
        d9 = files["dir"] / "d9.hg"
        d9.write_text(format_hypergraph(
            design_to_hypergraph(construct_resolvable_bibd(9, 3))))
        col = files["dir"] / "d9.col"
        assert run("mt-lll", d9, "4", "--coloring-out", col) == 0
        return {**files, "d9": d9, "d9col": col}

    @pytest.mark.parametrize("argv,old,new,message", [
        (["scatter", "{k6}", "4"], "4", "5",
         "s mismatch: recomputed 5, recorded 4"),
        (["mt-lll", "{d9}", "3"], "3", "4",
         "t mismatch: recomputed 4, recorded 3"),
        (["certify-lower", "{d9}", "{d9col}", "4"], "4", "3",
         "monochromatic Berge-K_3 on (1, 2, 9) in color 0"),
        (["find-berge", "{fano}", "{k3}", "--coloring", "{fano_blue}",
          "--color", "0"], "0", "1",
         "COLOR_FAIL: target edge 0 (1, 2) is on hyperedge 0 of color 0, "
         "not color 1")],
        ids=["scatter-s", "mt-lll-t", "certify-lower-t", "find-berge-color"])
    def test_record_under_another_argv_exit_3(self, paths, capsys, argv, old,
                                              new, message):
        out = paths["dir"] / "rec.json"
        assert run(*(a.format(**paths) for a in argv), "-o", out) == 0
        record = json.loads(out.read_text())
        recorded = record["manifest"]["argv"]
        recorded[recorded.index(old)] = new
        out.write_text(json.dumps(record))
        capsys.readouterr()
        assert run("verify", out) == 3
        assert capsys.readouterr().out == message + "\n"

    def test_trial_fields_of_other_trials_exit_3(self, files, capsys):
        # a --trials 50 record holding the counts of a --trials 10 run
        out, ten = files["dir"] / "scatter.json", files["dir"] / "ten.json"
        assert run("scatter", files["fano"], "3", "--trials", "10",
                   "-o", ten) == 0
        assert run("scatter", files["fano"], "3", "--trials", "50",
                   "-o", out) == 0
        record = json.loads(out.read_text())
        for field in ("trials", "rejected", "empirical_rate"):
            record[field] = json.loads(ten.read_text())[field]
        out.write_text(json.dumps(record))
        capsys.readouterr()
        assert run("verify", out) == 3
        assert capsys.readouterr().out == (
            "trials mismatch: recomputed 50, recorded 10\n")

    def test_trial_fields_stripped_are_malformed(self, files, capsys):
        out = files["dir"] / "scatter.json"
        assert run("scatter", files["fano"], "3", "--trials", "50",
                   "-o", out) == 0
        record = json.loads(out.read_text())
        del record["trials"], record["rejected"], record["empirical_rate"]
        out.write_text(json.dumps(record))
        capsys.readouterr()
        assert run("verify", out) == 1
        assert error_lines(capsys, stdout="") == [
            "error: malformed scatter-sample record: KeyError('trials')"]


class TestManifestIsRederived:
    """`verify` compares a record's manifest with the one its argv writes.
    Its `version` and `inputs` only inform: no check reads them."""

    def scatter_record(self, files):
        out = files["dir"] / "scatter.json"
        assert run("scatter", files["fano"], "3", "-o", out) == 0
        return out, json.loads(out.read_text())

    @pytest.mark.parametrize("edits,message", [
        ({"subcommand": "mt-lll"},
         "subcommand mismatch: recomputed 'scatter', recorded 'mt-lll'"),
        ({"tool": "other"},
         "tool mismatch: recomputed 'coverramsey', recorded 'other'"),
        ({"subcommand": "mt-lll", "tool": "other"},
         "tool mismatch: recomputed 'coverramsey', recorded 'other'")],
        ids=["subcommand", "tool", "both"])
    def test_forged_manifest_is_malformed(self, files, capsys, edits,
                                          message):
        out, record = self.scatter_record(files)
        record["manifest"].update(edits)
        out.write_text(json.dumps(record))
        capsys.readouterr()
        assert run("verify", out) == 1
        assert error_lines(capsys, stdout="") == [
            f"error: malformed scatter-sample record: manifest {message}"]

    @pytest.mark.parametrize("key", ["tool", "version", "subcommand", "argv",
                                     "seed", "inputs"])
    def test_missing_manifest_field_is_malformed(self, files, capsys, key):
        out, record = self.scatter_record(files)
        del record["manifest"][key]
        out.write_text(json.dumps(record))
        capsys.readouterr()
        assert run("verify", out) == 1
        assert error_lines(capsys, stdout="") == [
            f"error: malformed scatter-sample record: KeyError({key!r})"]

    @pytest.mark.parametrize("key,value", [
        ("version", "0.1.0"), ("inputs", {}), ("inputs", None)])
    def test_informational_field_edited_verifies(self, files, capsys, key,
                                                 value):
        # the AVOIDABLE counters are derived whatever the version says
        out = files["dir"] / "unavoid.json"
        assert run("unavoidable", files["k5"], files["k3"], files["k3"],
                   "-o", out) == 0
        record = json.loads(out.read_text())
        record["manifest"][key] = value
        out.write_text(json.dumps(record))
        capsys.readouterr()
        assert run("verify", out) == 0
        assert capsys.readouterr().out == (
            "witness re-verified (avoids both targets)\n")

    def test_forged_manifest_costs_no_search(self, files, capsys,
                                             monkeypatch):
        # an UNAVOIDABLE verdict re-verifies by a search, which a manifest
        # that its argv does not write never reaches
        import coverramsey.search
        out = files["dir"] / "unavoid.json"
        assert run("unavoidable", files["k6"], files["k3"], files["k3"],
                   "-o", out) == 0
        record = json.loads(out.read_text())
        record["manifest"]["subcommand"] = "scatter"
        out.write_text(json.dumps(record))

        def no_search(*args, **kwargs):
            raise AssertionError("the recorded search was run")

        monkeypatch.setattr(coverramsey.search, "unavoidable", no_search)
        capsys.readouterr()
        assert run("verify", out) == 1
        assert error_lines(capsys, stdout="") == [
            "error: malformed unavoidability-result record: manifest "
            "subcommand mismatch: recomputed 'unavoidable', recorded "
            "'scatter'"]


def refusal(path):
    """The one `error:` line `verify` gives a file that holds no claim."""
    return (f"error: {path} is neither a JSON record nor a design, so it "
            f"holds no claim to verify; check a host with check-covering, "
            f"and a coloring through the mt-lll or certify-lower record "
            f"that embeds it")


class TestVerifyDispatch:
    def test_hypergraph_file(self, files, capsys):
        assert run("verify", files["fano"]) == 1
        assert error_lines(capsys, stdout="") == [refusal(files["fano"])]

    @pytest.mark.parametrize("kind", ["hypergraph", "design"])
    def test_leading_blank_and_comment_lines(self, files, capsys, kind):
        # the file type is read off the first line that is neither blank
        # nor a '#' comment, the lines every text parser skips: a design
        # verifies and a host is refused, whatever lines precede them
        text = (format_hypergraph(fano()) if kind == "hypergraph"
                else format_design(construct_resolvable_bibd(9, 3)))
        path = files["dir"] / f"padded.{kind}"
        for prefix in ("", "\n", "# header\n\n", " \n\t\n# a\n   # b\n\n"):
            path.write_text(prefix + text)
            if kind == "hypergraph":
                assert run("verify", path) == 1
                assert error_lines(capsys, stdout="") == [refusal(path)]
            else:
                assert run("verify", path) == 0
                assert error_lines(capsys, stdout="design verifies\n") == []

    def test_files_without_a_claim_are_refused(self, files, capsys):
        # a host, a target in either edge order, a coloring sidecar, an
        # empty file and a one-word file are neither a record nor a design
        col = files["dir"] / "mt.col"
        assert run("mt-lll", files["fano"], "4", "--coloring-out", col) == 0
        texts = {"descending.g": "3 2\n2 1\n3 1\n", "empty": "",
                 "word": "coloring\n"}
        for name, text in texts.items():
            (files["dir"] / name).write_text(text)
        capsys.readouterr()
        for path in (files["fano"], files["k3"], files["dir"] / "descending.g",
                     col, files["dir"] / "empty", files["dir"] / "word"):
            assert run("verify", path) == 1
            assert error_lines(capsys, stdout="") == [refusal(path)]
        # the host check is check-covering's
        assert run("check-covering", files["fano"]) == 0
        assert capsys.readouterr().out == (
            "covering: True (n=7, m=7, min co-degree 1)\n")

    def test_json_record_after_blank_and_comment_lines(self, files, capsys):
        path = files["dir"] / "rec.json"
        assert run("find-berge", files["fano"], files["k3"], "-o", path) == 0
        text = path.read_text()
        path.write_text("\n \n" + text)
        capsys.readouterr()
        assert run("verify", path) == 0
        assert capsys.readouterr().out.startswith("certificate verifies")
        # JSON has no comments, so a '#' line before the record is an error
        path.write_text("# note\n\n" + text)
        assert run("verify", path) == 1
        assert error_lines(capsys) == [
            "error: line 1 is a '#' comment ('# note'); a JSON record "
            "cannot hold comment lines"]
        path.write_text("\n  # header\n" + text)
        assert run("verify", path) == 1
        assert error_lines(capsys) == [
            "error: line 2 is a '#' comment ('# header'); a JSON record "
            "cannot hold comment lines"]

    def test_coloring_sidecar_is_named(self, files, capsys):
        col = files["dir"] / "mt.col"
        assert run("mt-lll", files["fano"], "4", "--coloring-out", col) == 0
        capsys.readouterr()
        assert run("verify", col) == 1
        assert error_lines(capsys) == [refusal(col)]

    def test_empty_file_exit_1(self, files, capsys):
        empty = files["dir"] / "empty"
        empty.write_text("")
        assert run("verify", empty) == 1
        assert error_lines(capsys) == [refusal(empty)]

    def test_cut_record_exit_1(self, files, capsys):
        out = files["dir"] / "rec.json"
        assert run("find-berge", files["fano"], files["k3"], "-o", out) == 0
        out.write_text(out.read_text()[:40])
        capsys.readouterr()
        assert run("verify", out) == 1
        assert len(error_lines(capsys)) == 1

    def test_unknown_record_type(self, files):
        bad = files["dir"] / "bad.json"
        bad.write_text('{"record": "mystery"}\n')
        assert run("verify", bad) == 1

    @pytest.mark.parametrize("argv", [("verify", "{missing}"),
                                      ("check-covering", "{missing}"),
                                      ("find-berge", "{fano}", "{missing}")])
    def test_missing_input_file_exit_1(self, files, capsys, argv):
        paths = {"missing": files["dir"] / "missing.hg", "fano": files["fano"]}
        assert run(*(a.format(**paths) for a in argv)) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("error: cannot read ")
        assert "No such file or directory" in err[0]

    @pytest.mark.parametrize("kind,text,line", [
        ("host", "3 2\n1 2\n1 x\n", "1 x"),
        ("target", "3 2\n1 2\n1 q\n", "1 q"),
        ("design", "3 3 1\n1 2 y\n", "1 2 y")])
    def test_non_integer_entry_exit_1(self, files, capsys, kind, text, line):
        bad = files["dir"] / f"bad.{kind}"
        bad.write_text(text)
        # `verify` refuses a host before parsing it
        message = f"error: non-integer entry in line {line!r}"
        argvs = {"host": [(("verify", bad), refusal(bad)),
                          (("find-berge", bad, files["k3"]), message)],
                 "target": [(("find-berge", files["fano"], bad), message)],
                 "design": [(("verify", bad), message)]}[kind]
        for argv, error in argvs:
            assert run(*argv) == 1
            assert error_lines(capsys) == [error]

    def test_malformed_record_exit_1(self, files):
        bad = files["dir"] / "torn.json"
        bad.write_text('{"record": "berge-certificate"}\n')
        assert run("verify", bad) == 1

    @pytest.mark.parametrize("argv,field", [
        *[(["find-berge", "{fano}", "{k3}", "--coloring", "{fano_blue}",
            "--color", "0"], field)
          for field in ("host_text", "target_text", "coloring_text",
                        "color")],
        *[(["unavoidable", "{k5}", "{k3}", "{k3}"], field)
          for field in ("host_text", "g1_text", "g2_text", "witness")],
        *[(argv, field)
          for argv in (["mt-lll", "{fano}", "4"],
                       ["certify-lower", "{k5}", "{pentagon}", "3"],
                       ["reduce-product", "{fano}", "{fano_blue}"])
          for field in ("host_text", "coloring_text")],
        (["scatter", "{fano}", "3"], "host_text"),
        (["check-covering", "{fano}", "--format", "structured"],
         "host_text")])
    def test_missing_embedded_field_is_malformed(self, files, capsys, argv,
                                                 field):
        files["pentagon"] = files["dir"] / "pentagon.col"
        files["pentagon"].write_text("0110011010\n")
        out = files["dir"] / "rec.json"
        assert run(*(a.format(**files) for a in argv), "-o", out) == 0
        record = json.loads(out.read_text())
        del record[field]
        out.write_text(json.dumps(record))
        capsys.readouterr()
        assert run("verify", out) == 1
        err = error_lines(capsys)
        assert len(err) == 1
        assert err[0].startswith(f"error: malformed {record['record']} "
                                 f"record: ")

    @pytest.mark.parametrize("argv,field,value,kind", [
        (["find-berge", "{fano}", "{k3}"], "host_text", 1.5,
         "berge-certificate"),
        (["unavoidable", "{k5}", "{k3}", "{k3}"], "g1_text", 1.5,
         "unavoidability-result"),
        (["find-berge", "{fano}", "{k3}"], "target_text", [],
         "berge-certificate"),
        (["reduce-product", "{fano}", "{fano_blue}"], "coloring_text", 0,
         "product-reduction"),
        (["find-berge", "{fano}", "{k3}"], "record", [[1, 2]], "[[1, 2]]")])
    def test_mistyped_field_is_malformed(self, files, capsys, argv, field,
                                         value, kind):
        out = files["dir"] / "rec.json"
        assert run(*(a.format(**files) for a in argv), "-o", out) == 0
        record = json.loads(out.read_text())
        record[field] = value
        out.write_text(json.dumps(record))
        capsys.readouterr()
        assert run("verify", out) == 1
        err = error_lines(capsys, stdout="")
        assert len(err) == 1
        assert err[0].startswith(f"error: malformed {kind} record: ")
