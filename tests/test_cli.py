"""CLI surface and catalog data integrity."""

import dataclasses
import functools
import importlib.util
import os
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import pytest

from cubictrace import burau
from cubictrace.braids import BraidWord
from cubictrace.cli import main
from cubictrace.coxeter import T0Invariant
from cubictrace.hecke import MAX_STRANDS
from cubictrace.knotdata import (
    COLUMNS,
    DataError,
    InvariantIndex,
    crossing_number,
    load_records,
    parse_records,
    plat_screen,
    pretzel_plat,
    screen_chain,
    validate_record,
)
from cubictrace.skein import alexander_det, markov_trace_pm_fast


# `table --input` files that must be refused with one line, by name under tmp_path
BAD_TABLES = {
    "wrong_columns.tsv": "3_1\t2\t1 1 1\n",
    "bad_strands.tsv": "3_1\ttwo\t1 1 1\t0\tknot\tsource=test\n",
    "bad_expected.tsv": "3_1\t2\t1 1 1\tfoo bar\tknot\tsource=test\n",
    # rows that must be refused before any unbounded work
    "too_many_strands.tsv": "3_1\t81\t1 1 1\t0\tknot\tsource=test\n",
    "deep_nesting.tsv": f"3_1\t2\t1 1 1\t{'(' * 3000}a{')' * 3000}\tknot\tsource=test\n",
    "wide_power.tsv": "3_1\t2\t1 1 1\t(a+1)^8000\tknot\tsource=test\n",
    "nested_power.tsv": "3_1\t2\t1 1 1\t((a+1)^64)^64\tknot\tsource=test\n",
    "long_exponent.tsv": f"3_1\t2\t1 1 1\ta^{'9' * 5000}\tknot\tsource=test\n",
    "long_product.tsv": f"3_1\t2\t1 1 1\t{'*'.join(['(a+1)^64'] * 100)}\tknot\tsource=test\n",
}


def cli_env() -> dict:
    """The environment for a `python -m cubictrace` child: this checkout's src/ first."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def load_script(name: str):
    """A module of scripts/, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out.strip()
    return code, out


class TestInvariantCommand:
    def test_t0_trefoil(self, capsys):
        code, out = run_cli(["invariant", "--which", "t0x2a", "--strands", "2",
                             "--braid", "1 1 1"], capsys)
        assert code == 0 and out == "0"

    def test_parity_hopf(self, capsys):
        code, out = run_cli(["invariant", "--which", "parity", "--strands", "2",
                             "--braid", "1 1"], capsys)
        assert code == 0 and out == "1"

    def test_kauffman_unknot_chain(self, capsys):
        code, out = run_cli(["invariant", "--which", "kauffman+", "--strands", "3",
                             "--braid", "1 2"], capsys)
        assert code == 0 and out == "1"

    def test_t0_figure_eight(self, capsys):
        code, out = run_cli(["invariant", "--which", "t0x2a", "--strands", "3",
                             "--braid", "1 -2 1 -2"], capsys)
        assert code == 0 and out == "16"

    def test_kauffman_at_point(self, capsys):
        code, out = run_cli(["invariant", "--which", "kauffman+", "--braid", "1 1 1",
                             "--strands", "2", "--at", "x2a"], capsys)
        assert code == 0 and out == "9"

    def test_base_flag_is_irrelevant(self, capsys):
        _, out0 = run_cli(["invariant", "--which", "t0x2a", "--strands", "3",
                           "--braid", "1 -2 1 -2", "--base", "0"], capsys)
        _, out5 = run_cli(["invariant", "--which", "t0x2a", "--strands", "3",
                           "--braid", "1 -2 1 -2", "--base", "5"], capsys)
        assert out0 == out5 == "16"


    @pytest.mark.parametrize("args", [
        ["invariant", "--which", "parity", "--braid", "1 5", "--strands", "3"],
        ["invariant", "--which", "kauffman+", "--braid", "1 x", "--strands", "2", "--at", "x2a"],
        ["invariant", "--which", "parity"],
        ["invariant", "--which", "hecke", "--braid", "1", "--strands", "2", "--at", "xa"],
        ["table", "--input", "missing.tsv"],
        ["table", "--input", "wrong_columns.tsv"],
        ["table", "--input", "bad_strands.tsv"],
        ["table", "--input", "bad_expected.tsv"],
        ["invariant", "--which", "parity", "--braid", "1 1", "--strands", "2", "--at", "xa"],
        # the point value joins both variants, so it is kauffman+'s alone
        ["invariant", "--which", "kauffman-", "--braid", "1 -2 1 -2", "--strands", "3",
         "--at", "x2a"],
        ["invariant", "--which", "t0x2a", "--braid", "1 1", "--strands", "2", "--at", "x2a"],
        ["verify", "--suite", "h3", "--pit-points", "0"],
        # strand counts past the cap of the n!-sized engines
        ["invariant", "--which", "hecke", "--braid", "1", "--strands", "1200"],
        ["invariant", "--which", "hecke", "--braid", "1", "--strands", "1200", "--at", "x2a"],
        ["invariant", "--which", "t0x2a", "--braid", "1", "--strands", "1200"],
        # --base belongs to t0x2a alone
        ["invariant", "--which", "parity", "--braid", "1", "--strands", "2", "--base", "3"],
        ["invariant", "--which", "hecke", "--braid", "1", "--strands", "2", "--base", "3"],
        ["invariant", "--which", "hecke", "--braid", "1", "--strands", "2", "--at", "x2a",
         "--base", "0"],
        ["invariant", "--which", "kauffman+", "--braid", "1", "--strands", "2", "--base", "3"],
        ["invariant", "--which", "kauffman-", "--braid", "1", "--strands", "2", "--at", "x2a",
         "--base", "3"],
        # every invariant refuses more strands than hecke.MAX_STRANDS before any work
        *(["invariant", "--which", which, "--braid", "", "--strands", "1000000000"]
          for which in ("parity", "kauffman+", "kauffman-", "hecke", "t0x2a")),
        ["invariant", "--which", "parity", "--braid", "1", "--strands", "33"],
        ["table", "--input", "too_many_strands.tsv"],
        ["table", "--input", "deep_nesting.tsv"],
        ["table", "--input", "wide_power.tsv"],
        ["table", "--input", "nested_power.tsv"],
        ["table", "--input", "long_exponent.tsv"],
        ["table", "--input", "long_product.tsv"],
    ])
    def test_bad_input_is_one_line_and_exit_2(self, args, tmp_path, capsys):
        for name, text in BAD_TABLES.items():
            (tmp_path / name).write_text(text)
        code = main([str(tmp_path / a) if a.endswith(".tsv") else a for a in args])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("cubictrace: ")
        if args[-1] in BAD_TABLES:
            assert "line 1: " in err  # a bad row names its line

    @pytest.mark.parametrize("text", ["", "# comments only\n", "\t".join(COLUMNS) + "\n"],
                             ids=["empty", "comments", "header"])
    def test_table_input_without_rows_is_refused(self, text, tmp_path, capsys):
        path = tmp_path / "rows.tsv"
        path.write_text(text)
        for source in (path, os.devnull):
            code = main(["table", "--input", str(source)])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert captured.err == f"cubictrace: {source}: no catalog rows\n"

    def test_a_row_past_the_strand_cap_is_refused_by_its_line(self):
        row = "3_1\t{}\t1 1 1\t0\tknot\tsource=test"
        text = "\n".join(["# a comment", row.format(MAX_STRANDS), row.format(MAX_STRANDS + 1)])
        with pytest.raises(DataError, match=f"^line 3: {MAX_STRANDS + 1} strands"):
            parse_records(text)
        assert parse_records(text.rsplit("\n", 1)[0])[0].strands == MAX_STRANDS

    def test_python_dash_m_entry_point(self):
        done = subprocess.run([sys.executable, "-m", "cubictrace", "invariant", "--which", "parity",
                               "--braid", "1 1 1", "--strands", "2"],
                              env=cli_env(), capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_closed_output_pipe_ends_quietly(self):
        # as `cubictrace verify --suite braid | head -0`: nobody reads stdout
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "cubictrace", "verify", "--suite", "braid"],
                                  env=cli_env(), stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert done.stderr == ""
        assert done.returncode == 141


class TestTableCommand:
    def test_output_matches_the_golden_file(self, capsys):
        # thm, hecke, kauffman and value of every catalog row, as first recorded
        code, out = run_cli(["table"], capsys)
        assert code == 0
        assert out == (Path(__file__).resolve().parent / "golden" / "table.txt").read_text().strip()


class TestVerifyCommand:
    def test_braid_suite_passes(self, capsys):
        code, out = run_cli(["verify", "--suite", "braid", "--seed", "3"], capsys)
        assert code == 0
        assert "pass" in out

    def test_determinism(self, capsys):
        _, out1 = run_cli(["verify", "--suite", "braid", "--seed", "3"], capsys)
        _, out2 = run_cli(["verify", "--suite", "braid", "--seed", "3"], capsys)
        assert out1 == out2


class TestData:
    def test_records_load_and_validate(self):
        records = load_records()
        assert len(records) >= 90
        names = {r.name for r in records}
        assert len(names) == len(records)
        for record in records:
            validation = validate_record(record)
            assert validation.ok, (record.name, validation)

    def test_knot_rows_cover_the_table(self):
        records = {r.name for r in load_records()}
        for c, count in ((3, 1), (4, 1), (5, 2), (6, 3), (7, 7), (8, 21), (9, 49)):
            for k in range(1, count + 1):
                assert f"{c}_{k}" in records, f"{c}_{k} missing"

    def test_rows_are_identified_without_their_value(self):
        """Distinctness certificate and the whole screen chain on every prime-knot row."""
        records = load_records()
        index = InvariantIndex()
        for record in records:
            if record.kind == "link":
                continue
            key = index.add(record.name, record.braid())
            assert index.match(key) == record.name, (record.name, index.match(key))
        for record in records:
            if record.kind != "knot" or crossing_number(record.name) is None:
                continue
            screening = screen_chain(record.braid(), [record], index)
            assert screening.failed is None and screening.rows == [record], \
                (record.name, screening.failed)
            screens = record.provenance_field("screens").split(",")
            assert {"det", "alexander", "xdeg", "prime", "distinct"} <= set(screens), record.name
            assert "value" not in screens, record.name
            assert ("rational" in screens) == (record.provenance_field("conway") is not None)
            assert ("pretzel" in screens) == (record.provenance_field("pretzel") is not None)
            if record.provenance_field("screen") == "value":
                assert record.name in record.provenance_field("ambiguous").split("/")

    def test_screen_chain_stops_at_the_first_failing_screen(self):
        records = {r.name: r for r in load_records()}
        index = InvariantIndex()
        for name in ("3_1", "4_1", "5_2"):
            index.add(name, records[name].braid())
        not_5_1 = dataclasses.replace(records["5_2"], provenance=records["5_2"].provenance
                                      .replace("conway=32", "conway=5"))
        for word, row, failed in (("L2a1", records["3_1"], "components"),
                                  ("4_1", records["5_2"], "det"),
                                  ("8_20", records["6_1"], "alexander"),
                                  ("9_46", records["6_1"], "xdeg"),
                                  ("5_2", not_5_1, "rational"),
                                  ("3_1#3_1", records["8_20"], "prime")):
            screening = screen_chain(records[word].braid(), [row], index)
            assert (screening.failed, screening.rows) == (failed, []), (word, row.name)
        screening = screen_chain(records["4_1"].braid(), [records["3_1"], records["4_1"]],
                                 index)
        assert screening.failed is None and screening.rows == [records["4_1"]]
        assert screening.xdeg == 3 and index.match(screening.key) == "4_1"

    def test_pretzel_plat_closes_to_known_knots(self):
        records = {r.name: r for r in load_records()}
        for twists, name in (((1, 1, 1), "3_1"), ((1, 1, 3), "5_2"), ((1, 3, 3), "7_4"),
                             ((-2, 3, 3), "8_19"), ((3, -2, 3), "8_19")):
            trace = markov_trace_pm_fast(records[name].braid(), "+")
            assert plat_screen(trace, pretzel_plat(twists)), (twists, name)
        trace = markov_trace_pm_fast(records["5_2"].braid(), "+")
        assert not plat_screen(trace, pretzel_plat((1, 3, 3)))

    def test_determinants_recorded_accurately(self):
        for record in load_records():
            det_field = record.provenance_field("det")
            if det_field is not None:
                assert alexander_det(record.braid()) == int(det_field), record.name

    def test_search_script_determinant_screen(self):
        """The search script's first screen: the integer Burau image at
        t = -1 that its depth-first search carries, one step per pushed
        letter, then the closure determinant, against the tabulated det of
        every knot row."""
        search = load_script("search_braid_words")

        def image(word, n):
            """The library's image of the word, stepped from the identity."""
            return functools.reduce(lambda rows, x: burau.burau_step(rows, x, -1, -1), word,
                                    burau.working_identity(n))

        checked = 0
        for record in load_records():
            det_field = record.provenance_field("det")
            if record.kind == "link" or det_field is None:
                continue
            rows = image(record.braid().letters, record.strands)
            assert search.closure_determinant(rows, record.strands) == int(det_field), \
                record.name
            checked += 1
        assert checked >= 84
        # every word the enumeration yields carries its own image
        for n, length in ((2, 5), (3, 6), (4, 7)):
            words = 0
            for word, rows in search.normal_words(n, length):
                assert rows == image(word, n), word
                assert search.closure_determinant(rows, n) == alexander_det(BraidWord(n, word))
                words += 1
            assert words > 0, (n, length)

    def test_search_script_screens_against_catalog_rows(self, capsys):
        """The search takes its targets' tabulated data from the catalog rows,
        and its distinctness index adds the deferred rows at the first lookup."""
        search = load_script("search_braid_words")
        records = {r.name: r for r in load_records()}
        index = InvariantIndex()
        for name in ("3_1", "5_2"):
            index.defer(name, records[name].braid())
        found = {}
        # three words reach the Kauffman trace; 5_2's own word is an indexed row's, not a hit
        assert search.search(3, 6, [records["4_1"], records["5_2"]], index,
                             T0Invariant(), found) == 3
        assert list(found) == ["4_1"]
        assert capsys.readouterr().out == "HIT 4_1: (3, '-2 -2 -1 2 1 1')  xdeg=3 x2a=16\n"
        assert index.match(index.key(records["5_2"].braid())) == "5_2"

    def test_curation_is_a_fixed_point(self, tmp_path, capsys):
        """The curation re-screens the packaged catalog and writes it back unchanged."""
        out = tmp_path / "knots.tsv"
        assert load_script("curate_knot_data").main(["--out", str(out)]) == 0
        assert "DISAGREES" not in capsys.readouterr().out
        packaged = files("cubictrace") / "data" / "knots.tsv"
        assert out.read_bytes() == packaged.read_bytes()

    def test_curation_screens_and_rewrites_a_sub_catalog(self, tmp_path, monkeypatch, capsys):
        curate = load_script("curate_knot_data")
        lines = (files("cubictrace") / "data" / "knots.tsv").read_text().splitlines()
        sub = [line for line in lines[1:] if line.split("\t")[0] in
               ("3_1", "4_1", "5_2", "3_1#3_1", "L2a1")]
        out = tmp_path / "knots.tsv"
        wrong_det = [line.replace("det=5;", "det=7;") for line in sub]
        monkeypatch.setattr(curate, "load_records", lambda: parse_records("\n".join(wrong_det)))
        assert curate.main(["--out", str(out)]) == 1
        assert "FAILED 4_1: fails det" in capsys.readouterr().out
        assert not out.exists()
        stale = [line.replace("xdeg=4;screens=components,det,", "xdeg=9;screens=")
                 for line in sub]
        assert stale != sub
        monkeypatch.setattr(curate, "load_records", lambda: parse_records("\n".join(stale)))
        assert curate.main(["--out", str(out)]) == 0
        assert out.read_text().splitlines() == [lines[0]] + sub

    def test_tsv_is_bit_exact_grammar(self):
        text = (files("cubictrace") / "data" / "knots.tsv").read_text()
        header, *rows = [l for l in text.splitlines() if l.strip()]
        assert header.split("\t") == ["name", "strands", "word", "expected_x2a",
                                      "kind", "provenance"]
        reparsed = parse_records(text)
        assert len(reparsed) == len(rows)
