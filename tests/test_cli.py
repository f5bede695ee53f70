import contextlib
import csv
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mosaicforest import mosaic as mosaic_mod
from mosaicforest import verify as verify_mod
from mosaicforest.cli import MAX_EUCLIDEAN_LEVELS, MAX_PQ, main
from mosaicforest.recurrence import SchlafliSymbol

GOLDEN = Path(__file__).parent / "golden"
SRC = str(Path(__file__).parent.parent / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCounts:
    def test_markdown_reference_table(self, capsys):
        code, out, _ = run(capsys, "counts", "--p", "4", "--q", "5", "--levels", "10")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "| i | a_i | b_i | a_i+b_i |"
        assert lines[2] == "| 0 | 0 | 1 | 1 |"
        assert lines[12] == "| 10 | 959305 | 553855 | 1513160 |"
        assert len(lines) == 13

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "counts", "--p", "4", "--q", "4", "--levels", "5", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "level,a,b,total"
        for i in range(1, 6):
            assert lines[1 + i] == f"{i},{8 * i - 4},4,{8 * i}"

    def test_jsonl(self, capsys):
        code, out, _ = run(
            capsys, "counts", "--p", "4", "--q", "5", "--levels", "2", "--format", "jsonl"
        )
        assert code == 0
        rows = [json.loads(ln) for ln in out.strip().split("\n")]
        assert rows[2] == {"level": 2, "a": "25", "b": "15", "total": "40"}

    def test_precondition_error_exit_2(self, capsys):
        code, _, err = run(capsys, "counts", "--p", "3", "--q", "7", "--levels", "4")
        assert code == 2
        assert "error:" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, out, _ = run(
            capsys,
            "counts", "--p", "4", "--q", "5", "--levels", "3",
            "--format", "csv", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("level,a,b,total\n")
        assert list(tmp_path.iterdir()) == [target]

    def test_out_through_a_symlink_writes_its_target(self, capsys, tmp_path):
        argv = ("counts", "--p", "4", "--q", "5", "--levels", "2")
        _, expected, _ = run(capsys, *argv)
        target, link = tmp_path / "target.txt", tmp_path / "link.txt"
        target.write_text("old\n")
        link.symlink_to(target.name)
        code, out, _ = run(capsys, *argv, "--out", str(link))
        assert (code, out) == (0, "")
        assert link.is_symlink() and os.readlink(link) == target.name
        assert target.read_text() == expected
        assert sorted(tmp_path.iterdir()) == [link, target]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_out_to_a_fifo_writes_into_it(self, capsys, tmp_path):
        argv = ("counts", "--p", "4", "--q", "5", "--levels", "2")
        _, expected, _ = run(capsys, *argv)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        # a reader is open first, so neither end blocks; the table fits the pipe buffer
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            code, out, _ = run(capsys, *argv, "--out", str(fifo))
            got = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert (code, out) == (0, "")
        assert fifo.is_fifo()
        assert got == expected.encode()
        assert list(tmp_path.iterdir()) == [fifo]


class TestConstants:
    def test_markdown_has_exact_and_decimal(self, capsys):
        code, out, _ = run(capsys, "constants", "--p", "4", "--q", "5")
        assert code == 0
        assert "| growth | 2 + sqrt(3) | 3.732051 |" in out
        assert "| root_share | -1/2 + 1/2*sqrt(3) | 0.366025 |" in out
        assert "| step_share | -3 + 2*sqrt(3) | 0.464102 |" in out

    def test_46_growth(self, capsys):
        code, out, _ = run(capsys, "constants", "--p", "4", "--q", "6")
        assert code == 0
        assert "| growth | 3 + 2*sqrt(2) |" in out

    def test_euclidean_refused_with_hint(self, capsys):
        code, _, err = run(capsys, "constants", "--p", "4", "--q", "4")
        assert code == 2
        assert "euclidean_counts" in err

    def test_jsonl(self, capsys):
        code, out, _ = run(capsys, "constants", "--p", "4", "--q", "5", "--format", "jsonl")
        rows = {r["name"]: r for r in map(json.loads, out.strip().split("\n"))}
        assert rows["growth"]["exact"] == "2 + sqrt(3)"
        assert rows["growth"]["decimal"].startswith("3.7320508075688772935")


class TestProbs:
    def test_asymptotic_table(self, capsys):
        code, out, _ = run(capsys, "probs", "--p", "4", "--q", "5", "--levels", "7")
        assert code == 0
        assert "| 7 | 0.366025 | 1.000000 |" in out
        assert "| 0 | 0.015016 | 0.015016 |" in out

    def test_both_with_error_report(self, capsys):
        code, out, _ = run(
            capsys, "probs", "--p", "4", "--q", "5", "--levels", "7", "--mode", "both"
        )
        assert code == 0
        assert "| 0 | 0.010993 | 0.010993 |" in out  # exact main-root mass
        assert "| j | abs error | order |" in out
        assert "1e-3" in out  # j=0 error order

    def test_exact_csv_carries_fractions(self, capsys):
        code, out, _ = run(
            capsys,
            "probs", "--p", "4", "--q", "5", "--levels", "3",
            "--mode", "exact", "--format", "csv",
        )
        lines = out.strip().split("\n")
        assert lines[0] == "kind,j,mass,numerator,denominator,count"
        assert "exact,0,0.133333,2,15,20" in lines

    def test_jsonl_exact_pairs(self, capsys):
        code, out, _ = run(
            capsys,
            "probs", "--p", "4", "--q", "5", "--levels", "3",
            "--mode", "exact", "--format", "jsonl",
        )
        rows = [json.loads(ln) for ln in out.strip().split("\n")]
        zero = next(r for r in rows if r["j"] == 0)
        assert zero["exact"] == {"numerator": "2", "denominator": "15"}
        assert zero["count"] == "20"

    def test_level_one(self, capsys):
        code, out, _ = run(capsys, "probs", "--p", "4", "--q", "5", "--levels", "1")
        assert code == 0
        assert "| 1 | 0.366025 | 1.000000 |" in out
        assert "| 0 | 0.633975 | 0.633975 |" in out

    def test_euclidean_asymptotic_refused(self, capsys):
        code, _, err = run(capsys, "probs", "--p", "4", "--q", "4", "--levels", "5")
        assert code == 2

    def test_euclidean_exact_served(self, capsys):
        code, out, _ = run(
            capsys, "probs", "--p", "4", "--q", "4", "--levels", "5", "--mode", "exact"
        )
        assert code == 0
        assert "| 0 | 0.100000 | 0.100000 |" in out  # 1/(2i) = 1/10


# --- the three formats of one command carry the same values ---------------

FORMAT_SYMBOLS = ((4, 5), (5, 4), (4, 7), (6, 6), (7, 4))
FORMAT_LEVELS = (1, 2, 9, 40)


def _outputs(capsys, *argv):
    """stdout of `argv` in markdown, CSV and JSON lines, in that order."""
    outs = []
    for fmt in ("markdown", "csv", "jsonl"):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, err) == (0, ""), (argv, fmt, err)
        outs.append(out)
    return outs


def _markdown_tables(text):
    """Each markdown table as (the line above it, its body rows split into cells)."""
    tables, above, rows = [], "", None
    for line in text.splitlines():
        if line.startswith("|-"):
            rows = []
            tables.append((above, rows))
        elif not line.startswith("| "):
            above, rows = line, None
        elif rows is not None:
            rows.append(line[2:-2].split(" | "))
    return tables


def _csv_tables(text):
    """Each CSV block as (its header, its rows); a block starts at a header line."""
    tables = []
    for row in csv.reader(io.StringIO(text)):
        if row[0] in ("level", "name", "kind", "error_j"):
            tables.append((row, []))
        else:
            tables[-1][1].append(row)
    return tables


class TestFormatsAgree:
    @pytest.mark.parametrize("level", FORMAT_LEVELS)
    @pytest.mark.parametrize("p, q", FORMAT_SYMBOLS + ((4, 4),))
    def test_counts(self, capsys, p, q, level):
        md, text, jl = _outputs(capsys, "counts", "--p", str(p), "--q", str(q),
                                "--levels", str(level))
        [(_, md_rows)] = _markdown_tables(md)
        [(header, csv_rows)] = _csv_tables(text)
        assert header == ["level", "a", "b", "total"]
        records = [json.loads(line) for line in jl.splitlines()]
        json_rows = [[str(r["level"]), r["a"], r["b"], r["total"]] for r in records]
        assert all(type(r["level"]) is int for r in records)
        assert md_rows == csv_rows == json_rows
        assert len(md_rows) == level + 1

    @pytest.mark.parametrize("precision", (6, 40))
    @pytest.mark.parametrize("p, q", FORMAT_SYMBOLS)
    def test_constants(self, capsys, p, q, precision):
        md, text, jl = _outputs(capsys, "constants", "--p", str(p), "--q", str(q),
                                "--precision", str(precision))
        [(title, md_rows)] = _markdown_tables(md)
        assert title.startswith(f"constants for {{{p},{q}}}")
        [(header, csv_rows)] = _csv_tables(text)
        assert header == ["name", "exact", "decimal"]
        assert all(f',"{exact}",' in text for _, exact, _ in csv_rows)
        records = [json.loads(line) for line in jl.splitlines()]
        json_rows = [[r["name"], r["exact"], r["decimal"]] for r in records]
        assert [[n, e, full] for n, e, _, full in md_rows] == csv_rows == json_rows
        assert all(len(full.split(".")[1]) == precision for _, _, full in csv_rows)

    @pytest.mark.parametrize("level", FORMAT_LEVELS)
    @pytest.mark.parametrize(
        "p, q, mode",
        [(*pq, mode) for pq in FORMAT_SYMBOLS for mode in ("asymptotic", "exact", "both")]
        + [(4, 4, "exact")],  # {4,4} has no limiting law
    )
    def test_probs(self, capsys, p, q, level, mode):
        md, text, jl = _outputs(capsys, "probs", "--p", str(p), "--q", str(q),
                                "--levels", str(level), "--mode", mode)
        kinds = ("asymptotic", "exact") if mode == "both" else (mode,)
        md_tables, csv_tables = _markdown_tables(md), _csv_tables(text)
        records = [json.loads(line) for line in jl.splitlines()]
        laws = [r for r in records if "kind" in r]
        assert len(md_tables) == len(kinds) + (mode == "both")
        assert len(csv_tables) == 1 + (mode == "both")

        md_laws = []
        for kind, (title, rows) in zip(kinds, md_tables):
            assert title == f"{kind} root-level distribution for {{{p},{q}}}, level {level}"
            md_laws += [[kind, j, mass] for j, mass, _ in rows]
        header, csv_rows = csv_tables[0]
        assert header == ["kind", "j", "mass", "numerator", "denominator", "count"]
        assert [r[:3] for r in csv_rows] == md_laws
        assert [[r["kind"], str(r["j"]), r["mass"]] for r in laws] == md_laws
        for row, rec in zip(csv_rows, laws):
            if rec["kind"] == "exact":
                exact = rec["exact"]
                assert row[3:] == [exact["numerator"], exact["denominator"], rec["count"]]
                assert set(rec) == {"kind", "j", "mass", "exact", "count"}
            else:
                assert row[3:] == ["", "", ""]
                assert set(rec) == {"kind", "j", "mass"}

        if mode == "both":
            errors = [r for r in records if "abs_error" in r]
            assert len(records) == len(laws) + len(errors)
            # an order is 1e{o} in markdown, o in CSV and JSON; none is 0, None and null
            md_errors = [
                [int(j), e, None if o == "0" else int(o.removeprefix("1e"))]
                for j, e, o in md_tables[-1][1]
            ]
            header, csv_errors = csv_tables[-1]
            assert header == ["error_j", "abs_error", "order"]
            assert [
                [int(j), e, None if o == "None" else int(o)] for j, e, o in csv_errors
            ] == md_errors
            assert [[r["j"], r["abs_error"], r["order"]] for r in errors] == md_errors
            assert len(md_errors) == level + 1
        else:
            assert records == laws


class TestVerify:
    def test_default_set_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--levels", "3")
        assert code == 0
        assert out.strip().endswith("verification PASSED")
        for sym in ("{4,5}", "{5,4}", "{4,6}", "{6,4}", "{5,5}", "{4,4}"):
            assert f"ok   {sym} layer-sizes" in out

    def test_custom_symbols(self, capsys):
        code, out, _ = run(capsys, "verify", "--levels", "5", "--symbols", "4:7,7:4")
        assert code == 0
        assert "{4,7}" in out and "{7,4}" in out
        assert "FAIL" not in out

    def test_corruption_fails_loudly(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--levels", "3", "--symbols", "4:5", "--inject-corruption"
        )
        assert code == 1
        assert "FAIL {4,5} histogram" in out
        assert out.strip().endswith("verification FAILED")

    def test_refused_symbol_builds_no_mosaic(self, capsys, monkeypatch):
        built = []
        real_build = mosaic_mod.build
        monkeypatch.setattr(
            mosaic_mod, "build", lambda s, *a, **k: built.append(s) or real_build(s, *a, **k)
        )
        code, out, _ = run(capsys, "verify", "--levels", "2", "--symbols", "7:3,4:5,3:7")
        assert code == 1
        assert built == [SchlafliSymbol(4, 5)]
        lines = out.splitlines()
        assert lines[0].startswith("FAIL {7,3}: with q = 3 ")
        assert lines[-2].startswith("FAIL {3,7}: with p = 3 ")
        assert "allow_triangles" not in out and out.count("{3,7}") == 1
        assert lines[-1] == "verification FAILED"

    def test_arithmetic_error_of_one_symbol_is_a_fail_line(self, capsys, monkeypatch):
        # an exact route's self-check that fails for {5,4} fails that symbol
        # alone: the symbols before and after it are still checked and printed
        real = verify_mod.spectral_constants

        def planted(symbol):
            if symbol == SchlafliSymbol(5, 4):
                raise ArithmeticError("planted self-check failure")
            return real(symbol)

        monkeypatch.setattr(verify_mod, "spectral_constants", planted)
        code, out, _ = run(capsys, "verify", "--levels", "2", "--symbols", "4:5,5:4,4:6")
        assert code == 1
        *checks, last = out.splitlines()
        assert [line for line in checks if "FAIL" in line] == [
            "FAIL {5,4}: planted self-check failure"
        ]
        assert [line.split(":")[0] for line in checks if "{5,4}" not in line] == [
            f"ok   {{{s}}} {name}"
            for s in ("4,5", "4,6")
            for name in ("layer-sizes", "forest-counts", "closed-form", "histogram")
        ]
        assert last == "verification FAILED"

    def test_bad_symbol_list_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--symbols", "banana"])
        assert exc.value.code == 2


class TestExport:
    def test_forest_dot_golden(self, capsys, tmp_path):
        target = tmp_path / "forest.dot"
        code, _, _ = run(
            capsys,
            "export", "--what", "forest", "--p", "4", "--q", "5",
            "--levels", "3", "--out", str(target),
        )
        assert code == 0
        assert target.read_text() == (GOLDEN / "forest_4_5_L3.dot").read_text()

    def test_spanning_edges(self, capsys):
        code, out, _ = run(
            capsys, "export", "--what", "spanning", "--p", "4", "--q", "5", "--levels", "2"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# spanning-tree p=4 q=5 levels=2")
        assert len(lines) - 1 == 50  # |V| - 1 edges for 51 vertices
        assert sum(1 for ln in lines if ln.endswith("connector")) == 20  # b_1 + b_2

    def test_mosaic_edges(self, capsys):
        code, out, _ = run(
            capsys, "export", "--what", "mosaic-edges", "--p", "4", "--q", "5", "--levels", "2"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "# p=4 q=5 belts=2 vertices=51"
        assert len(lines) - 1 == 80

    @pytest.mark.parametrize("p,levels", [(7, 3), (10, 2)])
    @pytest.mark.parametrize("what", ["forest", "spanning"])
    def test_q3_forest_exports_refused_before_the_build(self, capsys, what, p, levels):
        # a cap of 10 trips in belt 1, so only a refusal made before the build reads as grow's
        argv = ("--p", str(p), "--q", "3", "--levels", str(levels), "--cap", "10")
        code, out, err = run(capsys, "export", "--what", what, *argv)
        assert (code, out) == (2, "")
        assert err == (
            f"error: {{{p},3}}: with q = 3 a level vertex has at most one edge toward "
            "the next level, so no tree branches; there are no trees to grow\n"
        )
        code, _, err = run(capsys, "export", "--what", "mosaic-edges", *argv)
        assert (code, err) == (2, "error: vertex cap 10 exceeded while building belt 1\n")


class TestConfig:
    def test_determinism_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "probs", "--p", "4", "--q", "5", "--levels", "10", "--mode", "both")
        _, out2, _ = run(capsys, "probs", "--p", "4", "--q", "5", "--levels", "10", "--mode", "both")
        assert out1 == out2

    def test_cap_flag(self, capsys):
        code, _, err = run(
            capsys, "export", "--what", "mosaic-edges",
            "--p", "4", "--q", "5", "--levels", "6", "--cap", "100",
        )
        assert code == 2
        assert "cap" in err

    def test_cap_names_the_belt_it_trips_in(self, capsys):
        # {4,5} at 3 belts has 201 vertices, the last of them made in belt 3
        argv = ("export", "--what", "mosaic-edges", "--p", "4", "--q", "5", "--levels", "3")
        code, out, err = run(capsys, *argv, "--cap", "200")
        assert (code, out, err) == (2, "", "error: vertex cap 200 exceeded while building belt 3\n")
        code, out, _ = run(capsys, *argv, "--cap", "201")
        assert code == 0 and out.startswith("# p=4 q=5 belts=3 vertices=201\n")

    def test_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("MOSAICFOREST_CAP", "100")
        code, _, err = run(
            capsys, "export", "--what", "mosaic-edges", "--p", "4", "--q", "5", "--levels", "6"
        )
        assert code == 2
        assert "cap 100" in err

    def test_bad_precision(self, capsys):
        code, _, err = run(capsys, "constants", "--p", "4", "--q", "5", "--precision", "0")
        assert code == 2

    def test_usage_error_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestRejectedInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["counts", "--p", "4", "--q", "5", "--precision", "10"],
            ["probs", "--p", "4", "--q", "5", "--precision", "10"],
            ["verify", "--precision", "10"],
            ["export", "--what", "forest", "--p", "4", "--q", "5", "--precision", "10"],
            ["counts", "--p", "4", "--q", "5", "--cap", "100"],
            ["constants", "--p", "4", "--q", "5", "--cap", "100"],
            ["probs", "--p", "4", "--q", "5", "--cap", "100"],
            ["constants", "--p", "4", "--q", "5", "--levels", "3"],
            ["verify", "--format", "csv"],
            ["export", "--what", "forest", "--p", "4", "--q", "5", "--format", "csv"],
        ],
        ids=lambda argv: f"{argv[0]}-{argv[-2]}",
    )
    def test_option_the_command_does_not_use(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["abc", "0"])
    def test_cap_env_not_a_positive_integer(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("MOSAICFOREST_CAP", raw)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--levels", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and repr(raw) in err and "MOSAICFOREST_CAP" in err

    def test_cap_flag_negative(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["export", "--what", "forest", "--p", "4", "--q", "5", "--cap", "-5"])
        assert exc.value.code == 2
        assert "vertex cap must be an integer >= 1, got '-5'" in capsys.readouterr().err

    def test_verify_cap_zero_is_usage_error_not_failure(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--levels", "2", "--symbols", "4:5", "--cap", "0"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    def test_huge_p_is_refused_quickly(self, capsys):
        # the radicand of a p near 10**12 is too slow to factor; the bound
        # refuses it before any arithmetic starts
        start = time.perf_counter()
        code, out, err = run(
            capsys, "probs", "--p", "1000000000065", "--q", "4", "--levels", "2",
            "--mode", "asymptotic",
        )
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == f"error: p and q must be <= {MAX_PQ}, got {{1000000000065,4}}\n"

    def test_q_above_the_bound(self, capsys):
        code, _, err = run(capsys, "counts", "--p", "4", "--q", str(MAX_PQ + 1))
        assert code == 2
        assert err.startswith(f"error: p and q must be <= {MAX_PQ}")

    def test_symbols_entry_above_the_bound(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--levels", "1", "--symbols", f"4:5,{MAX_PQ + 1}:4"])
        assert exc.value.code == 2
        assert f"p and q must be <= {MAX_PQ}" in capsys.readouterr().err

    def test_symbol_at_the_bound(self, capsys):
        code, out, _ = run(
            capsys, "constants", "--p", str(MAX_PQ), "--q", str(MAX_PQ), "--format", "csv"
        )
        assert code == 0
        assert out.startswith("name,exact,decimal\n")

    def test_out_in_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.txt"
        code, out, err = run(capsys, "counts", "--p", "4", "--q", "5", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {target}:")
        assert "Traceback" not in err

    def test_failed_write_leaves_no_temporary_file(self, capsys, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        code, _, err = run(capsys, "counts", "--p", "4", "--q", "5", "--out", str(target))
        assert code == 2
        assert err.startswith("error:")
        assert list(tmp_path.iterdir()) == [target]
        assert list(target.iterdir()) == []


class TestDigitLimit:
    """Python refuses to print an int of more than 4300 digits; the CLI says why."""

    def test_precision_bound(self, capsys):
        code, _, _ = run(capsys, "constants", "--p", "4", "--q", "5", "--precision", "4300")
        assert code == 0
        code, out, err = run(capsys, "constants", "--p", "4", "--q", "5", "--precision", "4301")
        assert (code, out) == (2, "")
        assert err == "error: precision must be <= 4300, got 4301\n"

    def test_counts_at_the_last_printable_level(self, capsys, tmp_path):
        target = tmp_path / "counts.txt"
        argv = ("counts", "--p", "4", "--q", "5", "--out", str(target))
        code, _, err = run(capsys, *argv, "--levels", "7517")
        assert (code, err) == (0, "")
        assert target.read_text().endswith(" |\n")
        code, out, err = run(capsys, *argv, "--levels", "7518")
        assert (code, out) == (2, "")
        assert err == (
            "error: level 7518 of {4,5} has counts of more than 4300 digits; lower --levels\n"
        )

    @staticmethod
    def assert_refused_under_1gb(argv, err):
        # with every row built first, the command dies of a MemoryError under
        # this 1 GB address-space limit
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (10**9, 10**9))

        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        done = subprocess.run(
            [sys.executable, "-m", "mosaicforest", *argv],
            env={**os.environ, "PYTHONPATH": path},
            preexec_fn=limit_memory,
            capture_output=True,
            text=True,
            timeout=60,
        )
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith(f"error: {err}")
        assert cpu < 1

    @pytest.mark.parametrize(
        "q,levels,err",
        [
            ("5", "300000", "level 300000 of {4,5} has counts of more than 4300 digits"),
            ("4", "50000000", f"levels must be <= {MAX_EUCLIDEAN_LEVELS} for {{4,4}}"),
        ],
    )
    def test_counts_refused_before_rows_are_built(self, q, levels, err):
        argv = ["counts", "--p", "4", "--q", q, "--levels", levels]
        self.assert_refused_under_1gb(argv, err)

    @pytest.mark.parametrize("mode", ["asymptotic", "exact"])
    def test_probs_refused_before_rows_are_built(self, mode):
        argv = ["probs", "--p", "4", "--q", "5", "--levels", "300000", "--mode", mode]
        err = "level 300000 of {4,5} has counts of more than 4300 digits"
        self.assert_refused_under_1gb(argv, err)

    @pytest.mark.parametrize("fmt", ["markdown", "csv", "jsonl"])
    @pytest.mark.parametrize("mode", ["asymptotic", "exact", "both"])
    def test_probs_exact_integers_refused(self, capsys, fmt, mode):
        code, out, err = run(
            capsys, "probs", "--p", "4", "--q", "5", "--levels", "7600",
            "--mode", mode, "--format", fmt,
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: level 7600 of {4,5} has counts of more than 4300 digits")

    def test_probs_markdown_prints_no_integers(self, capsys):
        # markdown shows only 6-digit decimals, but one bound serves every format
        code, out, err = run(
            capsys, "probs", "--p", "4", "--q", "5", "--levels", "7518", "--mode", "exact"
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: level 7518 of {4,5} has counts of more than 4300 digits; lower --levels\n"
        )


def _mostly(good: st.SearchStrategy, bad: st.SearchStrategy) -> st.SearchStrategy:
    """Mostly `good`, now and then `bad`."""
    return st.integers(0, 7).flatmap(lambda k: bad if k == 7 else good)


PQ = st.one_of(st.integers(4, 8), st.integers(-3, MAX_PQ + 1)).map(str)
PQ_TEXT = _mostly(PQ, st.sampled_from(["x", "", "4.5", "1e3"]))
SYMBOLS = _mostly(
    st.lists(st.builds("{}:{}".format, PQ, PQ), min_size=1, max_size=3).map(",".join),
    st.sampled_from([",", "", "4:5:6", "a:b", "4:5, 5 : 4", "4"]),
)
OWN_OPTIONS = {
    "counts": ("--p", "--q", "--levels", "--format", "--out"),
    "constants": ("--p", "--q", "--precision", "--format", "--out"),
    "probs": ("--p", "--q", "--levels", "--mode", "--format", "--out"),
    "verify": ("--symbols", "--levels", "--cap", "--out"),
    "export": ("--what", "--p", "--q", "--levels", "--cap", "--out"),
}


@st.composite
def cli_argv(draw, out_dir: Path) -> list[str]:
    """A command line over every subcommand and option, with good values and bad."""
    values = {
        "--p": PQ_TEXT,
        "--q": PQ_TEXT,
        # legal deep levels are slow; 7518 and 100001 are refused before any work
        "--levels": _mostly(
            st.one_of(st.integers(1, 6), st.integers(1, 60)).map(str),
            st.sampled_from(["-2", "0", "7518", "100001", "x"]),
        ),
        "--precision": _mostly(st.integers(1, 4300).map(str), st.sampled_from(["0", "4301", "x"])),
        "--format": _mostly(st.sampled_from(["markdown", "csv", "jsonl"]), st.just("xml")),
        "--mode": _mostly(st.sampled_from(["asymptotic", "exact", "both"]), st.just("fast")),
        "--what": _mostly(st.sampled_from(["forest", "spanning", "mosaic-edges"]), st.just("png")),
        # every build stays within 3000 vertices
        "--cap": _mostly(st.integers(1, 3000).map(str), st.sampled_from(["-1", "0", "x"])),
        "--symbols": SYMBOLS,
        "--out": _mostly(
            st.sampled_from(["-", str(out_dir / "out.txt")]),
            st.just(str(out_dir / "missing" / "out.txt")),
        ),
    }
    command = draw(_mostly(st.sampled_from(list(OWN_OPTIONS)), st.just("plot")))
    own = OWN_OPTIONS.get(command, ())
    names = [n for n in own if n == "--cap" or draw(st.integers(0, 9)) != 9]
    if draw(st.integers(0, 7)) == 7:  # an option the command may not take
        names.append(draw(st.sampled_from(sorted(values))))
    argv = [command]
    for name in draw(st.permutations(names)):
        argv += [name, draw(values[name])]
    if command == "verify" and draw(st.booleans()):
        argv.append("--inject-corruption")
    return argv


class TestFuzz:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_any_command_line_exits_cleanly(self, tmp_path_factory, data):
        argv = data.draw(cli_argv(tmp_path_factory.getbasetemp()))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        assert code in (0, 1, 2), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()
