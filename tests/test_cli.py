"""Command-line surface: formats, exit codes, reports."""

import argparse
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import fullshift.cli as cli
from fullshift.cli import COMMANDS, CONSTRUCTIONS, SYMBOL_LIMIT, run
from fullshift.constructions import MASK_BIT_LIMIT, search_tables, witness_search
from fullshift.errors import ImagesDontCover
from fullshift.sft import (
    CYLINDER_LIMIT,
    cylinder,
    empty_set,
    format_clopen_text,
    format_matrix_text,
    full_space,
    parse_matrix_text,
)
from fullshift.tables import TableMap, format_table_text, parse_table_text, validate_table

from helpers import POOL, FULL2, FULL3, FULL4, GOLDEN, cylinder_swap, long_cycle, random_clopen


@pytest.fixture
def files(tmp_path):
    paths = {}

    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
        return str(p)

    write("full2.mat", format_matrix_text(FULL2))
    write("full3.mat", format_matrix_text(FULL3))
    write("full4.mat", format_matrix_text(FULL4))
    write("golden.mat", format_matrix_text(GOLDEN))
    write("perm.mat", "2\n0 1\n1 0\n")
    write("u1.clo", "D 1\n1\n")
    write("u2.clo", "D 1\n2\n")
    write("u11.clo", "D 2\n1,1\n")
    swap = validate_table(FULL2, {(1,): (2,), (2,): (1,)})
    write("swap.tbl", format_table_text(swap))
    paths["tmp"] = str(tmp_path)
    return paths


def test_validate_matrix(files, capsys):
    assert run(["validate-matrix", files["full2.mat"]]) == 0
    out = capsys.readouterr().out
    assert "RESULT: valid" in out
    assert run(["validate-matrix", files["perm.mat"]]) == 1
    out = capsys.readouterr().out
    assert "ConditionIFails" in out


def test_usage_error_exit_code():
    assert run(["no-such-command"]) == 2
    assert run([]) == 2


def test_words(files, capsys):
    assert run(["words", files["golden.mat"], "2"]) == 0
    out = capsys.readouterr().out
    assert "COUNT: 3" in out
    # 2^40 words would be listed one by one; the count is refused up front
    start = time.perf_counter()
    assert run(["words", files["full2.mat"], "40"]) == 1
    assert time.perf_counter() - start < 2.0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == (
        f"ERROR: BadInput: more than {CYLINDER_LIMIT} words of length 40"
    )
    assert run(["words", files["full2.mat"], "-1"]) == 1
    assert "ERROR: BadInput: word length must be non-negative" in capsys.readouterr().out


@pytest.mark.parametrize("length", ["20000", "1000000"])
def test_words_refuses_huge_lengths_at_once(files, capsys, length):
    # the count stops at the first length past the limit: no big integer is
    # formatted and no count table of a million rows is built
    start = time.perf_counter()
    assert run(["words", files["full2.mat"], length]) == 1
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"ERROR: BadInput: more than {CYLINDER_LIMIT} words of length {length}"
    )


def test_clopen_complement_refuses_huge_depth_at_once(files, tmp_path, capsys):
    clopen = tmp_path / "deep.clo"
    clopen.write_text("D 40\n" + ",".join(["1"] * 40) + "\n")
    start = time.perf_counter()
    assert run(["clopen", files["full2.mat"], "complement", str(clopen)]) == 1
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"ERROR: BadInput: the clopen set at depth 40 spans more than {CYLINDER_LIMIT} cylinders"
    )


def test_words_bounds_total_symbols(tmp_path, capsys):
    matrix = tmp_path / "cycle65.mat"
    matrix.write_text(format_matrix_text(long_cycle(65)))
    assert run(["words", str(matrix), "32"]) == 0
    assert f"COUNT: {len(long_cycle(65).words(32))}" in capsys.readouterr().out
    # 995,345 words of 193 symbols: under the count limit, but refused up front
    start = time.perf_counter()
    assert run(["words", str(matrix), "193"]) == 1
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"ERROR: BadInput: 995345 words of length 193 hold more than {SYMBOL_LIMIT} symbols"
    )


def test_decide_iso_full_shifts(files, tmp_path, capsys):
    assert run(["decide-iso", files["full3.mat"], files["full4.mat"]]) == 0
    out = capsys.readouterr().out
    assert "VERDICT: NOT_ISOMORPHIC" in out
    assert run(["decide-iso", files["full2.mat"], files["golden.mat"]]) == 0
    out = capsys.readouterr().out
    assert "VERDICT: ISOMORPHIC" in out
    # DET-A and DET-B are det(I - A): sizes 3 and 4, -1 against +1
    a = tmp_path / "a.mat"
    a.write_text("3\n0 0 1\n0 0 1\n1 1 0\n")
    b = tmp_path / "b.mat"
    b.write_text("4\n0 0 0 1\n0 0 1 1\n0 1 1 0\n1 1 0 1\n")
    assert run(["decide-iso", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "DET-A: -1" in out and "DET-B: 1" in out
    assert "VERDICT: NOT_ISOMORPHIC" in out


def test_compose_identity(files, tmp_path, capsys):
    out_path = str(tmp_path / "out.tbl")
    code = run(["compose", files["full2.mat"], files["swap.tbl"], files["swap.tbl"], "-o", out_path])
    assert code == 0
    assert (tmp_path / "out.tbl").read_text() == "L 0\nEMPTY -> EMPTY\n"


def test_construct_involution(files, tmp_path, capsys):
    out_path = str(tmp_path / "alpha.tbl")
    code = run(
        [
            "construct",
            "2.1",
            files["full2.mat"],
            "--U",
            files["u1.clo"],
            "--Y",
            files["u2.clo"],
            "--x",
            "|1",
            "-o",
            out_path,
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 5 and "FAIL" not in out
    # emitted table re-parses and re-validates
    assert run(["table-validate", files["full2.mat"], out_path]) == 0


def test_construct_free_pair(files, tmp_path, capsys):
    stem = str(tmp_path / "fp")
    code = run(["construct", "2.4", files["full2.mat"], "--O", files["u1.clo"], "-o", stem])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert run(["order", files["full2.mat"], f"{stem}.phi.tbl", "--bound", "4"]) == 0
    out = capsys.readouterr().out
    assert "ORDER: 3" in out


def test_construct_free_pair_refuses_a_huge_table_file_at_once(files, tmp_path, capsys):
    # psi and phi have 37 and 43 code words, but their L files would have
    # 3^18 and 10,460,353,203 lines
    region = tmp_path / "deep.clo"
    region.write_text("D 14\n1,2," + ",".join(["3"] * 12) + "\n")
    stem = str(tmp_path / "fp")
    start = time.perf_counter()
    assert run(["construct", "2.4", files["full3.mat"], "--O", str(region), "-o", stem]) == 1
    assert time.perf_counter() - start < 2.0
    assert (
        f"ERROR: BadInput: the table at depth 18 spans more than {CYLINDER_LIMIT} cylinders"
        in capsys.readouterr().out.splitlines()
    )
    assert not list(tmp_path.glob("fp*"))


def test_clopen_ops_and_roundtrip(files, tmp_path, capsys):
    out_path = str(tmp_path / "c.clo")
    assert run(["clopen", files["full2.mat"], "complement", files["u1.clo"], "-o", out_path]) == 0
    assert (tmp_path / "c.clo").read_text() == "D 1\n2\n"
    assert run(["clopen", files["full2.mat"], "compare", files["u11.clo"], files["u1.clo"]]) == 0
    assert "RELATION: subset" in capsys.readouterr().out


def test_support_and_verify(files, capsys, tmp_path):
    worked = validate_table(
        FULL2, {(1, 1): (1, 1, 1), (1, 2): (1, 1, 2), (2, 1): (1, 2), (2, 2): (2,)}
    )
    path = tmp_path / "worked.tbl"
    path.write_text(format_table_text(worked))
    assert run(["verify", files["full2.mat"], str(path)]) == 0
    out = capsys.readouterr().out
    assert "SUPPORT: FULL" in out
    assert "FIXED-POINT: |1" in out
    assert "FIXED-POINT: |2" in out
    assert "COCYCLE: 1,1 k=3 l=2" in out


def test_split_and_local_member(files, tmp_path, capsys):
    inner = cylinder_swap(FULL2, (1, 1), (1, 2))
    path = tmp_path / "inner.tbl"
    path.write_text(format_table_text(inner))
    assert run(["local-member", files["full2.mat"], str(path), files["u1.clo"]]) == 0
    assert "MEMBER: True" in capsys.readouterr().out
    a = str(tmp_path / "in.tbl")
    b = str(tmp_path / "out.tbl")
    code = run(
        ["split", files["full2.mat"], str(path), files["u1.clo"], "--out-inside", a, "--out-outside", b]
    )
    assert code == 0
    assert "FAIL" not in capsys.readouterr().out


def test_witness_search_cli(files, tmp_path, capsys):
    out_path = str(tmp_path / "w.tbl")
    code = run(
        [
            "witness-search",
            files["full2.mat"],
            "--depth-bound",
            "1",
            "--image-bound",
            "1",
            "--maps-onto",
            files["u1.clo"],
            files["u2.clo"],
            "-o",
            out_path,
        ]
    )
    assert code == 0
    assert "RESULT: FOUND" in capsys.readouterr().out
    assert run(["table-validate", files["full2.mat"], out_path]) == 0


def test_witness_search_maps_onto_matches_the_predicate_search(tmp_path, capsys):
    # --maps-onto prunes images with the exact filter; the first hit or
    # exhaust and the written file are those of the search that tests
    # image_clopen on every complete table
    rng = random.Random(61)
    moves = {m: [t for t in search_tables(m, 2, 2) if not t.is_identity] for m in POOL}
    seen = set()
    for case in range(300):
        matrix = rng.choice(POOL)
        sets = [empty_set(matrix), full_space(matrix)] + [
            random_clopen(rng, matrix, max_depth=rng.choice([1, 2, 3])) for _ in range(3)
        ]
        g = rng.choice(moves[matrix])
        u = rng.choice(sets)
        v = rng.choice([u, g.image_clopen(u), g.image_clopen(u), rng.choice(sets)])
        region = rng.choice([g.support(), rng.choice(sets)]) if case % 2 else None
        order = rng.choice([1, 2, 3, g.order(6) or 2]) if case // 2 % 2 else None
        bounds = [(1, 1), (1, 2), (2, 2), (2, 2)] + [(2, 3)] * (matrix.n == 2)
        depth, image = rng.choice(bounds)
        paths = {}
        for name, clopen in (("u", u), ("v", v), ("o", region)):
            paths[name] = tmp_path / f"{case}{name}.clo"
            if clopen is not None:
                paths[name].write_text(format_clopen_text(clopen))
        mat = tmp_path / f"{case}.mat"
        mat.write_text(format_matrix_text(matrix))
        out = tmp_path / f"{case}.tbl"
        argv = ["witness-search", str(mat), "--depth-bound", str(depth), "--image-bound",
                str(image), "--maps-onto", str(paths["u"]), str(paths["v"]), "-o", str(out)]
        if region is not None:
            argv += ["--support-in", str(paths["o"])]
        if order is not None:
            argv += ["--order", str(order)]
        assert run(argv) == 0
        report = capsys.readouterr().out

        def predicate(t):
            return (
                t.image_clopen(u) == v
                and (region is None or t.support().is_subset_of(region))
                and (order is None or t.order(max(order, 2)) == order)
            )

        want = witness_search(matrix, predicate, depth, image)
        if want is None:
            assert "RESULT: EXHAUSTED" in report and not out.exists(), argv
        else:
            assert f"RESULT: FOUND\nDEPTH: {want.depth}\n" in report, argv
            assert out.read_text() == format_table_text(want), argv
        seen.add((want is not None, u == v, region is not None, order is not None))
        seen |= {"empty" for c in (u, v) if c.is_empty} | {"full" for c in (u, v) if c.is_full}
    # found or not, u == v, --support-in, --order
    assert seen >= {
        (True, False, False, False), (False, False, False, False),
        (True, False, True, False), (False, False, True, False),
        (True, False, False, True), (False, False, False, True),
        (True, False, True, True), (False, False, True, True),
        (True, True, False, False), (False, True, False, True),
        "empty", "full",
    }


def test_witness_search_maps_onto_takes_no_image(files, tmp_path, capsys, monkeypatch):
    # the far pair [1] -> [2 1] u [1 1 1] exhausts FULL2 at bounds 3/3;
    # the predicate search took the image of [1] under 40,443 tables
    image_clopen = TableMap.image_clopen
    calls = 0

    def counting(self, clopen):
        nonlocal calls
        calls += 1
        return image_clopen(self, clopen)

    monkeypatch.setattr(TableMap, "image_clopen", counting)
    far = tmp_path / "far.clo"
    far.write_text(format_clopen_text(cylinder(FULL2, (2, 1)).union(cylinder(FULL2, (1, 1, 1)))))
    for target, result in ((far, "EXHAUSTED"), (files["u2.clo"], "FOUND")):
        code = run([
            "witness-search", files["full2.mat"], "--depth-bound", "3", "--image-bound", "3",
            "--maps-onto", files["u1.clo"], str(target),
        ])
        assert code == 0
        assert f"RESULT: {result}" in capsys.readouterr().out
    assert calls == 0


def test_gamma_equiv_cli(files, tmp_path, capsys):
    out_path = str(tmp_path / "wit.tbl")
    u11 = tmp_path / "u11f3.clo"
    u11.write_text("D 2\n1,1\n")
    code = run(["gamma-equiv", files["full3.mat"], files["u1.clo"], str(u11), "-o", out_path])
    assert code == 0
    out = capsys.readouterr().out
    assert "STATUS: equivalent" in out
    assert "witness carries U onto V: PASS" in out


def test_gamma_equiv_rejects_bounds_below_one(files, tmp_path, capsys):
    u11 = tmp_path / "u11f3.clo"
    u11.write_text("D 2\n1,1\n")
    for depth, image in (("0", "1"), ("1", "0")):
        code = run([
            "gamma-equiv", files["full3.mat"], files["u1.clo"], str(u11),
            "--depth-bound", depth, "--image-bound", image,
        ])
        assert code == 1
        assert "ERROR: BadInput: search bounds must be at least 1" in capsys.readouterr().out
    # the check comes before the early answers for equal or empty sets
    code = run([
        "gamma-equiv", files["full3.mat"], files["u1.clo"], files["u1.clo"],
        "--depth-bound", "0",
    ])
    assert code == 1
    assert "ERROR: BadInput" in capsys.readouterr().out


def test_witness_search_rejects_order_below_one(files, capsys):
    for order in ("0", "-3"):
        code = run([
            "witness-search", files["full2.mat"], "--depth-bound", "1",
            "--image-bound", "1", "--order", order,
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "ERROR: BadInput: --order must be at least 1" in out
        assert "RESULT" not in out


def test_witness_search_refuses_huge_image_bound(files, capsys):
    start = time.perf_counter()
    code = run([
        "witness-search", files["full2.mat"], "--depth-bound", "1",
        "--image-bound", "20000", "--order", "2",
    ])
    assert code == 1
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"ERROR: BadInput: image bound 20000 spans more than {CYLINDER_LIMIT} cylinders; "
        "search bookkeeping would not fit"
    )


def test_json_reports(files, capsys):
    assert run(["--json", "bf", files["full3.mat"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["GROUP"] == "Z/2"
    assert doc["report"]["DET"] == "-2"
    assert run(["bf", files["full3.mat"], "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["UNIT-ORDER"] == "2"


def test_bad_table_diagnosis(files, tmp_path, capsys):
    path = tmp_path / "bad.tbl"
    path.write_text("L 1\n1 -> 2\n2 -> 1\n")
    assert run(["table-validate", files["golden.mat"], str(path)]) == 1
    assert "RowMismatch" in capsys.readouterr().out
    # both entries break the row rule; the images are checked in file
    # order, so the first line of the file is named, not the least word
    path.write_text("L 1\n2 -> 1\n1 -> 2\n")
    assert run(["table-validate", files["golden.mat"], str(path)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "ERROR: RowMismatch: entry 2 -> 1: row of 1 differs from row of 2"
    )


def test_construct_missing_argument(files, capsys):
    assert run(["construct", "2.1", files["full2.mat"]]) == 1
    assert "needs --U" in capsys.readouterr().out


def test_malformed_inputs_never_traceback(files, tmp_path, capsys):
    bad = tmp_path / "garbage.mat"
    bad.write_text("not a matrix\nat all\n")
    assert run(["validate-matrix", str(bad)]) == 1
    assert "ERROR" in capsys.readouterr().out
    missing = str(tmp_path / "does-not-exist.mat")
    assert run(["bf", missing]) == 1
    capsys.readouterr()
    bad_clo = tmp_path / "bad.clo"
    bad_clo.write_text("D two\n1\n")
    assert run(["clopen", files["full2.mat"], "canon", str(bad_clo)]) == 1
    assert "ERROR" in capsys.readouterr().out


def test_construct_outputs_deterministic(files, tmp_path, capsys):
    paths = []
    for name in ("a1.tbl", "a2.tbl"):
        out = str(tmp_path / name)
        assert (
            run(
                [
                    "construct", "2.1", files["full2.mat"],
                    "--U", files["u1.clo"], "--Y", files["u2.clo"],
                    "--x", "|1", "-o", out,
                ]
            )
            == 0
        )
        capsys.readouterr()
        paths.append(out)
    first, second = (open(p).read() for p in paths)
    assert first == second


def test_construct_rejects_inadmissible_point(files, tmp_path, capsys):
    code = run(
        [
            "construct", "2.1", files["golden.mat"],
            "--U", files["u2.clo"], "--Y", files["u1.clo"],
            "--x", "|2",
        ]
    )
    assert code == 1
    assert "not admissible" in capsys.readouterr().out


def test_repeated_table_line_rejected(files, tmp_path, capsys):
    path = tmp_path / "twice.tbl"
    path.write_text("L 1\n1 -> 2\n1 -> 1\n2 -> 2\n")
    assert run(["table-validate", files["full2.mat"], str(path)]) == 1
    out = capsys.readouterr().out
    assert "ERROR: BadInput" in out
    assert "domain word 1 appears twice" in out


def test_construct_bad_point_is_diagnosed(files, capsys):
    code = run(
        [
            "construct", "2.1", files["full2.mat"],
            "--U", files["u1.clo"], "--Y", files["u2.clo"],
            "--x", "a|1",
        ]
    )
    assert code == 1
    assert "ERROR: BadInput: bad point 'a|1'" in capsys.readouterr().out


def test_json_repeated_keys_become_lists(files, capsys):
    assert run(["words", files["full2.mat"], "3"]) == 0
    text = capsys.readouterr().out
    assert run(["--json", "words", files["full2.mat"], "3"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    words = [ln.split(": ", 1)[1] for ln in text.splitlines() if ln.startswith("WORD: ")]
    assert len(words) == 8
    assert report["WORD"] == words
    assert report["COUNT"] == "8"
    assert report["COMMAND"] == "words"


def test_construct_transports_on_a_long_cycle(files, tmp_path, capsys):
    # below cylinder 3 the first two disjoint cylinders lie at depth 65, one
    # level past a fixed cap of 64
    matrix = tmp_path / "cycle65.mat"
    matrix.write_text(format_matrix_text(long_cycle(65)))
    w = tmp_path / "w3.clo"
    w.write_text("D 1\n3\n")
    out = str(tmp_path / "t.tbl")
    for cid, flag in (("4.3", "--W"), ("4.10", "--V")):
        argv = ["construct", cid, str(matrix), "--U", files["u1.clo"], flag, str(w), "-o", out]
        code = run(argv)
        report = capsys.readouterr().out
        assert code == 0, report
        assert "CHECK" in report and "FAIL" not in report and "ERROR" not in report


def test_clopen_union_past_the_recursion_limit(tmp_path, capsys):
    # padding 1,2 to depth 1101 once ended in a RecursionError traceback
    matrix = tmp_path / "cycle1100.mat"
    matrix.write_text(format_matrix_text(long_cycle(1100)))
    short = tmp_path / "a.clo"
    short.write_text("D 2\n1,2\n")
    deep = tmp_path / "b.clo"
    deep.write_text("D 1101\n" + ",".join(map(str, [*range(2, 1101), 1, 1])) + "\n")
    start = time.perf_counter()
    code = run(["clopen", str(matrix), "union", str(short), str(deep)])
    assert time.perf_counter() - start < 2.0
    out = capsys.readouterr().out
    assert code == 0, out[-300:]
    assert "RESULT: depth 1101:" in out


def test_long_image_is_diagnosed(files, tmp_path, capsys):
    path = tmp_path / "long.tbl"
    path.write_text("L 1\n1 -> " + ",".join(["1"] * 1200) + "\n2 -> 2\n")
    assert run(["table-validate", files["full2.mat"], str(path)]) == 1
    assert "ERROR: ImagesDontCover: images miss cylinder " + "1," * 1199 + "2\n" in (
        capsys.readouterr().out
    )


def test_very_long_image_is_diagnosed(files, tmp_path, capsys):
    path = tmp_path / "long.tbl"
    path.write_text("L 1\n1 -> " + ",".join(["1"] * 15000) + "\n2 -> 2\n")
    assert run(["table-validate", files["full2.mat"], str(path)]) == 1
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == "ERROR: ImagesDontCover: images miss cylinder " + "1," * 14999 + "2"


def test_long_image_cover_check_memory():
    # the sweep keeps no counts, so memory stays linear in the input
    text = "L 1\n1 -> " + ",".join(["1"] * 30000) + "\n2 -> 2\n"
    matrix = parse_matrix_text(format_matrix_text(FULL2))
    tracemalloc.start()
    try:
        with pytest.raises(ImagesDontCover):
            parse_table_text(matrix, text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


def test_non_utf8_input_is_diagnosed(files, tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe\n")
    assert run(["validate-matrix", str(bad)]) == 1
    assert f"ERROR: BadInput: {bad} is not UTF-8 text" in capsys.readouterr().out
    assert run(["table-validate", files["full2.mat"], str(bad)]) == 1
    assert "ERROR: BadInput" in capsys.readouterr().out


def test_readme_lists_every_command_and_construction():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    shown = set(re.findall(r"^fullshift ([a-z-]+)", section, re.MULTILINE))
    assert set(COMMANDS) <= shown, set(COMMANDS) - shown
    ids = section.split("Construction ids:", 1)[1].split("\n\n", 1)[0]
    listed = set(re.findall(r"`([0-9.]+)`", ids))
    assert set(CONSTRUCTIONS) <= listed, set(CONSTRUCTIONS) - listed


# argv with symbolic file names: M is FULL2 (2 x 2, so DET is the same
# under det(A - I) and det(I - A)), T a table, U a clopen set
SURFACE = (
    "-h",
    "",
    "no-such-command",
    "bf -h",
    "construct -h",
    "bf M extra",
    "words M x",
    "order M T --bound q",
    "--json bf M",
    "bf --json M",
    "--js bf M",
    "construct 9.9 M",
    "construct 2.1 M --U U --x |1",
)


def _surface_transcript(paths, capsys):
    parts = []
    for line in SURFACE:
        argv = [paths.get(token, token) for token in line.split()]
        code = run(argv)
        captured = capsys.readouterr()
        parts.append(f"$ fullshift {line}\n[exit {code}]\n{captured.out}[stderr]\n{captured.err}")
    return "".join(parts)


def test_cli_surface_is_pinned(files, capsys, monkeypatch):
    """Help, usage errors, --json placement and construct diagnoses, byte
    for byte: stdout, stderr and exit code of each call.  The second pass
    reuses the parsers of the first, after -h and usage errors exited."""
    monkeypatch.setenv("COLUMNS", "80")
    paths = {"M": files["full2.mat"], "T": files["swap.tbl"], "U": files["u1.clo"]}
    for _ in range(2):
        assert _surface_transcript(paths, capsys) == SURFACE_TEXT


def test_run_reuses_one_parser_per_command(files, capsys, monkeypatch):
    """After one call per command, help and usage error, further calls
    build no ArgumentParser, and every call is handed one of at most one
    parser per command plus the full one, through the module global."""
    m, t, u = files["full2.mat"], files["swap.tbl"], files["u1.clo"]
    calls = [[name, "-h"] for name in COMMANDS] + [[name] for name in COMMANDS] + [
        ["bf", m], ["--json", "inverse", m, t], ["clopen", m, "complement", u, "--json"],
        ["-h"], [], ["no-such-command"],
    ]
    build, handed = cli._build_parser, []

    def recording(name):
        handed.append(build(name))
        return handed[-1]

    monkeypatch.setattr(cli, "_build_parser", recording)
    warm = [run(argv) for argv in calls]
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert [run(argv) for argv in calls] == warm
    capsys.readouterr()
    assert built == []
    assert len(handed) == 2 * len(calls)
    assert len({id(parser) for parser in handed}) <= len(COMMANDS) + 1


def test_a_one_shot_call_builds_one_subparser():
    # a fresh process that runs one named command builds its top-level
    # parser and that command's subparser, not the other commands'
    code = (
        "import argparse, fullshift.cli as cli\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *a, **k):\n"
        "    built.append(k.get('prog'))\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "cli.run(['bf', '-h'])\n"
        "print(built)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "['fullshift', 'fullshift bf']"


SURFACE_TEXT = """\
$ fullshift -h
[exit 0]
usage: fullshift [-h] [--json]
                 {validate-matrix,words,clopen,table-validate,compose,inverse,reduce,order,support,cocycles,commutes,local-member,split,construct,witness-search,bf,decide-iso,clopen-class,gamma-equiv,verify}
                 ...

Exact computations in continuous full groups of one-sided Markov shifts.

positional arguments:
  {validate-matrix,words,clopen,table-validate,compose,inverse,reduce,order,support,cocycles,commutes,local-member,split,construct,witness-search,bf,decide-iso,clopen-class,gamma-equiv,verify}
    validate-matrix     validate a transition matrix file
    words               admissible words of a given length
    clopen              Boolean algebra of clopen sets
    table-validate      validate a table file
    compose             compose two tables (outer inner)
    inverse             invert a table
    reduce              canonical minimal-depth form of a table
    order               order of a table in the group, within a bound
    support             support and exact fixed-point set
    cocycles            orbit cocycle constants per cylinder
    commutes            whether two tables commute
    local-member        membership in the local subgroup of a clopen set
    split               factor a table over an invariant clopen set
    construct           run a witness construction and verify it
    witness-search      bounded exhaustive search for a table
    bf                  pointed cokernel invariant of a matrix
    decide-iso          compare the full groups of two matrices
    clopen-class        cokernel class of a clopen set
    gamma-equiv         decide equivalence of two clopen sets
    verify              revalidate a table and print its full profile

options:
  -h, --help            show this help message and exit
  --json                emit the report as JSON
[stderr]
$ fullshift 
[exit 2]
[stderr]
usage: fullshift [-h] [--json]
                 {validate-matrix,words,clopen,table-validate,compose,inverse,reduce,order,support,cocycles,commutes,local-member,split,construct,witness-search,bf,decide-iso,clopen-class,gamma-equiv,verify}
                 ...
fullshift: error: the following arguments are required: command
$ fullshift no-such-command
[exit 2]
[stderr]
usage: fullshift [-h] [--json]
                 {validate-matrix,words,clopen,table-validate,compose,inverse,reduce,order,support,cocycles,commutes,local-member,split,construct,witness-search,bf,decide-iso,clopen-class,gamma-equiv,verify}
                 ...
fullshift: error: argument command: invalid choice: 'no-such-command' (choose from 'validate-matrix', 'words', 'clopen', 'table-validate', 'compose', 'inverse', 'reduce', 'order', 'support', 'cocycles', 'commutes', 'local-member', 'split', 'construct', 'witness-search', 'bf', 'decide-iso', 'clopen-class', 'gamma-equiv', 'verify')
$ fullshift bf -h
[exit 0]
usage: fullshift bf [-h] [--json] matrix

positional arguments:
  matrix

options:
  -h, --help  show this help message and exit
  --json      emit the report as JSON
[stderr]
$ fullshift construct -h
[exit 0]
usage: fullshift construct [-h] [--json] [--U U] [--V V] [--Y Y] [--W W]
                           [--W2 W2] [--O O] [--x X] [--nu NU] [--eta ETA]
                           [--witness WITNESS] [-o OUT]
                           id matrix

positional arguments:
  id                 construction id: 2.1 2.2 2.4 3.11 4.1 4.3 4.4 4.10
  matrix

options:
  -h, --help         show this help message and exit
  --json             emit the report as JSON
  --U U              clopen set file
  --V V              clopen set file
  --Y Y              clopen set file
  --W W              clopen set file
  --W2 W2            clopen set file
  --O O              clopen set file
  --x X              point as pre|per
  --nu NU            word, comma separated
  --eta ETA          table file
  --witness WITNESS  table file carrying U onto V
  -o OUT, --out OUT  output path or prefix for witness tables
[stderr]
$ fullshift bf M extra
[exit 2]
[stderr]
usage: fullshift [-h] [--json]
                 {validate-matrix,words,clopen,table-validate,compose,inverse,reduce,order,support,cocycles,commutes,local-member,split,construct,witness-search,bf,decide-iso,clopen-class,gamma-equiv,verify}
                 ...
fullshift: error: unrecognized arguments: extra
$ fullshift words M x
[exit 2]
[stderr]
usage: fullshift words [-h] [--json] matrix length
fullshift words: error: argument length: invalid int value: 'x'
$ fullshift order M T --bound q
[exit 2]
[stderr]
usage: fullshift order [-h] [--json] [--bound BOUND] matrix table
fullshift order: error: argument --bound: invalid int value: 'q'
$ fullshift --json bf M
[exit 0]
{
  "artifacts": [],
  "checks": {},
  "report": {
    "COMMAND": "bf",
    "DET": "-1",
    "FREE-RANK": "0",
    "GROUP": "0",
    "INVARIANT-FACTORS": "none",
    "UNIT-CLASS": "0 0",
    "UNIT-ORDER": "1"
  }
}
[stderr]
$ fullshift bf --json M
[exit 0]
{
  "artifacts": [],
  "checks": {},
  "report": {
    "COMMAND": "bf",
    "DET": "-1",
    "FREE-RANK": "0",
    "GROUP": "0",
    "INVARIANT-FACTORS": "none",
    "UNIT-CLASS": "0 0",
    "UNIT-ORDER": "1"
  }
}
[stderr]
$ fullshift --js bf M
[exit 0]
{
  "artifacts": [],
  "checks": {},
  "report": {
    "COMMAND": "bf",
    "DET": "-1",
    "FREE-RANK": "0",
    "GROUP": "0",
    "INVARIANT-FACTORS": "none",
    "UNIT-CLASS": "0 0",
    "UNIT-ORDER": "1"
  }
}
[stderr]
$ fullshift construct 9.9 M
[exit 1]
COMMAND: construct
ERROR: FullShiftError: unknown construction id '9.9'
[stderr]
$ fullshift construct 2.1 M --U U --x |1
[exit 1]
COMMAND: construct
ERROR: FullShiftError: construction 2.1 needs --Y
[stderr]
"""


def test_witness_search_refuses_an_image_bound_past_the_mask_bound(files, capsys):
    # 2^18 leaves are within CYLINDER_LIMIT, but their masks are not
    start = time.perf_counter()
    code = run([
        "witness-search", files["full2.mat"], "--depth-bound", "1",
        "--image-bound", "18", "--order", "2",
    ])
    assert code == 1
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "ERROR: BadInput: image bound 18 needs about 68719214592 bits of leaf masks, "
        f"more than {MASK_BIT_LIMIT}; search bookkeeping would not fit"
    )
