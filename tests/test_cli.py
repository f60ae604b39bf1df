import io
import pathlib
import sys
from fractions import Fraction

import pytest

from sperner import ip as ipm
from sperner.cli import build_parser, main
from sperner.combinat import decompose, mms
from sperner.simplex import LinearProgram

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBounds:
    def test_exact_row(self, capsys):
        code, out, _ = run(["bounds", "--n", "36", "--k", "15"], capsys)
        assert code == 0
        assert "mms = 595/9" in out
        assert "upper (refined) = 54" in out
        assert "lower = 54" in out and "m=4, h=9" in out

    def test_uniform(self, capsys):
        code, out, _ = run(["bounds", "--n", "6", "--k", "3"], capsys)
        assert code == 0
        assert "exact = 5 (uniform case)" in out

    def test_range(self, capsys):
        code, out, _ = run(["bounds", "--n", "10", "--k", "4"], capsys)
        assert code == 0
        assert "range (n=3k-2) = {10, 11}" in out

    def test_mms_beyond_float_range(self, capsys):
        # mms(1500, 3) has 413 digits: the approximation comes from the
        # exact integers in e notation instead of overflowing a float
        value = mms(decompose(1500, 3))
        code, out, _ = run(["bounds", "--n", "1500", "--k", "3"], capsys)
        assert code == 0
        line = out.splitlines()[1]
        assert line.startswith(f"mms = {value} (~") and line.endswith(")")
        mantissa, exp = line[len(f"mms = {value} (~"):-1].split("e+")
        assert exp == "412" and len(mantissa) == 8
        assert abs(Fraction(mantissa) * 10 ** int(exp) - value) <= value / 10 ** 6

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["bounds", "--n", "36"])
        assert err.value.code == 2

    def test_invalid_values_exit_2(self, capsys):
        code, _, err = run(["bounds", "--n", "3", "--k", "5"], capsys)
        assert code == 2 and "error" in err


class TestConstructAndVerify:
    def test_emit_verify_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "sys.sps"
        code, out, _ = run(["construct", "--n", "8", "--k", "3", "--m", "2",
                            "--h", "4", "--case", "b", "--out", str(path)], capsys)
        assert code == 0
        assert "built 4 partitions" in out
        code, out, _ = run(["verify", str(path)], capsys)
        assert code == 0 and "PASS" in out

    def test_uniform_path(self, tmp_path, capsys):
        path = tmp_path / "u.sps"
        code, out, _ = run(["construct", "--n", "6", "--k", "3",
                            "--out", str(path)], capsys)
        assert code == 0 and "built 5 partitions" in out

    def test_table_row_witness(self, tmp_path, capsys):
        code, out, _ = run(["construct", "--n", "36", "--k", "15", "--m", "4",
                            "--h", "9", "--case", "b"], capsys)
        assert code == 0 and "built 54 partitions" in out

    def test_large_row_checked_exactly(self, capsys):
        # (88,33,4,22): 8,712 parts
        code, out, _ = run(["construct", "--n", "88", "--k", "33", "--m", "4",
                            "--h", "22"], capsys)
        assert code == 0
        assert "  exact subset test: ok" in out.splitlines()
        assert "skipped" not in out

    def test_determinism(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.sps", tmp_path / "b.sps"
        run(["construct", "--n", "16", "--k", "6", "--m", "2", "--h", "8",
             "--seed", "5", "--out", str(p1)], capsys)
        run(["construct", "--n", "16", "--k", "6", "--m", "2", "--h", "8",
             "--seed", "5", "--out", str(p2)], capsys)
        assert p1.read_bytes() == p2.read_bytes()

    def test_c3_plan_with_forced_transversals(self, tmp_path, capsys):
        # every row of T is 2, so each unit fills all three groups of its
        # block with transversals that must come out distinct
        path = tmp_path / "r27.sps"
        code, out, _ = run(["construct", "--n", "27", "--k", "7", "--m", "3",
                            "--h", "9", "--out", str(path)], capsys)
        assert code == 0 and "built 63 partitions" in out
        code, out, _ = run(["verify", str(path)], capsys)
        assert code == 0 and out.splitlines()[-1] == "PASS"

    def test_parser_reuse_leaks_no_values(self, tmp_path, capsys):
        # the parser is built once; a flag given in one call must not
        # become the default of the next
        assert build_parser() is build_parser()
        base = ["construct", "--n", "16", "--k", "6", "--m", "2", "--h", "8"]
        seeded, default, zero = (tmp_path / f"{name}.sps"
                                 for name in ("seeded", "default", "zero"))
        assert run(base + ["--seed", "5", "--case", "a", "--out", str(seeded)],
                   capsys)[0] == 0
        assert run(["bounds", "--n", "36", "--k", "15"], capsys)[0] == 0
        code, out, _ = run(base + ["--out", str(default)], capsys)
        assert code == 0 and "built 28 partitions" in out
        assert run(base + ["--seed", "0", "--out", str(zero)], capsys)[0] == 0
        assert default.read_bytes() == zero.read_bytes()
        assert default.read_bytes() != seeded.read_bytes()
        code, out, _ = run(base, capsys)
        assert code == 0 and "wrote" not in out
        args = build_parser().parse_args(base)
        assert (args.seed, args.case, args.out) == (0, "b", None)

    def test_verify_corrupted_da(self, tmp_path, capsys):
        from sperner.construction import construct_uniform
        from sperner.verify import to_detecting_array
        arr = to_detecting_array(construct_uniform(12, 4))
        rows = [list(r) for r in arr.rows]
        for i in range(arr.n):
            if rows[i][0] == 4:
                rows[i][0] = 1   # wipe symbol 4 from column 0
        text_lines = [f"DA {arr.n} {arr.k} {arr.p}"]
        text_lines += [" ".join(map(str, r)) for r in rows]
        path = tmp_path / "bad.da"
        path.write_text("\n".join(text_lines) + "\n")
        code, out, _ = run(["verify", str(path)], capsys)
        assert code == 1
        assert "column 0" in out

    @pytest.mark.parametrize("name,text,error", (
        ("bad.sps", "SPS 4 2 2\n0 1 | 2 3\n0 x | 2 3\n",
         "line 3: invalid literal for int() with base 10: 'x'"),
        ("bad.da", "DA 3 2 2\n1 2\n2 x\n1 1\n",
         "line 3: invalid literal for int() with base 10: 'x'"),
        ("head.sps", "SPS 4 2 -1\n", "line 1: bad header 'SPS 4 2 -1'"),
        ("head.da", "DA 2 x 2\n1 2\n2 1\n", "line 1: bad header 'DA 2 x 2'"),
        ("empty.sps", "", "unrecognized header '' (expected SPS or DA)"),
        ("blank.sps", " \n\t\n", "unrecognized header '' (expected SPS or DA)")),
        ids=["sps", "da", "sps-header", "da-header", "empty", "whitespace"])
    def test_verify_parse_error_names_its_line(self, tmp_path, capsys, name, text, error):
        path = tmp_path / name
        path.write_text(text)
        code, _, err = run(["verify", str(path)], capsys)
        assert (code, err) == (2, f"parse error: {error}\n")

    def test_verify_lists_the_violations_of_a_failing_sps_check(self, tmp_path, capsys):
        # a failing SPS check lists its violations, as a DA file's does
        path = tmp_path / "dup.sps"
        path.write_text("SPS 4 2 2\n0 1 | 2 3\n0 1 | 2 3\n")
        code, out, _ = run(["verify", str(path)], capsys)
        assert (code, out) == (1, "partition structure: ok\n"
                                  "exact subset test: FAIL\n"
                                  "  part 0 of partition 0 is contained in part 0 of partition 1\n"
                                  "  part 1 of partition 0 is contained in part 1 of partition 1\n"
                                  "FAIL\n")

    def test_built_system_reports_are_indented(self, capsys):
        # construct and ip --build print each report under the headline,
        # so a violation sits two spaces under its check
        from sperner.cli import _report_built
        from sperner.construction import PartitionSystem
        dup = PartitionSystem(4, 2, [[(0, 1), (2, 3)], [(0, 1), (2, 3)]])
        assert _report_built(dup, decompose(4, 2), "built 2", None) == 1
        assert capsys.readouterr().out == (
            "built 2\n"
            "  partition structure: ok\n"
            "  almost uniform: ok\n"
            "  exact subset test: FAIL\n"
            "    part 0 of partition 0 is contained in part 0 of partition 1\n"
            "    part 1 of partition 0 is contained in part 1 of partition 1\n")

    @pytest.mark.parametrize("name,text,line", (
        ("n.sps", "SPS 2000000 1 1\n0\n",
         "  partition 0: bad cover (missing [1, 2, 3, 4, 5, 6, 7, 8, 9, 10] and 1999989 more,"
         " extra [])"),
        ("k.da", "DA 1 2000000 1\n1\n",
         "  column 0: symbol(s) [2, 3, 4, 5, 6, 7, 8, 9, 10, 11] and 1999989 more never appear")),
        ids=["sps-n", "da-k"])
    def test_verify_cost_follows_the_file_not_the_header(self, tmp_path, capsys, name, text,
                                                         line):
        # a header declaring 2 million elements or symbols lists ten missing
        # ones and counts the rest
        path = tmp_path / name
        path.write_text(text)
        code, out, _ = run(["verify", str(path)], capsys)
        assert code == 1 and len(out) < 1000
        assert line in out.splitlines()

    def test_verify_da_roundtrip(self, tmp_path, capsys):
        from sperner.construction import construct_uniform
        from sperner.verify import to_detecting_array
        arr = to_detecting_array(construct_uniform(12, 4))
        path = tmp_path / "good.da"
        path.write_text(arr.to_text())
        code, out, _ = run(["verify", str(path)], capsys)
        assert code == 0 and "PASS" in out

    def test_construct_without_m_h_exit_2(self, capsys):
        code, out, err = run(["construct", "--n", "36", "--k", "15"], capsys)
        assert code == 2 and out == ""
        assert "--m and --h are required" in err

    def test_verify_missing_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "missing.sps"
        code, out, err = run(["verify", str(path)], capsys)
        assert code == 2 and out == ""
        assert str(path) in err

    def test_verify_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.sps"
        path.write_text("SPS 4 2 1\n0 1 | 2 oops\n")
        code, _, err = run(["verify", str(path)], capsys)
        assert code == 2
        assert "line 2" in err


class TestIp:
    def test_secB_exact(self, capsys):
        code, out, _ = run(["ip", "--n", "26", "--k", "3", "--variant", "secB",
                            "--solver", "exact"], capsys)
        assert code == 0
        assert "d=4 u=0 Q=511224" in out
        assert "exact objective = 511224, gap to Q = 0" in out

    def test_secA_greedy(self, capsys):
        code, out, _ = run(["ip", "--n", "22", "--k", "3", "--variant", "secA",
                            "--solver", "greedy"], capsys)
        assert code == 0
        assert "greedy objective = 30822, gap to Q = 0" in out

    def test_trivial(self, capsys):
        code, out, _ = run(["ip", "--n", "24", "--k", "5", "--variant", "secB"],
                           capsys)
        assert code == 0
        assert "trivial program, objective 0" in out

    def test_build_and_verify(self, tmp_path, capsys):
        path = tmp_path / "ip.sps"
        code, out, _ = run(["ip", "--n", "10", "--k", "3", "--variant", "secA",
                            "--solver", "exact", "--build", "--out", str(path)],
                           capsys)
        assert code == 0 and "built 10 partitions" in out
        code, out, _ = run(["verify", str(path)], capsys)
        assert code == 0

    def test_dump(self, tmp_path, capsys):
        path = tmp_path / "inst.ip"
        code, _, _ = run(["ip", "--n", "10", "--k", "3", "--variant", "secA",
                          "--solver", "exact", "--dump", str(path)], capsys)
        assert code == 0
        text = path.read_text()
        assert text.startswith("IP secA 10 3 1 0 10\n")
        assert "x 1 1 5" in text

    def test_default_secB_is_exact(self, capsys):
        # the closed form is infeasible at (26,3,secB); a fill closes it
        code, out, _ = run(["ip", "--n", "26", "--k", "3", "--variant", "secB"],
                           capsys)
        assert code == 0
        assert out.rstrip().endswith("exact objective = 511224, gap to Q = 0")

    def test_unproved_result_marked(self, monkeypatch, capsys):
        # a result the bound does not prove must say so
        real = ipm.exact_solve
        monkeypatch.setattr(ipm, "exact_solve", lambda inst: (real(inst)[0], None))
        code, out, _ = run(["ip", "--n", "26", "--k", "3", "--variant", "secB",
                            "--solver", "exact"], capsys)
        assert code == 0
        assert out.rstrip().endswith(
            "exact objective = 511224, gap to Q = 0 (not proved optimal)")

    def test_parity_cut_named(self, capsys):
        code, out, _ = run(["ip", "--n", "406", "--k", "3", "--variant", "secA",
                            "--solver", "exact"], capsys)
        assert code == 0
        assert out.rstrip().endswith(", gap to Q = 2 (optimal by the parity cut)")

    def test_exact_reads_the_bound_once(self, monkeypatch, capsys):
        # exact_solve names the bound it met, so the note needs no second call
        calls = []
        real = ipm.upper_bound
        monkeypatch.setattr(ipm, "upper_bound", lambda inst: calls.append(inst) or real(inst))
        code, out, _ = run(["ip", "--n", "406", "--k", "3", "--variant", "secA",
                            "--solver", "exact"], capsys)
        assert code == 0
        assert out.rstrip().endswith("(optimal by the parity cut)")
        assert len(calls) == 1

    def test_out_needs_build(self, tmp_path, capsys):
        path = tmp_path / "ip.sps"
        code, out, err = run(["ip", "--n", "10", "--k", "3", "--variant", "secA",
                              "--out", str(path)], capsys)
        assert code == 2 and out == ""
        assert "--out writes the built system, so it needs --build" in err
        assert not path.exists()

    @pytest.mark.parametrize("n,k,variant,solver", [(26, 3, "secB", "greedy"),
                                                    (22, 3, "secA", "closed"),
                                                    (24, 5, "secB", "greedy")])
    def test_solver_of_the_other_variant_exit_2(self, n, k, variant, solver, capsys):
        # rejected before the instance is built, a trivial one included
        code, out, err = run(["ip", "--n", str(n), "--k", str(k), "--variant", variant,
                              "--solver", solver], capsys)
        assert code == 2 and out == ""
        assert f"--solver {solver} does not apply to variant {variant}" in err

    def test_infeasible_closed_form_dumps_the_instance_alone(self, tmp_path, capsys):
        path = tmp_path / "c26.dump"
        code, out, _ = run(["ip", "--n", "26", "--k", "3", "--variant", "secB",
                            "--solver", "closed", "--dump", str(path)], capsys)
        assert code == 1
        assert out.endswith("closed form infeasible: violated R_1\n")
        assert path.read_text() == ipm.build_instance(26, 3, "secB").to_text()

    def test_wrong_congruence_exit_2(self, capsys):
        code, _, err = run(["ip", "--n", "24", "--k", "3", "--variant", "secA"],
                           capsys)
        assert code == 2


class TestScan:
    def test_table2_matches_golden(self, tmp_path, capsys):
        path = tmp_path / "t2.csv"
        code, _, _ = run(["scan", "--table", "2", "--out", str(path)], capsys)
        assert code == 0
        assert path.read_bytes() == (GOLDEN / "table2.csv").read_bytes()

    def test_table1_small_matches_golden_prefix(self, tmp_path, capsys):
        golden = (GOLDEN / "table1.csv").read_bytes().splitlines(keepends=True)
        path = tmp_path / "t1.csv"
        for flags in (["--n-max", "200"], ["--n-max", "1000"],
                      ["--n-max", "1000", "--c-max", "6", "--workers", "1"]):
            code, _, _ = run(["scan", "--table", "1", *flags, "--out", str(path)], capsys)
            assert code == 0
            n_max = int(flags[1])
            expect = golden[0] + b"".join(line for line in golden[1:]
                                          if int(line.split(b",")[0]) <= n_max)
            assert path.read_bytes() == expect, flags

    def test_workers_other_than_1_is_a_usage_error(self, capsys):
        # the scan is serial; --workers parses only so old command lines run
        with pytest.raises(SystemExit) as err:
            main(["scan", "--table", "1", "--workers", "2"])
        assert err.value.code == 2
        assert capsys.readouterr().out == ""

    def test_empty_below_first_row(self, capsys):
        code, out, _ = run(["scan", "--table", "1", "--n-max", "35"], capsys)
        assert code == 0
        assert out.strip() == "n,k,m,h,sp"

    @pytest.mark.parametrize("c_max", ["1", "-1"])
    def test_c_max_below_2_is_a_usage_error(self, c_max, capsys):
        code, out, err = run(["scan", "--table", "1", "--c-max", c_max], capsys)
        assert code == 2 and out == ""
        assert "need c_max >= 2" in err

    def test_determinism(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["scan", "--table", "1", "--n-max", "150", "--out", str(p1)], capsys)
        run(["scan", "--table", "1", "--n-max", "150", "--out", str(p2)], capsys)
        assert p1.read_bytes() == p2.read_bytes()


class TestLpGolden:
    """The LP column of `asym` and `ip --solver lp` dumps, byte for byte
    against golden files.  The asym column is proved by a primal that
    meets the band dual (the simplex only where none does); the dumps pin
    the floored LP vertices that the integer simplex must reproduce
    exactly, up to (502,3,secA), the largest LP of the benchmark.  The secA file to 1000 holds the parity-cut rows, closed by
    half loops.  The `--solver exact` dumps pin the x of a fill and of the
    floored LP fallback, the `--solver greedy` dumps the greedy's x, the
    `--solver closed` dump the closed form's x, and the k = 5 and 7 files
    the closed form and the greedy."""

    @pytest.mark.parametrize("variant,n_max", (("secB", 800), ("secA", 300), ("secA", 1000)))
    def test_asym_matches_golden(self, tmp_path, capsys, variant, n_max):
        path = tmp_path / "asym.csv"
        code, _, _ = run(["asym", "--k", "3", "--variant", variant,
                          "--n-max", str(n_max), "--out", str(path)], capsys)
        assert code == 0
        golden = GOLDEN / f"asym-{variant}-k3-{n_max}.csv"
        assert path.read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("k,variant,n_max", ((5, "secB", 600), (7, "secA", 600)))
    def test_asym_k5_k7_matches_golden(self, tmp_path, capsys, k, variant, n_max):
        path = tmp_path / "asym.csv"
        code, _, _ = run(["asym", "--k", str(k), "--variant", variant,
                          "--n-max", str(n_max), "--out", str(path)], capsys)
        assert code == 0
        golden = GOLDEN / f"asym-{variant}-k{k}-{n_max}.csv"
        assert path.read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("n", (302, 1310))
    def test_exact_solver_dump_matches_golden(self, tmp_path, capsys, n):
        # (302,3,secB) is proved by a fill, (1310,3,secB) by the floored LP
        path = tmp_path / "ip.dump"
        code, _, _ = run(["ip", "--n", str(n), "--k", "3", "--variant", "secB",
                          "--solver", "exact", "--dump", str(path)], capsys)
        assert code == 0
        assert path.read_bytes() == (GOLDEN / f"ip-exact-{n}-3-secB.dump").read_bytes()

    @pytest.mark.parametrize("n,variant", (
        (202, "secA"), (304, "secA"), (302, "secB"), (502, "secA")))
    def test_exact_dump_matches_golden(self, tmp_path, capsys, n, variant):
        path = tmp_path / "ip.dump"
        code, _, _ = run(["ip", "--n", str(n), "--k", "3", "--variant", variant,
                          "--solver", "lp", "--dump", str(path)], capsys)
        assert code == 0
        golden = GOLDEN / f"ip-lp-{n}-3-{variant}.dump"
        assert path.read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("n", (202, 406))
    def test_greedy_dump_matches_golden(self, tmp_path, capsys, n):
        # the greedy meets Q at 202 and stops at Q - 2 at 406, where the
        # parity cut proves Q - 2 optimal
        path = tmp_path / "ip.dump"
        code, out, _ = run(["ip", "--n", str(n), "--k", "3", "--variant", "secA",
                            "--solver", "greedy", "--dump", str(path)], capsys)
        assert code == 0
        assert f"gap to Q = {0 if n == 202 else 2}" in out
        assert path.read_bytes() == (GOLDEN / f"ip-greedy-{n}-3-secA.dump").read_bytes()

    def test_closed_form_dump_matches_golden(self, tmp_path, capsys):
        # u = 3: three bands and the loop, each holding its whole cap
        path = tmp_path / "ip.dump"
        code, out, _ = run(["ip", "--n", "774", "--k", "5", "--variant", "secB",
                            "--solver", "closed", "--dump", str(path)], capsys)
        assert code == 0
        assert out.rstrip().endswith("(= Q)")
        assert path.read_bytes() == (GOLDEN / "ip-closed-774-5-secB.dump").read_bytes()


class TestSystemGolden:
    """Built systems, byte for byte against files written before parts
    became sorted tuples: the README's Table-1 row (36,15,4,9) and the IP
    realization of (16,5,secA)."""

    @pytest.mark.parametrize("argv,name", (
        (["construct", "--n", "36", "--k", "15", "--m", "4", "--h", "9",
          "--case", "b", "--seed", "0"], "construct-36-15-4-9.sps"),
        (["ip", "--n", "16", "--k", "5", "--variant", "secA", "--solver", "exact",
          "--build"], "ip-build-16-5-secA.sps")), ids=["construct", "ip-build"])
    def test_system_matches_golden(self, tmp_path, capsys, argv, name):
        path = tmp_path / name
        code, _, _ = run([*argv, "--out", str(path)], capsys)
        assert code == 0
        assert path.read_bytes() == (GOLDEN / name).read_bytes()
        code, out, _ = run(["verify", str(path)], capsys)
        assert (code, out) == (0, "partition structure: ok\nexact subset test: ok\nPASS\n")

    def test_detecting_array_matches_golden(self, capsys):
        from sperner.construction import PartitionSystem, construct_grouped, plan_grouped
        from sperner.verify import to_detecting_array
        golden = GOLDEN / "construct-36-15-4-9.da"
        sps = PartitionSystem.from_text((GOLDEN / "construct-36-15-4-9.sps").read_text())
        built = construct_grouped(plan_grouped(36, 15, 4, 9, "b"), seed=0)
        for system in (sps, built):
            assert to_detecting_array(system).to_text().encode() == golden.read_bytes()
        # the structure of a DA's columns follows from its format, so the
        # detecting property is the one check that runs
        code, out, _ = run(["verify", str(golden)], capsys)
        assert (code, out) == (0, "detecting property: ok\nPASS\n")


class TestAsym:
    def test_secB_rows(self, tmp_path, capsys):
        path = tmp_path / "asym.csv"
        code, _, _ = run(["asym", "--k", "3", "--variant", "secB",
                          "--n-max", "80", "--out", str(path)], capsys)
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0].startswith("n,k,variant,d,u,q,mms")
        rows = {int(line.split(",")[0]): line.split(",") for line in lines[1:]}
        assert set(rows) == set(range(8, 81, 6))
        row26 = rows[26]
        assert row26[5] == "511224"
        # lp column equals q on every nontrivial row
        for n, row in rows.items():
            if row[4] != "-1":
                assert row[8] == row[5]

    def test_secA_rows(self, tmp_path, capsys):
        path = tmp_path / "asym.csv"
        code, _, _ = run(["asym", "--k", "3", "--variant", "secA",
                          "--n-max", "60", "--out", str(path)], capsys)
        assert code == 0
        lines = path.read_text().splitlines()
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[7] != ""   # greedy objective present

    def test_simplex_only_where_no_primal_meets_the_bound(self, tmp_path, monkeypatch, capsys):
        calls = []
        solve = LinearProgram.solve
        monkeypatch.setattr(LinearProgram, "solve",
                            lambda lp: calls.append(len(lp.c)) or solve(lp))
        for variant, n_max in (("secA", 1000), ("secB", 1500)):
            code, _, _ = run(["asym", "--k", "3", "--variant", variant, "--n-max",
                              str(n_max), "--out", str(tmp_path / "asym.csv")], capsys)
            assert code == 0
        # one LP, (1310,3,secB)
        assert calls == [len(ipm.build_instance(1310, 3, "secB").phi)]

    def test_even_k_exit_2(self, capsys):
        code, out, err = run(["asym", "--k", "4", "--variant", "secA",
                              "--n-max", "60"], capsys)
        assert code == 2 and out == ""
        assert "--k must be odd" in err
