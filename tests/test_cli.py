"""Command line surface: formats, provenance, exit codes, config replay."""

import ast
import itertools
import json
import re
import shlex
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_checks import columns, decimal_quotient

from hypercov import cli, exact, laws, oracle, rng, simulate, sweep
from hypercov.cli import (
    RunConfig,
    build_parser,
    canonical_config_json,
    config_hash,
    main,
    resolve_params,
)
from hypercov.design import DesignSpec
from hypercov.errors import StructuralError
from hypercov.exact import IntersectionKind, expected_coverage_multiset
from hypercov.sampling import SampleKind, points_batch, trial_columns

README = Path(__file__).resolve().parent.parent / "README.md"
CLOSED_FORM = "sweep --mode closed-form --kind lhs --d 3 --t 2 --levels 0.5 --n-grid 64,128,256"

GOLDEN_GEN = """\
# hypercov 0.1.0
# seed=42
# config_hash=852851580c86
# config={"params":{"d":2,"format":"csv","k":2,"kind":"lhs","n":4,"p":null,"seed":42},"subcommand":"gen"}
# trial 1
4,3
2,4
1,2
3,1
# trial 2
4,2
2,3
1,4
3,1
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestGen:
    def test_golden_csv(self, capsys):
        code, out = run_cli(capsys, "gen", "--d", "2", "--n", "4", "--kind", "lhs", "--k", "2", "--seed", "42")
        assert code == 0
        assert out == GOLDEN_GEN

    def test_json_format(self, capsys):
        code, out = run_cli(
            capsys, "gen", "--d", "2", "--n", "4", "--p", "2", "--kind", "os",
            "--k", "1", "--seed", "42", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["provenance"]["seed"] == 42
        assert len(doc["trials"]) == 1
        assert doc["trials"][0]["spec"] == {"d": 2, "n": 4, "p": 2}

    def test_json_envelope_shape(self, capsys):
        code, out = run_cli(
            capsys, "gen", "--d", "2", "--n", "4", "--kind", "lhs", "--k", "2", "--format", "json",
        )
        assert code == 0
        for trial in json.loads(out)["trials"]:
            assert set(trial) == {"spec", "seed", "kind", "points"}
            assert trial["spec"] == {"d": 2, "n": 4}  # no p for an lhs spec
            assert trial["kind"] == "lhs"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--d", "2", "--n", "4", "--k", "-1"], "k must be >= 0, got -1"),
            (["--kind", "os", "--d", "2", "--n", "4"], "operation needs a coarse base p (n = p**d)"),
        ],
    )
    def test_refused_gen_exits_2(self, capsys, argv, message):
        code = main(["gen", *argv])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, entries, largest",
        [
            (["--d", "16", "--n", "1048576", "--k", "100000"], 16 * 2**20 * 10**5, 0),
            (["--d", "2", "--n", "1000", "--k", "5001"], 10_002_000, 5000),
        ],
    )
    def test_gen_over_the_entry_guard_exits_3(self, capsys, argv, entries, largest):
        # Refused before drawing: the first case's columns alone would take 6.7 TB.
        code = main(["gen", *argv])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == (
            f"error: k*d*n = {entries} entries exceed guard 10000000; the largest k that fits is {largest}\n"
        )

    def test_gen_at_the_entry_guard_draws(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_GEN_ENTRIES", 16)
        argv = ["gen", "--d", "2", "--n", "4", "--kind", "lhs", "--seed", "42", "--k"]
        assert run_cli(capsys, *argv, "2") == (0, GOLDEN_GEN)
        assert run_cli(capsys, *argv, "3") == (3, "")

    @pytest.mark.parametrize("flags", [["--d", "3", "--n", "5"], ["--kind", "os", "--d", "2", "--n", "4", "--p", "2"]])
    def test_negative_seed_draws_as_its_64_bit_residue(self, capsys, flags):
        # Seeds fold mod 2^64, so -5 and 2^64 - 5 draw the same trials.
        argv = ["gen", *flags, "--k", "3", "--seed"]
        trials = [run_cli(capsys, *argv, seed) for seed in ("-5", "18446744073709551611")]
        assert [code for code, _ in trials] == [0, 0]
        neg, pos = (out.split("# trial 1\n", 1)[1] for _, out in trials)
        assert neg == pos

    @pytest.mark.parametrize("kind,spec", [("lhs", DesignSpec(3, 5)), ("os", DesignSpec(2, 4, 2))])
    def test_json_points_rebuild_the_trials(self, capsys, kind, spec):
        # Each envelope holds enough to rebuild its trial, from the points
        # or from the trial seed.
        argv = ["gen", "--kind", kind, "--d", str(spec.d), "--n", str(spec.n), "--k", "3", "--seed", "42"]
        if spec.p is not None:
            argv += ["--p", str(spec.p)]
        code, out = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        want = trial_columns(spec, SampleKind(kind), 42, 3)
        docs = json.loads(out)["trials"]
        for t, (doc, trial) in enumerate(zip(docs, want, strict=True), start=1):
            assert DesignSpec(**doc["spec"]) == spec
            assert np.array_equal(columns(doc["points"]), trial)
            assert doc["seed"] == rng.fold(42, t)
            cols = points_batch(spec, SampleKind(doc["kind"]), np.array([doc["seed"]], dtype=np.uint64))
            assert np.array_equal(cols, trial[None])

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "trials.csv"
        code, out = run_cli(
            capsys, "gen", "--d", "2", "--n", "4", "--kind", "lhs",
            "--k", "2", "--seed", "42", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text() == GOLDEN_GEN


class TestExact:
    def test_intersection_row(self, capsys):
        code, out = run_cli(capsys, "exact", "--kind", "lhs", "--d", "2", "--n", "3", "--m", "2")
        assert code == 0
        assert "lhs,2,3,,2,9,7,1.28571428571" in out

    def test_rational_format(self, capsys):
        code, out = run_cli(
            capsys, "exact", "--kind", "lhs", "--d", "2", "--n", "2", "--k", "2",
            "--format", "rational",
        )
        assert code == 0
        assert "lhs,2,2,,2,2,3," in out

    def test_decimal_width(self, capsys):
        code, out = run_cli(
            capsys, "exact", "--kind", "lhs", "--d", "2", "--n", "3", "--m", "2",
            "--format", "decimal:30",
        )
        assert code == 0
        assert "1.28571428571428571428571428571" in out

    @pytest.mark.parametrize("digits", ["1000001", "100000000", "999999999999999999"])
    def test_decimal_digits_cap_exit(self, capsys, digits):
        # Uncapped, decimal:100000000 prints 100 MB and the largest width
        # dies with a MemoryError traceback.
        code, out = run_cli(
            capsys, "exact", "--kind", "lhs", "--d", "2", "--n", "3", "--m", "2",
            "--format", f"decimal:{digits}",
        )
        assert code == 3
        assert out == ""

    def test_decimal_digits_at_the_cap(self, capsys):
        code, out = run_cli(
            capsys, "exact", "--kind", "lhs", "--d", "2", "--n", "3", "--m", "2",
            "--format", "decimal:1000000",
        )
        assert code == 0
        assert out.splitlines()[-1].split(",")[-1] == decimal_quotient(9, 7, 10**6)

    @staticmethod
    @st.composite
    def quotients(draw):
        """(num, den, digits) for the decimal column."""
        digits = draw(st.integers(1, 25))
        pair = draw(
            st.one_of(
                # any quotient, with integers short or long against digits
                st.tuples(st.integers(-(10**60), 10**60), st.integers(1, 10**60)),
                # exact: a denominator of 2s and 5s, or an integer with trailing zeros
                st.tuples(st.integers(0, 10**30), st.builds(lambda a, b: 2**a * 5**b, st.integers(0, 60), st.integers(0, 60))),
                st.tuples(st.builds(lambda c, z: c * 10**z, st.integers(1, 10**20), st.integers(0, 30)), st.just(1)),
                # halfway between two coefficients of `digits` digits
                st.tuples(
                    st.builds(lambda c: 10 * c + 5, st.integers(10 ** (digits - 1), 10**digits - 1)),
                    st.builds(lambda j: 10**j, st.integers(0, 80)),
                ),
                # below 1e-6, printed with an exponent
                st.tuples(st.integers(1, 10**6), st.integers(10**7, 10**90)),
            )
        )
        return (*pair, digits)

    @given(quotients())
    @example((1, 4, 12))  # exact: 0.25, not 0.250000000000
    @example((1, 10**7, 12))  # 1E-7
    @example((2**200 + 1, 3**126, 12))  # integers longer than the digits
    @settings(max_examples=300, deadline=None)
    def test_decimal_column_matches_whole_integer_division(self, case):
        num, den, digits = case
        with cli._all_int_digits():
            assert cli._decimal_str(str(num), str(den), digits) == decimal_quotient(num, den, digits)

    # 10^9864 has SPLIT_BITS bits and 10^9865 more; 2^SPLIT_BITS is the
    # least integer printed by halves.
    INT_STR_CASES = {
        "0": 0,
        **{f"10^{j}{e:+d}": 10**j + e for j in (0, 1, 9864, 9865, 40000) for e in (-1, 0)},
        "2^SPLIT_BITS-1": 2**cli.SPLIT_BITS - 1,
        "2^SPLIT_BITS": 2**cli.SPLIT_BITS,
        "3^50000": 3**50000,
    }

    @pytest.mark.parametrize("x", INT_STR_CASES.values(), ids=INT_STR_CASES.keys())
    def test_int_str_is_str(self, x):
        with cli._all_int_digits():
            assert cli._int_str(x) == str(x)

    @given(st.integers(0, 2**5000))
    @settings(max_examples=200, deadline=None)
    def test_int_str_by_many_levels_of_halves_is_str(self, x):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "SPLIT_BITS", 16)
            assert cli._int_str(x) == str(x)

    def test_decimal_column_near_the_bit_guard_converts_no_whole_integer(self, capsys, monkeypatch):
        value = expected_coverage_multiset(IntersectionKind("lhs"), DesignSpec(2, 1000), 40)
        assert value.denominator.bit_length() > 100_000
        want = decimal_quotient(value.numerator, value.denominator, 12)
        text_only = lambda x: Decimal(x) if isinstance(x, str) else pytest.fail(f"Decimal got a {type(x).__name__}")
        monkeypatch.setattr(cli, "Decimal", text_only)
        code, out = run_cli(capsys, "exact", "--kind", "lhs", "--d", "2", "--n", "1000", "--k", "40")
        assert code == 0
        assert out.splitlines()[-1].split(",")[-1] == want

    def test_needs_exactly_one_of_m_k(self, capsys):
        code, _ = run_cli(capsys, "exact", "--kind", "lhs", "--d", "2", "--n", "3")
        assert code == 2
        code, _ = run_cli(capsys, "exact", "--kind", "lhs", "--d", "2", "--n", "3", "--m", "1", "--k", "1")
        assert code == 2

    def test_guard_exit(self, capsys):
        code, _ = run_cli(capsys, "exact", "--kind", "lhs", "--d", "2", "--n", "1000000", "--m", "1")
        assert code == 3

    def test_product_guard_exit(self, capsys):
        # Unguarded, this ran past 120 s; the guard refuses before any product.
        start = time.perf_counter()
        code = main(["exact", "--kind", "lhs", "--d", "2", "--n", "1000", "--k", "512"])
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        fit = re.search(r"k=(\d+) is the largest that fits", captured.err).group(1)
        # The bracket multiplies at the named k without a gcd.
        code, out = run_cli(capsys, "law", "--model", "bracket", "--kind", "lhs", "--d", "2",
                            "--n", "1000", "--k", fit)
        assert code == 0
        assert f"multiset,2,1000,,{fit}," in out

    @pytest.mark.parametrize("m", ["513", "2000", "8000"])
    def test_m_cap_exit(self, capsys, m):
        # --m shares the term cap of --k; uncapped, --m 2000 runs for seconds.
        code, _ = run_cli(capsys, "exact", "--kind", "lhs", "--d", "2", "--n", "100", "--m", m)
        assert code == 3

    def test_long_values_print_in_full(self, capsys):
        # The numerator has about 9,850 digits, past the interpreter's
        # default int-to-str limit; the run lifts it and puts it back.
        limit = sys.get_int_max_str_digits()
        code, out = run_cli(capsys, "exact", "--kind", "lhs", "--d", "2", "--n", "100", "--k", "64")
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        row = out.splitlines()[-1].split(",")
        want = expected_coverage_multiset(IntersectionKind.LHS_TUPLE, DesignSpec(2, 100), 64)
        sys.set_int_max_str_digits(0)
        try:
            assert Fraction(int(row[5]), int(row[6])) == want
        finally:
            sys.set_int_max_str_digits(limit)
        assert float(row[7]) == pytest.approx(float(want), rel=1e-11)


class TestLaw:
    def test_iid_row(self, capsys):
        code, out = run_cli(
            capsys, "law", "--model", "iid", "--kind", "lhs", "--d", "2", "--n", "100", "--k", "100"
        )
        assert code == 0
        row = [l for l in out.splitlines() if l.startswith("iid,")][0]
        assert float(row.split(",")[6]) == pytest.approx(1 - 0.99**100, rel=1e-12)

    def test_bracket_rows(self, capsys):
        code, out = run_cli(
            capsys, "law", "--model", "bracket", "--kind", "lhs", "--d", "3", "--n", "8", "--k", "4,8"
        )
        assert code == 0
        rows = [l for l in out.splitlines() if l.startswith("bracket,")]
        assert len(rows) == 2
        assert all(r.rstrip().endswith("true") for r in rows)

    @pytest.mark.parametrize("t", ["1", "2"])
    def test_n_beyond_float_exits_2(self, capsys, t):
        code = main(["law", "--model", "iid", "--t", t, "--n", "1" + "0" * 400, "--k", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: n must fit a float")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--model", "iid", "--t", "2"],
            ["--model", "asymptotic", "--t", "2"],
            ["--model", "conjecture", "--t", "2"],
            ["--model", "iid", "--kind", "lhs", "--d", "2"],
        ],
        ids=["iid", "asymptotic", "conjecture", "kind"],
    )
    def test_k_beyond_float_exits_2(self, capsys, flags):
        code = main(["law", *flags, "--n", "10", "--k", "1" + "0" * 400])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: k must fit a float, got a 1329-bit k")
        assert "Traceback" not in err

    def test_t_and_kind_give_one_lambda(self, capsys):
        # libm pow gave ...332 for --t; the rounded 1/1923 is ...333.
        rows = []
        for flags in (["--t", "2"], ["--kind", "lhs", "--d", "2"]):
            code, out = run_cli(capsys, "law", "--model", "iid", *flags, "--n", "1923", "--k", "1")
            assert code == 0
            rows.append(out.splitlines()[-1].split(","))
        assert rows[0][5] == rows[1][5] == repr(float(Fraction(1, 1923)))

    def test_kind_lambda_builds_no_factorial(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("kind_params called")

        monkeypatch.setattr(exact, "kind_params", refuse)
        monkeypatch.setattr(cli, "kind_params", refuse)
        code, out = run_cli(
            capsys, "law", "--model", "iid", "--kind", "lhs", "--d", "2", "--n", "100000", "--k", "10"
        )
        assert code == 0
        assert out.splitlines()[-1].split(",")[5] == "1e-05"

    def test_os_kind_without_p_exits_2(self, capsys):
        code = main(["law", "--model", "iid", "--kind", "os", "--d", "2", "--n", "9", "--k", "1"])
        assert code == 2
        assert "needs a coarse base p" in capsys.readouterr().err

    def test_huge_t_exits_2_at_once(self, capsys):
        start = time.perf_counter()
        code = main(["law", "--model", "iid", "--t", "1000000000", "--n", "10", "--k", "1"])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert capsys.readouterr().err == "error: lambda must be in (0, 1], got 0.0\n"

    @pytest.mark.parametrize(
        "argv,flag",
        [
            ("--model iid --kind lhs --n 100 --k 100", "--d"),
            ("--model iid --kind lhs --d 2 --k 100", "--n"),
            ("--model asymptotic --kind lhs --n 100 --k 100", "--d"),
            ("--model bracket --kind lhs --d 3 --k 4,8,16", "--n"),
            ("--model bracket --kind lhs --n 8 --k 4,8,16", "--d"),
        ],
    )
    def test_kind_without_d_or_n_exits_2(self, capsys, argv, flag):
        code = main(["law", *argv.split()])
        assert code == 2
        assert capsys.readouterr().err == f"error: missing required parameter {flag}\n"

    @pytest.mark.parametrize(
        "argv, err",
        [
            ("--model iid --t 1 --n -5 --k 1", "n must be >= 1, got -5"),
            ("--model iid --t 1 --n 0 --k 1", "n must be >= 1, got 0"),
            ("--model iid --t 2 --n 100 --p 7 --k 1", "--p is not read by law --model iid --t"),
            ("--model conjecture --t 2 --n 27 --p 3 --k 1", "--p is not read by law --model conjecture"),
            ("--model bracket --kind lhs --d 2 --n 10 --t 2 --k 1", "--t is not read by law --model bracket"),
        ],
    )
    def test_refused_law_flags_exit_2(self, capsys, argv, err):
        # Each used to exit 0: a nonsense n, or a flag its route ignored
        # that still changed the config hash.
        code = main(["law", *argv.split()])
        assert code == 2
        assert capsys.readouterr().err == f"error: {err}\n"

    @pytest.mark.parametrize("model", ["iid", "asymptotic"])
    def test_lambda_needs_t_or_kind(self, capsys, model):
        code = main(["law", "--model", model, "--d", "2", "--n", "100", "--k", "1"])
        assert code == 2
        assert capsys.readouterr().err == "error: law needs --t or --kind\n"

    def test_conjecture_needs_t(self, capsys):
        code, _ = run_cli(capsys, "law", "--model", "conjecture", "--d", "3", "--n", "27", "--k", "27")
        assert code == 2


class TestSimulate:
    def test_row_structure(self, capsys):
        code, out = run_cli(
            capsys, "simulate", "--kind", "lhs", "--d", "2", "--n", "10",
            "--k", "10", "--reps", "50", "--seed", "7", "--target", "full",
        )
        assert code == 0
        row = out.splitlines()[-1].split(",")
        assert row[0] == "full"
        mean = float(row[7])
        assert 0 < mean < 1

    def test_one_replicate_prints_zero_spread(self, capsys):
        # One replicate has no sample spread: sd and se print as 0.0.
        code, out = run_cli(capsys, "simulate", "--d", "2", "--n", "10", "--k", "3", "--reps", "1")
        assert code == 0
        header, row = (line.split(",") for line in out.splitlines()[-2:])
        assert header[6:10] == ["reps", "mean", "sd", "se"]
        assert row[6] == "1" and row[8:10] == ["0.0", "0.0"]

    def test_edge_target_is_quoted(self, capsys):
        code, out = run_cli(
            capsys, "simulate", "--kind", "os", "--d", "3", "--n", "8", "--p", "2",
            "--k", "4", "--reps", "10", "--seed", "7", "--target", "edge:1,2,1,2",
        )
        assert code == 0
        assert '"edge:1,2,1,2"' in out

    def test_workers_do_not_change_bytes(self, capsys):
        args = [
            "simulate", "--kind", "lhs", "--d", "2", "--n", "8",
            "--k", "4", "--reps", "30", "--seed", "7", "--target", "full",
        ]
        _, seq = run_cli(capsys, *args)
        _, par = run_cli(capsys, *args, "--workers", "2")
        assert seq == par

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_refused(self, capsys, monkeypatch, workers):
        def no_run(*args, **kwargs):
            raise AssertionError("replicates were run")

        monkeypatch.setattr(simulate, "simulate_coverage", no_run)
        code = main(["simulate", "--d", "2", "--n", "8", "--k", "4", "--reps", "3", "--workers", workers])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: --workers must be >= 1, got {workers}\n"

    def test_runs_in_one_process_share_no_target_list(self, capsys):
        # The parser is built once per process; each run appends to its own list.
        argv = ["simulate", "--d", "2", "--n", "4", "--k", "2", "--reps", "2", "--target", "full"]
        runs = [run_cli(capsys, *argv, *extra) for extra in (["--target", "proj:1"], [], ["--target", "proj:1"])]
        labels = [[row.split(",")[0] for row in out.splitlines() if not row.startswith("#")][1:] for _, out in runs]
        assert [code for code, _ in runs] == [0, 0, 0]
        assert labels == [["full", "proj:1"], ["full"], ["full", "proj:1"]]
        assert runs[0] == runs[2]

    def test_dims_needs_a_proj_target(self, capsys):
        # With no proj: target, --dims used to change only the config hash.
        argv = ["simulate", "--d", "2", "--n", "9", "--k", "3", "--reps", "2", "--dims", "2,1"]
        code = main([*argv, "--target", "full", "--target", "edge:1,2,1,1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: --dims is read only with a proj: target\n"
        code, out = run_cli(capsys, *argv, "--target", "full", "--target", "proj:2")
        assert code == 0
        full, proj = out.splitlines()[-2:]
        assert full.startswith("full,") and proj.startswith('"proj:2@2,1",')

    def test_replicate_bytes_guard_refuses_before_drawing(self, capsys, monkeypatch):
        def no_draw(*args):
            raise AssertionError("trials were drawn")

        monkeypatch.setattr(simulate, "points_batch", no_draw)
        code = main(["simulate", "--d", "16", "--n", "20000", "--k", "1000", "--reps", "1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert "the largest k that fits is 419" in captured.err

    def test_total_work_guard_refuses_before_any_replicate(self, capsys, monkeypatch):
        # Only the plan is built: a broken guard fails here, not by running.
        def no_run(*args, **kwargs):
            raise AssertionError("replicates were run")

        monkeypatch.setattr(simulate, "simulate_coverage", no_run)
        code = main(["simulate", "--d", "2", "--n", "100", "--k", "100", "--reps", "1000000000"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err.endswith("the largest reps that fits is 83333\n")


class TestOracleCommand:
    def test_intersect_match(self, capsys):
        code, out = run_cli(capsys, "oracle", "--mode", "intersect", "--kind", "lhs", "--d", "2", "--n", "3", "--m", "1,2")
        assert code == 0
        assert "# all 2 checks MATCH" in out

    def test_cover_match(self, capsys):
        code, out = run_cli(
            capsys, "oracle", "--mode", "cover", "--kind", "os", "--d", "2", "--n", "4", "--p", "2", "--k", "2"
        )
        assert code == 0
        assert "29/68" in out

    def test_occurrence_match(self, capsys):
        code, out = run_cli(capsys, "oracle", "--mode", "occurrence", "--kind", "lhs", "--d", "2", "--n", "3")
        assert code == 0
        assert "MATCH" in out

    def test_guard_exit(self, capsys):
        code, _ = run_cli(capsys, "oracle", "--mode", "intersect", "--kind", "lhs", "--d", "2", "--n", "10", "--m", "1")
        assert code == 3

    @pytest.mark.parametrize("flags", [("--mode", "intersect", "--m", "80000"), ("--mode", "cover", "--k", "8000")])
    def test_guard_bounds_the_walk(self, capsys, flags):
        # Two trials give only m + 1 multisets, but walking each costs O(m).
        code, _ = run_cli(capsys, "oracle", "--kind", "lhs", "--d", "2", "--n", "2", *flags)
        assert code == 3

    @pytest.mark.parametrize("flags", [("--mode", "intersect", "--m", "3000"), ("--mode", "cover", "--k", "3000")])
    def test_cap_refuses_before_the_walk(self, capsys, monkeypatch, flags):
        # These pass the multiset guard; the exact side's term cap must
        # refuse them before the oracle walks any multiset.
        def walk(*args, **kwargs):
            raise AssertionError("the oracle walked before the cap refused")

        monkeypatch.setattr(oracle, "oracle_expected_coverage", walk)
        monkeypatch.setattr(oracle, "oracle_expected_intersection", walk)
        code, _ = run_cli(capsys, "oracle", "--kind", "lhs", "--d", "2", "--n", "2", *flags)
        assert code == 3


class TestQLists:
    """A list of k or m is refused before its first product or walk, with
    the exit code and message of the refused value alone."""

    @pytest.mark.parametrize(
        "command,good,bad",
        [
            ("exact --kind lhs --d 2 --n 1000 --format rational --k", "117", "118"),  # product guard
            ("exact --kind lhs --d 2 --n 100 --m", "1", "513"),  # term cap
            ("law --model bracket --kind lhs --d 2 --n 1000 --k", "117", "118"),
            ("oracle --mode cover --kind lhs --d 2 --n 2 --k", "1", "3000"),
            ("oracle --mode intersect --kind lhs --d 2 --n 4 --m", "1", "50"),  # multiset guard
        ],
    )
    def test_list_refused_before_any_product_or_walk(self, capsys, monkeypatch, command, good, bad):
        def no_work(*args, **kwargs):
            raise AssertionError("a product or walk ran before the list was refused")

        monkeypatch.setattr(exact, "_rising_product", no_work)
        # The bracket builds no product; its interval rounding must not run either.
        monkeypatch.setattr(laws, "coverage_float", no_work)
        monkeypatch.setattr(oracle, "oracle_expected_coverage", no_work)
        monkeypatch.setattr(oracle, "oracle_expected_intersection", no_work)
        argv = shlex.split(command)
        alone = main([*argv, bad]), capsys.readouterr()
        listed = main([*argv, f"{good},{bad}"]), capsys.readouterr()
        assert alone[0] == listed[0] == 3
        assert alone[1].err == listed[1].err != ""
        assert listed[1].out == ""


class TestOracleRefusals:
    @pytest.mark.parametrize(
        "command,code",
        [
            ("oracle --mode cover --kind os --d 2 --n 9 --p 3 --k 600", 3),  # term cap
            ("oracle --mode intersect --kind lhs --d 2 --n 8 --m 0", 2),
            ("oracle --mode intersect --kind lhs --d 2 --n 4 --m 50", 3),  # multiset guard
            # A q refusal comes before the enumeration guard (10! trials).
            ("oracle --mode intersect --kind lhs --d 2 --n 10 --m 0", 2),
            # So does a banded edge in occurrence mode (9! trials).
            ("oracle --mode occurrence --kind lhs --d 2 --n 9 --p 3 --edge 1,2,1,1", 2),
        ],
    )
    def test_refused_before_enumerating(self, capsys, monkeypatch, command, code):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("trials were enumerated before the run was refused")

        monkeypatch.setattr(oracle, "enumerate_trials", no_enumeration)
        assert main(shlex.split(command)) == code
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


class TestVerifyCommand:
    def test_full_suite(self, capsys):
        code, out = run_cli(capsys, "verify")
        assert code == 0
        assert "# all 25 checks MATCH" in out
        assert out.count("MATCH") >= 25

    def test_out_file_takes_the_table(self, capsys, tmp_path):
        path = tmp_path / "verify.csv"
        code, out = run_cli(capsys, "verify", "--out", str(path))
        assert (code, out) == (0, "all 25 checks MATCH\n")
        table = path.read_text()
        assert table.startswith("# hypercov ") and table.endswith("# all 25 checks MATCH\n")

    def test_broken_orthogonal_ensemble_is_a_mismatch(self, capsys, monkeypatch):
        # The orthogonal assembly with the slot's low digits dropped,
        # r // (s * p) * s: rows 0 and 1 of every d=2 p=2 trial share
        # their axis-1 value, so no trial is Latin, while every moment of
        # coverage and intersection the suite checks still matches.
        real = oracle.enumerate_trials

        def broken(spec, kind):
            if kind is not SampleKind.OS:
                return real(spec, kind)
            p, d, n = spec.p, spec.d, spec.n
            w = p ** (d - 1)
            choices = []
            for i in range(d):
                s = p ** (d - 1 - i)
                choices.append([
                    tuple(r // s % p * w + fines[r // s % p][r // (s * p) * s] for r in range(n))
                    for fines in itertools.product(itertools.permutations(range(w)), repeat=p)
                ])
            return oracle.EnumeratedTrialSet(spec, tuple(itertools.product(*choices)))

        monkeypatch.setattr(oracle, "enumerate_trials", broken)
        code, out = run_cli(capsys, "verify")
        assert code == 4
        assert "count os d=2 p=2,0 of 16,16,MISMATCH" in out
        assert out.endswith("# 1 of 25 checks MISMATCH\n")

    def test_repeated_latin_trials_are_a_mismatch(self, capsys, monkeypatch):
        # Each d=2 n=3 trial listed twice, the second time with its rows
        # reversed: the count row names 6 distinct trials of the 12.
        real = oracle.enumerate_trials

        def twice(spec, kind):
            ts = real(spec, kind)
            if spec != DesignSpec(2, 3):
                return ts
            again = tuple(tuple(axis[::-1] for axis in trial) for trial in ts.trials)
            return oracle.EnumeratedTrialSet(spec, ts.trials + again)

        monkeypatch.setattr(oracle, "enumerate_trials", twice)
        code, out = run_cli(capsys, "verify")
        assert code == 4
        assert "count lhs d=2 n=3,6 of 12,6,MISMATCH" in out


class TestSweepCommand:
    def test_stdout_has_summary_block(self, capsys):
        code, out = run_cli(
            capsys, "sweep", "--mode", "closed-form", "--kind", "lhs", "--d", "3",
            "--t", "2", "--levels", "0.5", "--n-grid", "64,128,256",
        )
        assert code == 0
        assert "# summary" in out
        assert "0.5,2,64,45" in out

    def test_closed_form_past_float_precision(self, capsys):
        # k* is near 1e20 here, past 2^53, where a float start for the
        # boundary walk lands further off than the walk can go.
        code, out = run_cli(
            capsys, "sweep", "--mode", "closed-form", "--kind", "lhs", "--d", "5",
            "--t", "5", "--levels", "0.9", "--n-grid", "76750,80000,90000",
        )
        assert code == 0
        rows = [l for l in out.splitlines() if l.startswith("0.9,5,") and l.count(",") == 3]
        assert rows == [
            "0.9,5,76750,79896770537683506354",
            "0.9,5,80000,94313885409036120312",
            "0.9,5,90000,151072607951339351896",
        ]
        with mpmath.workdps(100):
            for row in rows:
                n, k = (int(v) for v in row.split(",")[2:])
                log_miss = mpmath.log1p(mpmath.mpf(-1) / n**4)
                log_level = mpmath.log1p(-mpmath.mpf(0.9))
                assert k * log_miss <= log_level < (k - 1) * log_miss

    @pytest.mark.parametrize("d,n_grid", [(12, "439597,500000,600000"), (14, "471880,500000,600000")])
    def test_closed_form_past_sixty_digits(self, capsys, d, n_grid):
        # k* passes 10^61 here, so a fixed 60-digit logarithm cannot tell
        # it from its neighbours; the precision has to grow with k*.
        code, out = run_cli(
            capsys, "sweep", "--mode", "closed-form", "--kind", "lhs", "--d", str(d),
            "--t", str(d), "--levels", "0.5", "--n-grid", n_grid,
        )
        assert code == 0
        rows = [l.split(",") for l in out.splitlines() if l.startswith(f"0.5,{d},") and l.count(",") == 3]
        assert [n for _, _, n, _ in rows] == n_grid.split(",")
        with mpmath.workdps(500):
            log_level = mpmath.log1p(-mpmath.mpf(0.5))
            for _, _, n, k in rows:
                k = int(k)
                log_miss = mpmath.log1p(mpmath.mpf(-1) / int(n) ** (d - 1))
                assert k > 10**61
                assert k * log_miss <= log_level < (k - 1) * log_miss

    @pytest.mark.parametrize("level", ["nan", "inf"])
    def test_non_finite_level_exits_2(self, capsys, level):
        code, out = run_cli(
            capsys, "sweep", "--mode", "simulated", "--d", "3", "--t", "2",
            "--levels", level, "--n-grid", "8,27,64",
        )
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("level", ["0.5", "1.0"])
    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_simulated_needs_a_replicate(self, capsys, level, reps):
        code, out = run_cli(
            capsys, "sweep", "--mode", "simulated", "--d", "3", "--t", "2",
            "--levels", level, "--n-grid", "8,27,64", "--reps", reps,
        )
        assert (code, out) == (2, "")

    def test_one_distinct_n_has_no_slope(self, capsys):
        # Every point has the same log10(n), so no line fits; the squared
        # deviations of log10(8) still sum to a rounding-sized sxx.
        code, out = run_cli(
            capsys, "sweep", "--mode", "closed-form", "--d", "3", "--t", "2",
            "--levels", "0.5", "--n-grid", "8,8,8",
        )
        assert (code, out) == (2, "")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["--mode", "simulated", "--d", "2", "--levels", "1.0", "--n-grid", "64,64,64", "--reps", "30"],
                "all grid points share one n; slope undefined",
            ),
            (
                ["--mode", "closed-form", "--d", "3", "--levels", "0.5", "--n-grid", "8,27"],
                "need >= 3 grid points, got 2",
            ),
            (
                ["--mode", "simulated", "--kind", "os", "--d", "3", "--levels", "0.5", "--n-grid", "8,27,30"],
                "orthogonal sweep needs n = p**d, got n=30, d=3",
            ),
            (
                ["--mode", "closed-form", "--kind", "os", "--d", "2", "--levels", "0.5", "--n-grid=-4,9,16"],
                "n must be >= 2, got -4",
            ),
            (
                ["--mode", "closed-form", "--kind", "os", "--d", "2", "--levels", "0.5", f"--n-grid={'9' * 400},9,16"],
                f"n must be <= 1048576, got {'9' * 400}",
            ),
            (
                ["--mode", "closed-form", "--kind", "os", "--d", "0", "--levels", "0.5", "--n-grid", "4,9,16"],
                "d must be in [2, 16], got 0",
            ),
            (
                ["--mode", "closed-form", "--d", "2", "--levels", "0.5,1.0", "--n-grid", "4,9,16"],
                "full coverage has no closed form; use simulated mode",
            ),
        ],
    )
    def test_grid_refused_before_any_cell(self, capsys, monkeypatch, argv, message):
        def no_cell(*args, **kwargs):
            raise AssertionError("a sweep cell was computed")

        monkeypatch.setattr(simulate, "coverage_curve", no_cell)
        monkeypatch.setattr(sweep, "closed_form_k", no_cell)
        code = main(["sweep", "--t", "2", *argv])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["--d", "2", "--levels", "1.0", "--n-grid", "500,1000,2000", "--reps", "30"],
                "k*n = 63118000 keys exceed guard 20000000",
            ),
            (
                ["--d", "3", "--levels", "0.5", "--n-grid", "8,16,32", "--reps", "1000000"],
                "reps*(k*n + 2000) = 2080000000 keys exceed guard 1000000000; "
                "the largest reps that fits is 480769",
            ),
            (
                # Every level-0.5 cell fits; full coverage at n=64 does not.
                ["--d", "2", "--levels", "0.5,1.0", "--n-grid", "16,32,64", "--reps", "100000"],
                "reps*(k*n + 2000) = 3848000000 keys exceed guard 1000000000; "
                "the largest reps that fits is 25987",
            ),
        ],
    )
    def test_guard_refused_before_any_cell(self, capsys, monkeypatch, argv, message):
        # The first draw of every simulated cell (start trials of reps
        # replicates) is checked before the first cell runs.
        def no_cell(*args, **kwargs):
            raise AssertionError("a sweep cell was computed")

        monkeypatch.setattr(simulate, "coverage_curve", no_cell)
        code = main(["sweep", "--mode", "simulated", "--kind", "lhs", "--t", "2", *argv])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == f"error: {message}\n"

    def test_huge_full_coverage_cell_refused_at_once(self, capsys):
        began = time.perf_counter()
        code, out = run_cli(
            capsys, "sweep", "--mode", "simulated", "--kind", "lhs", "--d", "3", "--t", "3",
            "--levels", "1.0", "--n-grid", "100000,200000,400000",
        )
        assert (code, out) == (3, "")
        assert time.perf_counter() - began < 1.0

    def test_file_mode_writes_summary_sibling(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out = run_cli(
            capsys, "sweep", "--mode", "closed-form", "--kind", "lhs", "--d", "3",
            "--t", "2", "--levels", "0.5", "--n-grid", "64,128,256", "--out", str(target),
        )
        assert code == 0
        assert target.exists()
        assert (tmp_path / "sweep.summary.csv").exists()
        assert "k_star" in target.read_text()
        assert "slope" in (tmp_path / "sweep.summary.csv").read_text()


class TestConfigReplay:
    def test_round_trip_is_byte_identical(self, capsys, tmp_path):
        _, first = run_cli(capsys, "gen", "--d", "2", "--n", "4", "--kind", "lhs", "--k", "2", "--seed", "42")
        line = [l for l in first.splitlines() if l.startswith("# config=")][0]
        cfg = tmp_path / "replay.json"
        cfg.write_text(line.removeprefix("# config="))
        _, second = run_cli(capsys, "gen", "--config", str(cfg))
        assert second == first

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"subcommand": "gen", "params": {"d": 2, "n": 4, "kind": "lhs", "k": 2, "seed": 0}}))
        _, out = run_cli(capsys, "gen", "--config", str(cfg), "--seed", "42")
        assert "# seed=42" in out

    @pytest.mark.parametrize(
        "sub,params",
        [
            ("gen", {"d": 2, "n": 4, "kind": "zzz"}),
            ("gen", {"d": 2, "n": 4, "format": "xml"}),
            ("law", {"model": "zzz", "k": [1]}),
            ("sweep", {"mode": "zzz", "d": 3, "t": 2, "levels": [0.5], "n_grid": [64, 128, 256]}),
        ],
    )
    def test_config_values_meet_flag_choices(self, capsys, tmp_path, sub, params):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"subcommand": sub, "params": params}))
        code, _ = run_cli(capsys, sub, "--config", str(cfg))
        assert code == 2

    @pytest.mark.parametrize(
        "argv,params",
        [
            ("gen --d 2 --n 4", {"k": 2.7}),
            ("gen --d 2 --n 4", {"k": 2.0}),
            ("gen --d 2 --n 4", {"k": True}),
            ("gen --d 2 --n 4", {"seed": 1.5}),
            ("sweep --mode simulated --d 2 --t 2 --reps 2", {"levels": [True], "n_grid": [8, 16, 32]}),
            ("sweep --mode closed-form --d 3 --t 2", {"levels": [0.5], "n_grid": [64, 128.0, 256]}),
            ("sweep --mode closed-form --d 3 --t 2", {"levels": [10**400], "n_grid": [64, 128, 256]}),
        ],
    )
    def test_config_values_meet_flag_types(self, capsys, tmp_path, argv, params):
        # A config value no flag text could give is refused, not cast.
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"params": params}))
        code, out = run_cli(capsys, *shlex.split(argv), "--config", str(cfg))
        assert (code, out) == (2, "")

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"subcommand": "gen", "params": {"d": 2, "n": 4, "kind": "lhs", "k": 1, "sede": 3}}))
        code, _ = run_cli(capsys, "gen", "--config", str(cfg))
        assert code == 2

    def test_missing_config_file(self, capsys):
        code, _ = run_cli(capsys, "gen", "--config", "/no/such/file.json")
        assert code == 5

    def test_closed_form_sweep_ignores_unread_seed_and_reps(self, capsys, monkeypatch, tmp_path):
        # Under HYPERCOV_SEED=5 the hash used to be 58578e0a8577.
        monkeypatch.delenv("HYPERCOV_SEED", raising=False)
        code, plain = run_cli(capsys, *shlex.split(CLOSED_FORM))
        assert code == 0
        assert "# config_hash=7097769466b3\n" in plain
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"subcommand": "sweep", "params": {"seed": 5, "reps": 7}}))
        assert run_cli(capsys, *shlex.split(CLOSED_FORM), "--config", str(cfg)) == (0, plain)
        monkeypatch.setenv("HYPERCOV_SEED", "5")
        assert run_cli(capsys, *shlex.split(CLOSED_FORM)) == (0, plain)

    def test_hash_ignores_out_and_workers(self, capsys, tmp_path):
        _, plain = run_cli(capsys, "gen", "--d", "2", "--n", "4", "--kind", "lhs", "--k", "1", "--seed", "0")
        target = tmp_path / "o.csv"
        run_cli(capsys, "gen", "--d", "2", "--n", "4", "--kind", "lhs", "--k", "1", "--seed", "0", "--out", str(target))
        assert target.read_text() == plain


class TestSeedResolution:
    def test_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERCOV_SEED", "42")
        _, out = run_cli(capsys, "gen", "--d", "2", "--n", "4", "--kind", "lhs", "--k", "2")
        assert out == GOLDEN_GEN

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERCOV_SEED", "999")
        _, out = run_cli(capsys, "gen", "--d", "2", "--n", "4", "--kind", "lhs", "--k", "2", "--seed", "42")
        assert out == GOLDEN_GEN

    def test_default_seed_zero(self, capsys, monkeypatch):
        monkeypatch.delenv("HYPERCOV_SEED", raising=False)
        _, out = run_cli(capsys, "gen", "--d", "2", "--n", "4", "--kind", "lhs", "--k", "1")
        assert "# seed=0" in out

    @pytest.mark.parametrize("env", ["", "abc", "1.5", "0x10"])
    def test_env_seed_not_an_integer_exits_2(self, capsys, monkeypatch, env):
        # An empty value used to print only "invalid literal for int()".
        monkeypatch.setenv("HYPERCOV_SEED", env)
        code = main(["gen", "--d", "2", "--n", "4", "--k", "1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: HYPERCOV_SEED must be an integer, got {env!r}\n"

    def test_env_seed_unread_by_closed_form_sweep(self, capsys, monkeypatch):
        # A closed-form sweep reads no seed, so even a bad value is not looked at.
        monkeypatch.setenv("HYPERCOV_SEED", "abc")
        code, out = run_cli(capsys, *shlex.split(CLOSED_FORM))
        assert code == 0
        assert "# seed=0" in out


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        code, _ = run_cli(capsys, "gen", "--d", "2", "--kind", "lhs", "--k", "1")
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_bad_target_spec(self, capsys):
        code, _ = run_cli(
            capsys, "simulate", "--kind", "lhs", "--d", "2", "--n", "4",
            "--k", "1", "--reps", "1", "--target", "nope:xyz",
        )
        assert code == 2

    @pytest.mark.parametrize("target", ["proj:x", "edge:a,b,1,1", "edge:1,2"])
    def test_bad_target_numbers(self, capsys, target):
        code, _ = run_cli(
            capsys, "simulate", "--kind", "lhs", "--d", "2", "--n", "4", "--p", "2",
            "--k", "1", "--reps", "1", "--target", target,
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            ("sweep --mode simulated --kind lhs --d 12 --t 12 --levels 1.0 --n-grid 3,4,5 --reps 1", 3,
             "full coverage takes about 2437643 trials, past guard 1000000"),
            ("oracle --mode cover --kind os --d 2 --n 4 --p 2 --k 1 --edge 1,2", 2,
             "edge comparisons are defined for the lhs ensemble"),
            ("sweep --mode closed-form --kind os --d 2 --t 2 --levels 0.5 --n-grid 1,4,9", 2,
             "n must be >= 2, got 1"),
            ("oracle --mode cover --kind lhs --d 2 --n 3 --k 1 --edge 1", 2,
             "an edge needs i,j or i,j,pi,pj, got '1'"),
            ("oracle --mode cover --kind lhs --d 2 --n 3 --k 1 --edge 2,1", 2, "need 1 <= i < j, got (2, 1)"),
            ("oracle --mode cover --kind lhs --d 2 --n 3 --k 1 --edge 1,2,0,1", 2, "coarse bands must be >= 1"),
            ("exact --kind lhs --d 2 --n 3 --k 1 --format decimal:0", 2, "decimal digits must be >= 1"),
            ("exact --kind lhs --d 2 --n 3 --k 1 --format hex", 2,
             "--format must be rational or decimal:<digits>, got 'hex'"),
            ("simulate --kind lhs --d 2 --n 4 --p 2 --k 1 --reps 1 --target edge:1", 2,
             "an edge needs i,j or i,j,pi,pj, got '1'"),
            ("exact --kind lhs --d 2 --n 3 --k 1 --config LIST", 2, "config file must hold a JSON object"),
        ],
    )
    def test_refusal(self, capsys, tmp_path, argv, code, message):
        listed = tmp_path / "list.json"
        listed.write_text("[1, 2]")
        got = main(argv.replace("LIST", str(listed)).split())
        captured = capsys.readouterr()
        assert (got, captured.out, captured.err) == (code, "", f"error: {message}\n")

    def test_io_error_exit(self, capsys):
        code, _ = run_cli(
            capsys, "gen", "--d", "2", "--n", "4", "--kind", "lhs", "--k", "1",
            "--out", "/nonexistent-dir/x.csv",
        )
        assert code == 5


# Every option string and choice list of each subcommand. The flag table in
# cli.py generates the parser; this pins what it must generate.
OPTIONS = {
    "gen": {"--kind": ["lhs", "os"], "--d": None, "--n": None, "--p": None, "--k": None,
            "--seed": None, "--format": ["csv", "json"]},
    "exact": {"--kind": ["lhs", "os", "edge", "edge-subblock"], "--d": None, "--n": None,
              "--p": None, "--m": None, "--k": None, "--format": None},
    "law": {"--model": ["iid", "asymptotic", "conjecture", "bracket"],
            "--kind": ["lhs", "os", "edge", "edge-subblock"], "--d": None, "--n": None,
            "--p": None, "--t": None, "--k": None},
    "simulate": {"--kind": ["lhs", "os"], "--d": None, "--n": None, "--p": None, "--k": None,
                 "--reps": None, "--target": None, "--dims": None, "--seed": None,
                 "--workers": None},
    "oracle": {"--kind": ["lhs", "os"], "--d": None, "--n": None, "--p": None,
               "--mode": ["intersect", "cover", "occurrence"], "--m": None, "--k": None,
               "--edge": None},
    "sweep": {"--kind": ["lhs", "os"], "--d": None, "--t": None, "--levels": None,
              "--n-grid": None, "--mode": ["closed-form", "simulated"], "--reps": None,
              "--seed": None},
    "verify": {},
}

# The routes of each subcommand, in the order they are tried: the flags
# (and values) that pick one, then the flags it reads, "!" marking those
# it requires. Written out here, not read from cli.py's table.
ROUTES = {
    "gen": {"": "kind d! n! p k seed format"},
    "exact": {"--m": "kind! d! n! p m! format", "--k": "kind! d! n! p k! format"},
    "law": {
        "--model bracket": "model! kind! d! n! p k!",
        "--model iid --t": "model! d n! t! k!",
        "--model asymptotic --t": "model! d n! t! k!",
        "--model iid --kind": "model! kind! d! n! p k!",
        "--model asymptotic --kind": "model! kind! d! n! p k!",
        "--model conjecture": "model! d n! t! k!",
    },
    "simulate": {"": "kind d! n! p k! reps! target dims seed workers"},
    "oracle": {
        "--mode intersect": "kind d! n! p mode! m! edge",
        "--mode cover": "kind d! n! p mode! k! edge",
        "--mode occurrence": "kind d! n! p mode! edge",
    },
    "sweep": {
        "--mode closed-form": "kind d! t! levels! n-grid! mode!",
        "--mode simulated": "kind d! t! levels! n-grid! mode! reps seed",
    },
    "verify": {"": ""},
}

# A value each flag takes on every subcommand that has it.
VALUES = {
    "--kind": "lhs", "--d": "2", "--n": "4", "--p": "2", "--t": "2", "--m": "1", "--k": "1",
    "--reps": "2", "--levels": "0.5", "--n-grid": "8,27,64", "--target": "full", "--dims": "1,2",
    "--edge": "1,2", "--seed": "1", "--format": "csv", "--workers": "1",
}


def _reads(sub, route):
    """(every option the route reads, those it requires)."""
    words = ROUTES[sub][route].split()
    return {f"--{w.rstrip('!')}" for w in words}, [f"--{w[:-1]}" for w in words if w.endswith("!")]


def _route_values(route):
    """The values a route's words give their flags."""
    words = route.split()
    return {w: v for w, v in zip(words, words[1:] + [""]) if w.startswith("--") and not v.startswith("--")}


def _route_of(words):
    """The first route whose words the command line holds."""
    given = _route_values(" ".join(words))
    for route in ROUTES[words[0]]:
        if all(flag in given and value in ("", given[flag]) for flag, value in _route_values(route).items()):
            return route


def _names(option, text):
    return re.search(rf"{re.escape(option)}(?![\w-])", text) is not None


class TestFlagSurface:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_options_and_choices(self):
        # --help lists each subcommand's options in this order.
        subparsers = build_parser()._subparsers._group_actions[0].choices
        assert list(subparsers) == list(OPTIONS)
        for name, sp in subparsers.items():
            got = [
                (opt, list(action.choices) if action.choices else None)
                for action in sp._actions
                for opt in action.option_strings
                if opt not in ("-h", "--help")
            ]
            assert got == list({**OPTIONS[name], "--config": None, "--out": None}.items()), name

    @pytest.mark.parametrize("sub", list(OPTIONS))
    def test_help_exits_0(self, capsys, sub):
        assert main([sub, "--help"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: hypercov {sub}")

    def test_routes_name_every_option(self):
        for sub, routes in ROUTES.items():
            assert set().union(*(_reads(sub, r)[0] for r in routes)) == set(OPTIONS[sub]), sub

    def test_readme_route_table(self):
        # The README's table lists each route's flags apart from --model or --mode.
        cells = [
            [c.strip().strip("`") for c in re.split(r"(?<!\\)\|", line)[1:-1]]
            for line in README.read_text().splitlines()
            if line.startswith("| `")
        ]
        got = {}
        for route, required, optional in cells:
            sub, _, words = route.partition(" ")
            for model in ("iid", "asymptotic"):
                got[(sub, words.replace("iid\\|asymptotic", model))] = (set(required.split()), set(optional.split()))
        want = {}
        for sub, routes in ROUTES.items():
            for route in routes:
                read, required = _reads(sub, route)
                chosen = {flag for flag, value in _route_values(route).items() if value}
                want[(sub, route)] = (set(required) - chosen, read - set(required))
        assert got == want

    @pytest.mark.parametrize("sub,route", [(s, r) for s, routes in ROUTES.items() for r in routes])
    def test_route_reads_and_requires(self, sub, route):
        read, required = _reads(sub, route)
        picked = _route_values(route)
        base = [sub] + [w for opt in required for w in (opt, picked.get(opt) or VALUES[opt])]
        parser = build_parser()
        label = " ".join([sub, route]).strip()
        resolve_params(sub, parser.parse_args(base))
        for opt in sorted(read - set(required)):
            resolve_params(sub, parser.parse_args(base + [opt, VALUES[opt]]))
        for opt in required:
            i = base.index(opt)
            with pytest.raises(StructuralError) as refused:
                resolve_params(sub, parser.parse_args(base[:i] + base[i + 2 :]))
            assert _names(opt, str(refused.value)), (opt, str(refused.value))
        for opt in sorted(set(OPTIONS[sub]) - read):
            with pytest.raises(StructuralError) as refused:
                resolve_params(sub, parser.parse_args(base + [opt, VALUES[opt]]))
            message = str(refused.value)
            # A flag that picks another route is named in that route's label.
            assert _names(opt, message) and " is not read by " in message, (opt, message)
            if message.startswith(f"{opt} "):
                assert message == f"{opt} is not read by {label}"

    def test_readme_commands_parse(self):
        commands = _readme_commands()
        assert len(commands) >= 18
        parser = build_parser()
        for command in commands:
            args = parser.parse_args(shlex.split(command))
            resolve_params(args.subcommand, args)


def _readme_commands() -> list[str]:
    return re.findall(r"^hypercov (.+)$", README.read_text(), flags=re.MULTILINE)


def _drop_one_flag() -> list[list[str]]:
    """Every README command with one flag (and its value) left out."""
    cases = []
    for command in _readme_commands():
        words = shlex.split(command)
        flags = [i for i, w in enumerate(words) if w.startswith("--")]
        for i in flags:
            has_value = i + 1 < len(words) and not words[i + 1].startswith("--")
            cases.append(words[:i] + words[i + 1 + has_value :])
    return cases


@pytest.mark.parametrize("argv", _drop_one_flag(), ids=" ".join)
def test_readme_command_without_one_flag_exits_cleanly(capsys, argv):
    # A missing flag is a default or a refusal, never a traceback.
    assert main(argv) in (0, 2, 3, 4, 5)
    capsys.readouterr()


def _add_one_unread_flag() -> list[tuple[list[str], str]]:
    """Every README command with one flag its route does not read added."""
    cases = []
    for command in _readme_commands():
        words = shlex.split(command)
        read, _ = _reads(words[0], _route_of(words))
        cases += [(words + [opt, VALUES[opt]], opt) for opt in OPTIONS[words[0]] if opt not in read]
    return cases


@pytest.mark.parametrize("argv,flag", _add_one_unread_flag(), ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_readme_command_with_an_unread_flag_exits_2(capsys, argv, flag):
    # An unread flag would otherwise change the config hash and nothing else.
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert _names(flag, captured.err), captured.err


@pytest.mark.parametrize(
    "argv, flag",
    [
        ("law --model iid --kind os --t 2 --n 100 --k 1", "--kind"),
        ("law --model conjecture --kind lhs --t 2 --n 100 --k 1", "--kind"),
        ("oracle --kind lhs --d 2 --n 3 --mode cover --k 2 --m 5", "--m"),
        ("oracle --kind lhs --d 2 --n 3 --mode occurrence --k 2", "--k"),
        (f"{CLOSED_FORM} --reps 7 --seed 3", "--reps"),
    ],
)
def test_unread_flag_exits_2(capsys, argv, flag):
    # Each exited 0 with the payload of the run without the flag, under
    # another config hash.
    code = main(shlex.split(argv))
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"error: {flag} is not read by ")


class TestCanonicalConfig:
    def test_key_order_is_stable(self):
        a = canonical_config_json(RunConfig("gen", {"d": 2, "n": 4, "seed": 0}))
        b = canonical_config_json(RunConfig("gen", {"seed": 0, "n": 4, "d": 2}))
        assert a == b
        assert config_hash(RunConfig("gen", {"d": 2, "n": 4, "seed": 0})) == config_hash(
            RunConfig("gen", {"seed": 0, "n": 4, "d": 2})
        )

    def test_hash_is_twelve_hex(self):
        h = config_hash(RunConfig("gen", {"d": 2}))
        assert len(h) == 12
        int(h, 16)


def test_module_entry_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "hypercov.cli", "exact", "--kind", "lhs", "--d", "2", "--n", "2", "--k", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "2,3" in proc.stdout


def test_cli_import_loads_neither_mpmath_nor_the_process_pool():
    # Both cost import time on every run: mpmath is not a runtime
    # dependency, and the pool is imported only when simulate uses one.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, hypercov.cli; "
         "print(sorted({'mpmath', 'concurrent.futures'} & set(sys.modules)))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


NUMPY_FREE_RUNS = [
    "exact --kind lhs --d 2 --n 10 --k 4",
    "law --model iid --t 2 --n 100 --k 1",
    "law --model bracket --kind lhs --d 2 --n 100 --k 64,128",
    CLOSED_FORM,
    "verify",
    "oracle --mode cover --kind os --d 2 --n 4 --p 2 --k 2",
]


def test_counting_runs_never_import_numpy():
    # Start-up, exact values, the laws, closed-form sweeps and the oracle
    # use ints and Fractions only; numpy comes in with the first run that
    # draws trials.
    code = """
import contextlib, io, shlex, sys
from hypercov.cli import build_parser, main
build_parser()
loaded = ["numpy" in sys.modules]
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(shlex.split(argv)) == 0, argv
    loaded.append("numpy" in sys.modules)
print(loaded)
"""
    simulate_run = "simulate --d 2 --n 10 --k 3 --reps 2"
    proc = subprocess.run(
        [sys.executable, "-c", code, *NUMPY_FREE_RUNS, simulate_run], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str([False] * (1 + len(NUMPY_FREE_RUNS)) + [True])


def _imported_modules(path: Path) -> set[str]:
    """Modules a source file imports anywhere in its body; relative ones
    keep their leading dot."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or ""))
    return names


def test_only_the_modules_that_draw_trials_import_numpy():
    # The oracle checks the sampler, so it must not share its code.
    imports = {path.stem: _imported_modules(path) for path in Path(cli.__file__).parent.glob("*.py")}
    numpy_users = {name for name, mods in imports.items() if any(m.split(".")[0] == "numpy" for m in mods)}
    assert numpy_users == {"rng", "sampling", "simulate", "sweep"}
    assert not imports["oracle"] & {".sampling", ".rng", ".simulate", ".sweep"}
