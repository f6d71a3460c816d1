"""Acceptance gate: ten end-to-end checks at fixed tolerances.

Each test prints exactly one pass/fail line (past pytest's capture), so
a full run reads as a checklist. Criteria 5 through 8 drive the
installed command line interface through subprocesses and parse its CSV
output; criterion 10 reruns every one of those invocations and demands
byte-identical output.
"""

import csv
import math
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from reference_checks import paper_kind_params, trials_holding

from hypercov.design import DesignSpec, Units
from hypercov.exact import (
    IntersectionKind,
    expected_coverage_multiset,
    expected_intersection,
    kind_params,
)
from hypercov.laws import bracket_exact_vs_asymptotic
from hypercov.oracle import (
    enumerate_trials,
    oracle_expected_coverage,
    oracle_expected_intersection,
)
from hypercov.sampling import SampleKind

SEED = 20260816

# Every CLI invocation used by criteria 5 through 8; criterion 10
# replays all of them.
CLI_RUNS = {
    "lhs-n100": [
        "simulate", "--kind", "lhs", "--d", "2", "--n", "100", "--k", "100",
        "--reps", "1000", "--seed", str(SEED), "--target", "full",
    ],
    "os-p10": [
        "simulate", "--kind", "os", "--d", "2", "--n", "100", "--p", "10",
        "--k", "100", "--reps", "1000", "--seed", str(SEED), "--target", "full",
    ],
    "os-d3-proj2": [
        "simulate", "--kind", "os", "--d", "3", "--n", "27", "--p", "3",
        "--k", "27", "--reps", "1000", "--seed", str(SEED), "--target", "proj:2",
    ],
    "sweep-closed-t2": [
        "sweep", "--mode", "closed-form", "--kind", "lhs", "--d", "3", "--t", "2",
        "--levels", "0.5", "--n-grid", "64,128,256,512",
    ],
    "sweep-closed-t3": [
        "sweep", "--mode", "closed-form", "--kind", "lhs", "--d", "3", "--t", "3",
        "--levels", "0.5", "--n-grid", "64,128,256,512",
    ],
    "sweep-sim-t2": [
        "sweep", "--mode", "simulated", "--kind", "lhs", "--d", "3", "--t", "2",
        "--levels", "0.5", "--n-grid", "8,27,64", "--reps", "200", "--seed", str(SEED),
    ],
    "sweep-full-coverage": [
        "sweep", "--mode", "simulated", "--kind", "lhs", "--d", "2", "--t", "2",
        "--levels", "1.0", "--n-grid", "8,16,32", "--reps", "100", "--seed", str(SEED),
    ],
    "verify": ["verify"],
}


def _invoke(argv):
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "hypercov.cli", *argv], capture_output=True
    )
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout, elapsed


@pytest.fixture(scope="module")
def cli_runs():
    return {name: _invoke(argv) for name, argv in CLI_RUNS.items()}


@pytest.fixture
def report(capsys):
    def _report(tag, ok, detail):
        line = f"[acceptance] {tag}: {'PASS' if ok else 'FAIL'} ({detail})"
        with capsys.disabled():
            print(line)
        assert ok, line

    return _report


def parse_simulate(out: bytes) -> dict:
    lines = [l for l in out.decode().splitlines() if l and not l.startswith("#")]
    rows = list(csv.reader(lines))
    return dict(zip(rows[0], rows[1]))


def parse_sweep(out: bytes):
    text = out.decode()
    tidy_part, summary_part = text.split("# summary\n")
    tidy_lines = [l for l in tidy_part.splitlines() if l and not l.startswith("#")]
    tidy = [dict(zip(tidy_lines[0].split(","), row)) for row in csv.reader(tidy_lines[1:])]
    summary_lines = summary_part.strip().splitlines()
    summary = dict(zip(summary_lines[0].split(","), next(csv.reader([summary_lines[1]]))))
    return tidy, summary


def test_criterion_01_intersections_match_enumeration(report):
    started = time.monotonic()
    grid = [
        (IntersectionKind.LHS_TUPLE, DesignSpec(2, 2), SampleKind.LHS, Units(), (1, 2, 3)),
        (IntersectionKind.LHS_TUPLE, DesignSpec(2, 3), SampleKind.LHS, Units(), (1, 2, 3)),
        (IntersectionKind.LHS_TUPLE, DesignSpec(3, 2), SampleKind.LHS, Units(), (1, 2)),
        (IntersectionKind.OS_TUPLE, DesignSpec(2, 4, p=2), SampleKind.OS, Units(), (1, 2)),
        (IntersectionKind.LH_EDGE_ALL, DesignSpec(3, 2), SampleKind.LHS, (Units(2, (1, 2)), Units(2, (1, 3)), Units(2, (2, 3))), (1, 2)),
    ]
    checked = 0
    for kind, spec, sample_kind, projection, ms in grid:
        ts = enumerate_trials(spec, sample_kind)
        for m in ms:
            assert oracle_expected_intersection(ts, m, projection=projection) == expected_intersection(kind, spec, m)
            checked += 1
    # Three hand-derived anchors on top of the cross-check.
    assert expected_intersection(IntersectionKind.LHS_TUPLE, DesignSpec(2, 2), 2) == Fraction(4, 3)
    assert expected_intersection(IntersectionKind.LHS_TUPLE, DesignSpec(2, 3), 2) == Fraction(9, 7)
    assert expected_intersection(IntersectionKind.OS_TUPLE, DesignSpec(2, 4, p=2), 2) == Fraction(20, 17)
    elapsed = time.monotonic() - started
    report(
        "01 intersection moments vs enumeration",
        checked == 12 and elapsed < 60,
        f"{checked} exact matches in {elapsed:.2f}s, budget 60s",
    )


def test_criterion_02_coverage_matches_enumeration(report):
    started = time.monotonic()
    grid = [
        (IntersectionKind.LHS_TUPLE, DesignSpec(2, 2), SampleKind.LHS, Units(), (1, 2, 3)),
        (IntersectionKind.LHS_TUPLE, DesignSpec(2, 3), SampleKind.LHS, Units(), (1, 2)),
        (IntersectionKind.OS_TUPLE, DesignSpec(2, 4, p=2), SampleKind.OS, Units(), (1, 2)),
        (IntersectionKind.LH_EDGE_ALL, DesignSpec(3, 2), SampleKind.LHS, (Units(2, (1, 2)), Units(2, (1, 3)), Units(2, (2, 3))), (1, 2)),
    ]
    checked = 0
    for kind, spec, sample_kind, projection, ks in grid:
        ts = enumerate_trials(spec, sample_kind)
        for k in ks:
            assert oracle_expected_coverage(ts, k, projection=projection) == expected_coverage_multiset(kind, spec, k)
            checked += 1
    assert expected_coverage_multiset(IntersectionKind.LHS_TUPLE, DesignSpec(2, 2), 2) == Fraction(2, 3)
    assert expected_coverage_multiset(IntersectionKind.OS_TUPLE, DesignSpec(2, 4, p=2), 2) == Fraction(29, 68)
    elapsed = time.monotonic() - started
    report(
        "02 expected coverage vs enumeration",
        checked == 9 and elapsed < 60,
        f"{checked} exact matches in {elapsed:.2f}s, budget 60s",
    )


def test_criterion_03_counting_identities(report):
    c_os = kind_params(IntersectionKind.OS_TUPLE, DesignSpec(2, 4, p=2)).b
    c_lh = kind_params(IntersectionKind.LHS_TUPLE, DesignSpec(2, 3)).b
    per_tuple_lh = kind_params(IntersectionKind.LHS_TUPLE, DesignSpec(2, 3)).a
    per_tuple_os = kind_params(IntersectionKind.OS_TUPLE, DesignSpec(2, 4, p=2)).a
    per_edge = kind_params(IntersectionKind.LH_EDGE_ALL, DesignSpec(3, 2)).a
    # Independent recount by enumeration: how many trials, as columns,
    # hold a fixed point or a fixed value pair on axes (1, 2).
    lh_trials = enumerate_trials(DesignSpec(2, 3), SampleKind.LHS).trials
    os_trials = enumerate_trials(DesignSpec(2, 4, p=2), SampleKind.OS).trials
    d3_trials = enumerate_trials(DesignSpec(3, 2), SampleKind.LHS).trials
    ok = (
        c_os == 16
        and c_lh == len(lh_trials) == 6
        and per_tuple_lh == trials_holding(lh_trials, (2, 3)) == 2
        and per_tuple_os == trials_holding(os_trials, (1, 2)) == 4
        and per_edge == trials_holding(d3_trials, (1, 2)) == 2
        and len(os_trials) == 16
    )
    report(
        "03 trial counting identities",
        ok,
        f"os total {c_os}, lh total {c_lh}, containment {per_tuple_lh}/{per_tuple_os}/{per_edge}",
    )


def test_criterion_04_rate_equivalence(report):
    # a/b from the paper's counting formulas, which kind_params is checked
    # against (test_exact); kind_params itself takes a = b / n^(t-1).
    def rate(kind, spec):
        a, b, _ = paper_kind_params(kind.value, spec.d, spec.n, spec.p)
        return Fraction(a, b)

    checked = 0
    for p in (2, 3):
        for d in (2, 3):
            spec = DesignSpec(d, p**d, p=p)
            want = Fraction(1, spec.n ** (d - 1))
            assert rate(IntersectionKind.LHS_TUPLE, spec) == want
            assert rate(IntersectionKind.OS_TUPLE, spec) == want
            checked += 1
    for d in (2, 3, 4):
        for n in (3, 5, 8):
            assert rate(IntersectionKind.LH_EDGE_ALL, DesignSpec(d, n)) == Fraction(1, n)
            checked += 1
    for p, d in ((2, 2), (3, 2), (2, 3), (2, 4)):
        spec = DesignSpec(d, p**d, p=p)
        assert rate(IntersectionKind.LH_EDGE_SUBBLOCK, spec) == Fraction(1, spec.n)
        checked += 1
    report(
        "04 per-cell rate equivalence",
        checked == 17,
        f"{checked} exact rational identities across designs",
    )


def test_criterion_05_lhs_simulation_matches_closed_form(report, cli_runs):
    out, elapsed = cli_runs["lhs-n100"]
    row = parse_simulate(out)
    mean, se = float(row["mean"]), float(row["se"])
    ref_iid = 1 - 0.99**100
    ref_asym = 1 - math.exp(-1.0)
    gap_iid = abs(mean - ref_iid)
    gap_asym = abs(mean - ref_asym)
    ok = gap_iid < 4 * se and gap_asym < 0.005 and elapsed < 120
    report(
        "05 lhs coverage at n=100, k=100",
        ok,
        f"mean {mean:.6f}, |mean-iid| {gap_iid:.2e} < 4se {4 * se:.2e}, "
        f"|mean-asym| {gap_asym:.4f} < 0.005, {elapsed:.1f}s of 120s",
    )


def test_criterion_06_lhs_and_os_indistinguishable(report, cli_runs):
    lhs_out, t1 = cli_runs["lhs-n100"]
    os_out, t2 = cli_runs["os-p10"]
    lhs, os_ = parse_simulate(lhs_out), parse_simulate(os_out)
    gap = abs(float(lhs["mean"]) - float(os_["mean"]))
    allowance = 4 * (float(lhs["se"]) + float(os_["se"]))
    ok = gap <= allowance and (t1 + t2) < 120
    report(
        "06 lhs vs os agreement at n=100",
        ok,
        f"|lhs-os| {gap:.2e} <= {allowance:.2e}, {t1 + t2:.1f}s of 120s",
    )


def test_criterion_07_projected_os_coverage(report, cli_runs):
    out, elapsed = cli_runs["os-d3-proj2"]
    row = parse_simulate(out)
    mean, se = float(row["mean"]), float(row["se"])
    ref = 1 - (1 - 1 / 27) ** 27
    gap = abs(mean - ref)
    ok = gap < 4 * se and elapsed < 120
    report(
        "07 os pair projection at n=27, k=27",
        ok,
        f"mean {mean:.6f} vs {ref:.6f}, gap {gap:.2e} < 4se {4 * se:.2e}, {elapsed:.1f}s of 120s",
    )


def test_criterion_08_threshold_growth_exponents(report, cli_runs):
    total = 0.0
    _, summary_t2 = parse_sweep(cli_runs["sweep-closed-t2"][0])
    _, summary_t3 = parse_sweep(cli_runs["sweep-closed-t3"][0])
    _, summary_sim = parse_sweep(cli_runs["sweep-sim-t2"][0])
    tidy_full, summary_full = parse_sweep(cli_runs["sweep-full-coverage"][0])
    for key in ("sweep-closed-t2", "sweep-closed-t3", "sweep-sim-t2", "sweep-full-coverage"):
        total += cli_runs[key][1]
    s2, s3, ssim = float(summary_t2["slope"]), float(summary_t3["slope"]), float(summary_sim["slope"])
    sfull = float(summary_full["slope"])
    full_ok = len(tidy_full) == 3 and all(float(r["k_star"]) > 0 for r in tidy_full) and math.isfinite(sfull)
    ok = abs(s2 - 1.0) < 0.05 and abs(s3 - 2.0) < 0.05 and abs(ssim - 1.0) < 0.15 and full_ok and total < 600
    report(
        "08 threshold growth exponents",
        ok,
        f"closed t=2 slope {s2:.3f} (1.00+-0.05), t=3 slope {s3:.3f} (2.00+-0.05), "
        f"simulated slope {ssim:.3f} (1.00+-0.15), full-coverage slope {sfull:.3f} reported, "
        f"{total:.1f}s of 600s",
    )


def test_criterion_09_bracket_bounds(report):
    started = time.monotonic()
    rows = []
    for k in (4, 8, 16):
        r = bracket_exact_vs_asymptotic(IntersectionKind.LHS_TUPLE, DesignSpec(3, 8), k)
        gap = abs(r.p_multiset - r.p_asym)
        rows.append((k, r.valid, gap, r.e1_bound + r.e2_bound))
        assert r.valid
        assert gap <= r.e1_bound + r.e2_bound
    elapsed = time.monotonic() - started
    detail = ", ".join(f"k={k}: gap {g:.2e} <= {b:.2e}" for k, _, g, b in rows)
    report("09 exact vs asymptotic bracket", elapsed < 60, f"{detail}, {elapsed:.2f}s of 60s")


def test_criterion_10_byte_stable_replay(report, cli_runs):
    verify_out, _ = cli_runs["verify"]
    assert b"# all 25 checks MATCH" in verify_out
    stable = []
    for name, argv in CLI_RUNS.items():
        rerun, _ = _invoke(argv)
        stable.append(rerun == cli_runs[name][0])
    ok = all(stable)
    report(
        "10 byte-stable replay",
        ok,
        f"{sum(stable)}/{len(stable)} invocations byte-identical on rerun, verify suite all MATCH",
    )
