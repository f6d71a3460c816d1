#!/usr/bin/env python3
"""hypercov benchmark: CLI workloads run in-process through `hypercov.cli.main`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all     # every workload, untraced and traced

Run it from the root of a checkout; it imports the package from `src/`.

Both modes first run the workload's smoke invocations once, untimed, so
lazy imports and first-call set-up are done. Untraced (`--trace 0`):
measures set-up time in fresh interpreters, then repeats passes over the
workload's invocations until S seconds have passed and reports the
end-to-end metrics of BENCHMARK.json. Traced (`--trace 1`): alternates
untraced and traced passes for S seconds and reports the per-layer
metrics; spans are written to `perfbench/out/`.

Times are reported at a fixed host speed. On a shared host the speed of
the same code drifts by up to a factor of two over seconds to minutes,
so a fixed big-integer computation (`probe`) samples the host's speed
before, during and after every timed invocation and set-up sample, and
the time is scaled by PROBE_NOMINAL_S over the mean probe time (see
`SpeedProbe`). The raw times are printed beside them.

Every invocation must exit 0 within its deadline and print the payload
whose sha256 (over lines not starting with '#') is in golden.json;
otherwise it counts as failed. The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy

import layers
from workloads import DEADLINE_S, SEED_SLOTS, WORKLOADS, Invocation, cli_seed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden.json"
OUT_DIR = BENCH_DIR / "out"

SETUP_SAMPLES = 7
# Smoke invocations are tiny, so a short deadline keeps the self-test quick.
SMOKE_DEADLINE_S = 5.0
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import hypercov.cli as c; c.build_parser(); print(c.__file__)"
)


# Fraction products of numbers with ~10^4 digits: among the probes tried
# (a pure-Python dict loop, numpy argsort and unique in cache, a 16 MB
# sort) this one followed the drift of the four workloads most closely.
PROBE_A = 3**20000 + 1
PROBE_B = 7**14000 + 3
# About the median probe time on a 2-vCPU Xeon VM at 2.1 GHz, so that
# reported times are close to that host's typical wall times.
PROBE_NOMINAL_S = 0.010
# The host's speed changes within a multi-second invocation, so it is
# also sampled inside one, every this many seconds of process CPU time.
PROBE_PERIOD_S = 0.25
# Probes taken on entering and on leaving a timed block. A set-up sample
# runs in a child process and gets no probes in between.
PROBE_BRACKET = 3


def probe() -> float:
    """Seconds the fixed host-speed probe takes now."""
    start = time.perf_counter()
    Fraction(PROBE_A, PROBE_B) * Fraction(PROBE_A + 1, PROBE_B + 1)
    return time.perf_counter() - start


class SpeedProbe:
    """Times the code in its `with` block at nominal host speed.

    Probes the host PROBE_BRACKET times on entry and on exit and, from a
    SIGPROF handler, once every PROBE_PERIOD_S of CPU time in between.
    `raw` is the block's wall time without the probes; `nominal` scales it
    by PROBE_NOMINAL_S over the mean probe time."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.raw = self.nominal = 0.0
        self._start = self._spent = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self.samples.append(probe())
        self._spent += time.perf_counter() - start

    def __enter__(self) -> SpeedProbe:
        for _ in range(PROBE_BRACKET):
            self._sample()
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_PERIOD_S, PROBE_PERIOD_S)
        self._start, self._spent = time.perf_counter(), 0.0
        return self

    def __exit__(self, *exc) -> None:
        self.raw = time.perf_counter() - self._start - self._spent
        signal.setitimer(signal.ITIMER_PROF, 0)
        for _ in range(PROBE_BRACKET):
            self._sample()
        self.nominal = self.raw * PROBE_NOMINAL_S / statistics.mean(self.samples)


class DeadlineExceeded(Exception):
    pass


def _alarm(signum, frame):
    raise DeadlineExceeded


def payload_hash(text: str) -> str:
    body = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    return hashlib.sha256(body.encode()).hexdigest()


@dataclass
class Outcome:
    digest: str | None
    error: str | None


def invoke(cli, argv: list[str], deadline_s: float) -> Outcome:
    """Run one CLI invocation in this process, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            error = f"exit code {code}: {err.getvalue().strip()[:200]}"
    except DeadlineExceeded:
        error = f"missed its {deadline_s:g} s deadline"
    except Exception as exc:  # a crash of the program under test is a counted failure
        error = f"raised {type(exc).__name__}: {str(exc)[:200]}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return Outcome(None if error else payload_hash(out.getvalue()), error)


def golden_key(inv: Invocation, seed: int) -> str:
    return str(seed % SEED_SLOTS) if inv.seeded else "*"


def import_cli():
    """Import hypercov.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "hypercov" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'hypercov'} not found; run from a hypercov checkout")
    sys.path.insert(0, str(SRC))
    import hypercov.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "hypercov":
        sys.exit(f"error: imported {cli.__file__}, not the checkout's package")
    signal.signal(signal.SIGALRM, _alarm)
    return cli


def metadata() -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in (SRC / "hypercov").glob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
    }


def measure_setup(samples: int) -> tuple[list[float], list[float]]:
    """Seconds for a fresh interpreter to import hypercov.cli and build the
    parser, raw and at nominal host speed."""
    raw, nominal = [], []
    for _ in range(samples):
        with SpeedProbe() as speed:
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT, capture_output=True, text=True
            )
        if proc.returncode != 0 or not proc.stdout.startswith(str(SRC)):
            sys.exit(f"error: set-up probe failed: {proc.stderr.strip()[-300:]}")
        raw.append(speed.raw)
        nominal.append(speed.nominal)
    return raw, nominal


@dataclass
class Pass:
    wall: float  # seconds inside the invocations
    nominal: float  # the same at nominal host speed; 0 for a traced pass
    failures: list[str]


def run_pass(cli, invocations, seed, golden, deadline_s, tracer=None) -> Pass:
    """One pass over the invocations. Untraced, each is timed by a
    SpeedProbe; traced, by the clock alone, so that probes do not land in
    the spans."""
    done = Pass(0.0, 0.0, [])
    for number, inv in enumerate(invocations):
        if tracer is None:
            with SpeedProbe() as speed:
                outcome = invoke(cli, inv.bind(cli_seed(seed)), deadline_s)
            done.wall += speed.raw
            done.nominal += speed.nominal
        else:
            tracer.invocation = number
            start = time.perf_counter()
            outcome = invoke(cli, inv.bind(cli_seed(seed)), deadline_s)
            done.wall += time.perf_counter() - start
        error = outcome.error
        if error is None and outcome.digest != golden.get(inv.name, {}).get(golden_key(inv, seed)):
            error = "payload differs from its golden hash"
        if error is not None:
            done.failures.append(f"{inv.name}: {error}")
    return done


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest of p99/p95/p90/p75/p50 with at least ten samples above it."""
    ordered = sorted(samples)
    for q in (99, 95, 90, 75, 50):
        rank = math.ceil(q / 100 * len(ordered))
        if rank >= 1 and len(ordered) - rank >= 10:
            return q, ordered[rank - 1]
    return None


def declared_metrics(section: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[section]


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    workload = WORKLOADS[name]
    invocations = workload.smoke if smoke else workload.invocations
    deadline_s = SMOKE_DEADLINE_S if smoke else DEADLINE_S
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)["hashes"]["smoke" if smoke else "full"][name]

    cli = import_cli()
    meta = " ".join(f"{k}={v}" for k, v in metadata().items())
    print(f"# {name} seed={seed} cli_seed={cli_seed(seed)} trace={int(trace)} {meta}")
    start = time.perf_counter()
    for inv in workload.smoke:  # warm-up, untimed and unchecked
        invoke(cli, inv.bind(cli_seed(seed)), SMOKE_DEADLINE_S)
    setup_raw, setup = ([], []) if trace else measure_setup(SETUP_SAMPLES)

    passes, traced_passes, traced = [], [], []
    rounds_start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, invocations, seed, golden, deadline_s))
        if trace:
            tracer = layers.Tracer()
            tracer.install()
            try:
                traced_passes.append(run_pass(cli, invocations, seed, golden, deadline_s, tracer))
            finally:
                tracer.uninstall()
            traced.append(tracer.spans)
        # Stop before a further round would run past the measuring time.
        now = time.perf_counter()
        if now - start + (now - rounds_start) / len(passes) > seconds:
            break

    failures = [f for p in passes + traced_passes for f in p.failures]
    attempted = len(invocations) * (len(passes) + len(traced_passes))

    for failure in failures:
        print(f"FAILED {failure}")
    print(f"fail_ratio {len(failures)}/{attempted}")
    if trace:
        computed = trace_report(
            name, seed, invocations, traced, [p.wall for p in passes], [p.wall for p in traced_passes]
        )
        defects = 0
        for inv in workload.known_defects:
            outcome = invoke(cli, inv.bind(cli_seed(seed)), deadline_s)
            defects += outcome.error is not None
            print(f"known defect {inv.name}: {outcome.error or 'ran without error'}")
        computed["cli.defect_failures"] = defects
    else:
        walls = [p.nominal for p in passes]
        tail = tail_percentile(walls)
        tail_text = f"p{tail[0]} {tail[1]:.4f} s" if tail else "no percentile has 10 samples above it"
        print(f"wall_s over {len(walls)} passes: median {statistics.median(walls):.4f} s, {tail_text}")
        print("pass walls at nominal speed: " + " ".join(f"{w:.4f}" for w in walls))
        print("pass walls raw: " + " ".join(f"{p.wall:.4f}" for p in passes))
        print(f"setup_s raw median {statistics.median(setup_raw):.4f} s over {len(setup_raw)} interpreters")
        computed = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    declared = declared_metrics("per_layer" if trace else "end_to_end")
    if {m["name"] for m in declared} != set(computed):
        sys.exit(f"error: computed metrics {sorted(computed)} differ from BENCHMARK.json")
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in declared}
    for key, m in metrics.items():
        print(f"{key} {m['value']} {m['unit']}")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}


def trace_report(name, seed, invocations, traced, walls, traced_walls) -> dict:
    """Per-layer metrics (median over traced passes) and a per-invocation table."""
    computed = layers.median_metrics([layers.layer_metrics(spans) for spans in traced])
    computed["trace.wall_s"] = statistics.median(traced_walls)
    computed["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    for number, shares in sorted(layers.invocation_shares(traced[-1]).items()):
        ranked = sorted(shares.items(), key=lambda item: -item[1])
        row = ", ".join(f"{layer} {s:.3f}" for layer, s in ranked)
        print(f"self seconds {invocations[number].name}: {row}")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{name}-seed{seed}.jsonl"
    layers.write_spans(path, traced)
    print(f"spans of {len(traced)} traced passes written to {path.relative_to(ROOT)}")
    return computed


def run_all(seed: int, seconds: float, smoke: bool) -> dict:
    """Each workload in its own process, untraced then traced."""
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)] + (["--smoke"] if smoke else [])
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0:
                sys.exit(f"error: {name} trace={trace} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
            results[f"{name}/trace{trace}"] = json.loads(lines[-1])
    print("# summary")
    for key, res in results.items():
        row = ", ".join(f"{m} {v['value']:.6g} {v['unit']}" for m, v in res["metrics"].items())
        print(f"{key}: fail_ratio {res['failed']}/{res['attempted']}, {row}")
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {key: r["metrics"] for key, r in results.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny invocations, for the self-test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.smoke)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
