"""The benchmark's workloads: the CLI invocations each one runs.

Each workload loads a different layer (the reasons are the `why` lines
in BENCHMARK.json). Shapes are taken from the acceptance runs and the
measured hot spots; replicate counts are scaled so that one pass over a
workload takes a few seconds and a run holds several passes.

`{seed}` in an argument list is replaced by the CLI seed that the
benchmark seed selects (see `cli_seed`). Invocations without it do not
depend on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

BASE_SEED = 20260816
# Golden payload hashes exist for this many CLI seeds; the benchmark seed
# picks one of them, so every benchmark seed has a checked payload.
SEED_SLOTS = 16
# Per-invocation deadline; past it the invocation counts as failed.
DEADLINE_S = 20.0


@dataclass(frozen=True)
class Invocation:
    name: str
    argv: tuple[str, ...]

    def bind(self, seed: int) -> list[str]:
        return [a.replace("{seed}", str(seed)) for a in self.argv]

    @property
    def seeded(self) -> bool:
        return any("{seed}" in a for a in self.argv)


@dataclass(frozen=True)
class Workload:
    invocations: tuple[Invocation, ...]
    # Tiny versions of the same subcommands, for the harness self-test.
    smoke: tuple[Invocation, ...]
    # Invocations that fail at the commit that defined the benchmark.
    # They run once per traced run, outside the timed passes, and are
    # reported as `cli.defect_failures` instead of being dropped.
    known_defects: tuple[Invocation, ...] = ()


def _inv(name: str, command: str) -> Invocation:
    return Invocation(name, tuple(command.split()))


def cli_seed(bench_seed: int) -> int:
    return BASE_SEED + bench_seed % SEED_SLOTS


WORKLOADS: dict[str, Workload] = {
    "sim-many-small": Workload(
        invocations=(
            _inv("lhs-n100", "simulate --kind lhs --d 2 --n 100 --k 100 --reps 300 --seed {seed} --target full"),
            _inv("os-p10", "simulate --kind os --d 2 --n 100 --p 10 --k 100 --reps 300 --seed {seed} --target full"),
            _inv("os-d3-proj2", "simulate --kind os --d 3 --n 27 --p 3 --k 27 --reps 300 --seed {seed} --target proj:2"),
            _inv(
                "lhs-d3-n100-k128",
                "simulate --kind lhs --d 3 --n 100 --k 128 --reps 60 --seed {seed} --target full --target proj:2",
            ),
        ),
        smoke=(
            _inv("lhs-n10", "simulate --kind lhs --d 2 --n 10 --k 10 --reps 5 --seed {seed} --target full"),
        ),
    ),
    "sim-few-large": Workload(
        invocations=(
            _inv(
                "os-d3-n1000",
                "simulate --kind os --d 3 --n 1000 --p 10 --k 1000 --reps 1 --seed {seed} --target full --target proj:2",
            ),
            # n^4 > 2^63, so keys take the row fallback (2.6M rows).
            _inv("lhs-d4-n65536", "simulate --kind lhs --d 4 --n 65536 --k 40 --reps 1 --seed {seed} --target full"),
        ),
        smoke=(
            _inv("lhs-d4-n65536-k1", "simulate --kind lhs --d 4 --n 65536 --k 1 --reps 1 --seed {seed} --target full"),
        ),
        # The replicate takes 0.1 s; the unused multiset reference does not
        # finish within the deadline.
        known_defects=(
            _inv("lhs-d3-n1000-k128", "simulate --kind lhs --d 3 --n 1000 --k 128 --reps 1 --seed {seed} --target full"),
        ),
    ),
    "exact-bracket": Workload(
        invocations=(
            _inv("bracket-lhs", "law --model bracket --kind lhs --d 2 --n 100 --k 64,128,256"),
            _inv("bracket-os", "law --model bracket --kind os --d 2 --n 100 --p 10 --k 256"),
            _inv("bracket-edge", "law --model bracket --kind edge --d 3 --n 50 --k 256"),
            _inv("exact-edge-subblock", "exact --kind edge-subblock --d 2 --n 16 --p 4 --k 256 --format rational"),
            _inv("verify", "verify"),
        ),
        smoke=(
            _inv("bracket-lhs-small", "law --model bracket --kind lhs --d 2 --n 10 --k 4,8"),
            _inv("verify", "verify"),
        ),
        # The numerator has more than 4300 digits, so printing it raises
        # ValueError out of cli.main.
        known_defects=(_inv("exact-lhs-k64", "exact --kind lhs --d 2 --n 100 --k 64"),),
    ),
    "sweep-thresholds": Workload(
        invocations=(
            _inv(
                "sim-t2",
                "sweep --mode simulated --kind lhs --d 3 --t 2 --levels 0.5,0.9 --n-grid 8,27,64,125 --reps 60 --seed {seed}",
            ),
            _inv(
                "full-coverage",
                "sweep --mode simulated --kind lhs --d 2 --t 2 --levels 1.0 --n-grid 8,16,32,64 --reps 30 --seed {seed}",
            ),
            # n up to 1e6 takes the 60-digit mpmath boundary check.
            _inv(
                "closed-form-1e6",
                "sweep --mode closed-form --kind lhs --d 3 --t 2 --levels 0.5,0.9 --n-grid 1000,10000,100000,1000000",
            ),
        ),
        smoke=(
            _inv("sim-t2-small", "sweep --mode simulated --kind lhs --d 3 --t 2 --levels 0.5 --n-grid 8,27,64 --reps 2 --seed {seed}"),
            _inv("closed-form-small", "sweep --mode closed-form --kind lhs --d 3 --t 2 --levels 0.5 --n-grid 64,128,256"),
        ),
    ),
}
