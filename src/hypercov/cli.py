"""Command line interface.

Subcommands: gen, exact, law, simulate, oracle, sweep, verify.

Exit codes: 0 success, 2 usage, 3 guard/cap refusal, 4 verification
mismatch, 5 I/O failure.

Every artifact starts with a provenance header: package version, seed,
a 12-hex hash of the canonical run config, and the config JSON itself.
Feeding that JSON back through --config reproduces the artifact byte
for byte. Flags always win over --config values; the seed falls back
to the HYPERCOV_SEED environment variable, then to 0. Output paths and
worker counts are routing, not content, so they stay out of the hash.
The flag values pick one route of the subcommand (see Command). A flag
the route does not read exits 2 when given, and otherwise takes its
default, not a --config or HYPERCOV_SEED value.

Every table cell prints by one rule (`_fmt`): bools as true/false,
floats as their repr, None as an empty cell, ints in full whatever
their digit count, anything else as str.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import os
import sys
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from decimal import MAX_EMAX, MAX_PREC, Decimal, Inexact, localcontext
from typing import Any, Callable, Iterable, Iterator, Sequence

from . import __version__, lazy
from .design import DesignSpec, SampleKind, SweepMode, Units
from .errors import GuardExceededError, HypercovError, StructuralError
from .exact import (
    IntersectionKind, check_terms, expected_coverage_multiset, expected_intersection, kind_params,
)
from .laws import asymptotic_coverage, bracket_exact_vs_asymptotic, iid_coverage, lambda_for, projection_lambda

# Each loads on first use: numpy only with runs that draw trials, the oracle only with oracle and verify.
oracle, rng, sampling, simulate, sweep = map(lazy, ("oracle", "rng", "sampling", "simulate", "sweep"))


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    params: dict


def canonical_config_json(config: RunConfig) -> str:
    return json.dumps(
        {"subcommand": config.subcommand, "params": config.params},
        sort_keys=True,
        separators=(",", ":"),
    )


def config_hash(config: RunConfig) -> str:
    return hashlib.sha256(canonical_config_json(config).encode()).hexdigest()[:12]


def provenance_lines(config: RunConfig) -> list[str]:
    seed = config.params.get("seed", "-")
    return [
        f"# hypercov {__version__}",
        f"# seed={seed}",
        f"# config_hash={config_hash(config)}",
        f"# config={canonical_config_json(config)}",
    ]


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _csv_lines(rows: Iterable[Sequence[Any]]) -> list[str]:
    """One CSV line per row, every cell through _fmt. A quoted cell that
    holds a newline spans two items, which _emit joins back."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([_fmt(v) for v in row] for row in rows)
    return buf.getvalue().split("\n")[:-1]


def _table(config: RunConfig, header: str, rows: Iterable[Sequence[Any]]) -> list[str]:
    """Provenance lines, the header, then one CSV line per row."""
    return [*provenance_lines(config), header, *_csv_lines(rows)]


def _emit(out: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# --- parameter resolution ---------------------------------------------------


# Element type of each type tag; a *_list tag holds a list of them.
SCALARS: dict[str, type] = {"int": int, "str": str, "float": float}


def _normalize(name: str, flag: Flag, value: Any) -> Any:
    """A flag or config-file value in the flag's type and among its choices."""
    if value is None:
        return None
    scalar = SCALARS[flag.tag.removesuffix("_list")]
    option = "--" + name.replace("_", "-")

    def cast(v: Any) -> Any:
        # No flag text parses to a bool, nor to a float where an int is due.
        if not (isinstance(v, bool) or (scalar is int and isinstance(v, float))):
            with suppress(ValueError, TypeError, OverflowError):
                return scalar(v)
        raise StructuralError(f"{option} must be {scalar.__name__}, got {json.dumps(v)}")

    if flag.tag.endswith("_list"):
        if isinstance(value, str):
            # Flag text is comma-separated, except a str_list's: one item per flag.
            value = [value] if flag.tag == "str_list" else value.split(",")
        if not isinstance(value, list):
            raise StructuralError(f"{option} must be a list of {scalar.__name__}, got {json.dumps(value)}")
        return [cast(v) for v in value]
    value = cast(value)
    if flag.choices is not None and value not in flag.choices:
        raise StructuralError(f"{option} must be one of {', '.join(flag.choices)}, got {value!r}")
    return value


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise StructuralError("config file must hold a JSON object")
    if "params" in obj and isinstance(obj["params"], dict):
        obj = obj["params"]
    obj.pop("subcommand", None)
    return obj


def _route(sub: str, routes: dict[str, str], values: dict) -> tuple[str, str]:
    """The label and flag list of the first route whose condition holds.
    A condition names flags with the values they must take, then flags
    that must be set: "model=iid|asymptotic t" holds when --model is iid
    or asymptotic and --t is set; "" always holds."""
    unset: dict[str, None] = {}
    for key, reads in routes.items():
        conds = [word.partition("=")[::2] for word in key.split()]
        if any(want and values[n] not in (None, *want.split("|")) for n, want in conds):
            continue
        absent = [n for n, _ in conds if values[n] is None]
        if not absent:
            words = (f"--{n} {values[n]}" if want else f"--{n}" for n, want in conds)
            return " ".join([sub, *words]), reads
        unset[f"--{absent[0]}"] = None
    raise StructuralError(f"{sub} needs {' or '.join(unset)}")


def resolve_params(sub: str, args: argparse.Namespace) -> RunConfig:
    """Merge flags, --config values, defaults and HYPERCOV_SEED into the
    run config of the route the values pick; config-file values get the
    checks argparse gives flags. A flag the route does not read is
    refused if given, and otherwise takes its default."""
    command = COMMANDS[sub]
    content = {name: f for name, f in command.all_flags().items() if not f.routing}
    file_values: dict = {}
    if getattr(args, "config", None):
        file_values = _load_config_file(args.config)
        # A config file may carry any subcommand's routing keys; they are ignored.
        if unknown := set(file_values) - set(content) - {"workers", "out"}:
            raise StructuralError(f"unknown config keys: {sorted(unknown)}")
    given = {name for name in content if getattr(args, name, None) is not None}
    values = {
        name: _normalize(name, flag, getattr(args, name) if name in given else file_values.get(name))
        for name, flag in content.items()
    }
    label, reads = _route(sub, command.routes, values)
    read = {name.rstrip("!"): name.endswith("!") for name in reads.split()}
    params: dict = {}
    for name, flag in content.items():
        option = "--" + name.replace("_", "-")
        if name in given and name not in read:
            raise StructuralError(f"{option} is not read by {label}")
        value = values[name] if name in read else None
        if value is None and read.get(name):
            raise StructuralError(f"missing required parameter {option}")
        if value is None and name == "seed" and name in read and "HYPERCOV_SEED" in os.environ:
            env = os.environ["HYPERCOV_SEED"]
            try:
                value = int(env)
            except ValueError:
                raise StructuralError(f"HYPERCOV_SEED must be an integer, got {env!r}") from None
        params[name] = _normalize(name, flag, flag.default) if value is None else value
    return RunConfig(sub, params)


def _spec_from(params: dict) -> DesignSpec:
    return DesignSpec(params["d"], params["n"], params["p"])


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise StructuralError(f"expected an integer, got {text!r}") from None


def _parse_edge(text: str) -> Units:
    """'i,j' names an axis pair; 'i,j,pi,pj' one coarse cell of it."""
    parts = [_int(v) for v in text.split(",")]
    if len(parts) not in (2, 4):
        raise StructuralError(f"an edge needs i,j or i,j,pi,pj, got {text!r}")
    i, j, *coarse = parts
    if not (1 <= i < j):
        raise StructuralError(f"need 1 <= i < j, got ({i}, {j})")
    if any(q < 1 for q in coarse):
        raise StructuralError("coarse bands must be >= 1")
    return Units(2, (i, j), tuple(coarse) or None)


def parse_target(text: str) -> Units:
    if text == "full":
        return Units()
    if text.startswith("proj:"):
        t_str, at, dims_str = text[len("proj:") :].partition("@")
        t = _int(t_str)
        return Units(t, tuple(_int(v) for v in dims_str.split(",")) if at else None)
    if text.startswith("edge:"):
        units = _parse_edge(text[len("edge:") :])
        if units.coarse is None:
            raise StructuralError("an edge target needs coarse bands: edge:i,j,pi,pj")
        return units
    raise StructuralError(f"unknown target {text!r}")


# --- subcommand runners -----------------------------------------------------


# gen holds every entry as a Python int of a row list: 10^7 entries took 1.1 GiB at peak.
MAX_GEN_ENTRIES = 10**7


def _run_gen(config: RunConfig, out: str | None, workers: int) -> int:
    params = config.params
    kind = SampleKind(params["kind"])
    spec, seed, k = _spec_from(params), params["seed"], params["k"]
    if (entries := k * spec.d * spec.n) > MAX_GEN_ENTRIES:  # trial_columns refuses a negative k
        raise GuardExceededError(f"k*d*n = {entries} entries exceed guard {MAX_GEN_ENTRIES}; "
                                 f"the largest k that fits is {MAX_GEN_ENTRIES // (spec.d * spec.n)}")
    cols = sampling.trial_columns(spec, kind, seed, k)
    trials = (cols.transpose(0, 2, 1) + 1).tolist()  # 1-based point rows
    if params["format"] == "json":
        doc_spec = {key: params[key] for key in ("d", "n", "p") if params[key] is not None}
        doc = {
            "provenance": {
                "version": __version__,
                "seed": seed,
                "config_hash": config_hash(config),
                "config": {"subcommand": config.subcommand, "params": params},
            },
            "trials": [
                {"spec": doc_spec, "seed": rng.fold(seed, t), "kind": kind.value, "points": points}
                for t, points in enumerate(trials, start=1)
            ],
        }
        _emit(out, [json.dumps(doc, sort_keys=True, separators=(",", ":"))])
        return 0
    lines = provenance_lines(config)
    for t, points in enumerate(trials, start=1):
        lines += [f"# trial {t}", *_csv_lines(points)]
    _emit(out, lines)
    return 0


# The bigint guard keeps exact values near or below 301,000 digits (lhs d=2 n=1000 k=117: 297,655).
MAX_DECIMAL_DIGITS = 1_000_000


def _parse_format(text: str) -> int | None:
    """Digits of the decimal column; None means rational only."""
    if text == "rational":
        return None
    if text.startswith("decimal:"):
        digits = _int(text[len("decimal:") :])
        if digits < 1:
            raise StructuralError("decimal digits must be >= 1")
        if digits > MAX_DECIMAL_DIGITS:
            raise GuardExceededError(
                f"decimal:{digits} exceeds cap {MAX_DECIMAL_DIGITS} digits; "
                "use --format rational for the exact value"
            )
        return digits
    raise StructuralError(f"--format must be rational or decimal:<digits>, got {text!r}")


def _decimal_str(num: str, den: str, digits: int) -> str:
    """num/den, given as digit text, as Decimal division prints it at
    precision `digits`. Decimal reads text exactly in linear time, while
    Decimal(int) takes time quadratic in the integer's length."""
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(num) / Decimal(den))


# Integers of more bits than this are printed by halves. Python 3.11's
# str() takes time quadratic in the length; on a 2-vCPU x86 VM it beat
# the halves below about 2^15 bits and took 1.4 s to their 0.09 s at
# 297,655 digits.
SPLIT_BITS = 1 << 15


def _int_str(x: int) -> str:
    """str(x) for x >= 0. Above SPLIT_BITS, x is split at a power of two
    into halves, recursively; halves of at most SPLIT_BITS become Decimals
    from their str(), and exact Decimal arithmetic, whose multiplication
    is subquadratic, joins them as high * 2^bits + low."""
    if x.bit_length() <= SPLIT_BITS:
        return str(x)
    powers: dict[int, Decimal] = {}

    def dec(x: int, bits: int) -> Decimal:
        if bits <= SPLIT_BITS:
            return Decimal(str(x))
        low = bits >> 1
        if low not in powers:
            powers[low] = Decimal("2") ** low
        hi = x >> low
        return dec(hi, bits - low) * powers[low] + dec(x - (hi << low), low)

    with localcontext() as ctx:
        ctx.prec, ctx.Emax = MAX_PREC, MAX_EMAX
        ctx.traps[Inexact] = True
        return str(dec(x, x.bit_length()))


def _run_exact(config: RunConfig, out: str | None, workers: int) -> int:
    params = config.params
    kind = IntersectionKind(params["kind"])
    spec = _spec_from(params)
    digits = _parse_format(params["format"])
    # The route reads one of --m and --k; the other stays None.
    value_of = expected_coverage_multiset if params["m"] is None else expected_intersection
    name, least = ("k", 0) if params["m"] is None else ("m", 1)
    qs = params[name]
    check_terms(name, qs, least, kind, spec)
    rows = []
    for q in qs:
        v = value_of(kind, spec, q)
        num, den = _int_str(v.numerator), _int_str(v.denominator)  # converted once, for the cells and the decimal
        dec = None if digits is None else _decimal_str(num, den, digits)
        rows.append([kind.value, spec.d, spec.n, spec.p, q, num, den, dec])
    _emit(out, _table(config, "kind,d,n,p,m_or_k,value_num,value_den,value_decimal", rows))
    return 0


def _law_lambda(params: dict) -> float:
    """lambda at --t axes, or at the axes of --kind's cells."""
    t, n = params["t"], params["n"]
    if t is None:
        return lambda_for(IntersectionKind(params["kind"]), _spec_from(params))
    if n < (least := 1 if t == 1 else 2):  # at t = 1 one level is a cell every trial hits
        raise StructuralError(f"n must be >= {least}, got {n}")
    return projection_lambda(n, t, params["d"])


def _run_law(config: RunConfig, out: str | None, workers: int) -> int:
    params = config.params
    model = params["model"]
    if model == "bracket":
        kind = IntersectionKind(params["kind"])
        spec = _spec_from(params)
        # The spec's own refusals come first, as in bracket_exact_vs_asymptotic.
        kind_params(kind, spec)
        check_terms("k", params["k"], 0, kind, spec)
        rows = []
        for k in params["k"]:
            rep = bracket_exact_vs_asymptotic(kind, spec, k)
            base = [spec.d, spec.n, None, k, rep.lam]
            values = (rep.p_multiset, rep.p_iid, rep.p_asym)
            for name, value in zip(("multiset", "iid", "asymptotic"), values):
                rows.append([name, *base, value, None, None, None])
            gap = abs(rep.p_multiset - rep.p_asym)
            rows.append(["bracket", *base, gap, rep.e1_bound, rep.e2_bound, rep.valid])
    else:
        lam = _law_lambda(params)
        law = asymptotic_coverage if model == "asymptotic" else iid_coverage
        d, n, t = params["d"], params["n"], params["t"]
        rows = [[model, d, n, t, k, lam, law(lam, k), None, None, None] for k in params["k"]]
    _emit(out, _table(config, "model,d,n,t,k,lambda,value,e1_bound,e2_bound,valid", rows))
    return 0


def _run_simulate(config: RunConfig, out: str | None, workers: int) -> int:
    params = config.params
    spec = _spec_from(params)
    kind = SampleKind(params["kind"])
    targets = [parse_target(s) for s in params["target"]]
    if params["dims"] is not None:
        # --dims names the axes of every proj: target, and needs one.
        proj = [u.t is not None and u.coarse is None for u in targets]
        if not any(proj):
            raise StructuralError("--dims is read only with a proj: target")
        targets = [Units(u.t, tuple(params["dims"])) if is_proj else u for u, is_proj in zip(targets, proj)]
    plan = simulate.SimPlan(spec, kind, params["k"], params["reps"], tuple(targets), params["seed"])
    rows = [
        [t.label, spec.d, spec.n, spec.p, kind.value, plan.k, plan.reps,
         r.mean, r.sd, r.se, r.ref_iid, r.ref_asym]
        for t, r in zip(targets, simulate.simulate_coverage(plan, workers=workers))
    ]
    _emit(out, _table(config, "target,d,n,p,kind,k,reps,mean,sd,se,ref_iid,ref_asym", rows))
    return 0


def _exact_kind(
    kind: SampleKind, edge: Units | None, d: int
) -> tuple[IntersectionKind, int]:
    """The exact kind an oracle run is checked against, and the divisor
    that turns its expected intersection into the oracle's units."""
    if edge is None:
        return IntersectionKind(kind.value), 1  # the tuple kinds share the sampler's value
    if edge.coarse is not None:
        return IntersectionKind.LH_EDGE_SUBBLOCK, 1
    # LH_EDGE_ALL pools the pairs of all C(d,2) axis pairs; the oracle
    # counts those of one. Coverage fractions are the same for both.
    return IntersectionKind.LH_EDGE_ALL, math.comb(d, 2)


def _run_oracle(config: RunConfig, out: str | None, workers: int) -> int:
    params = config.params
    spec = _spec_from(params)
    kind = SampleKind(params["kind"])
    mode = params["mode"]
    edge = None if params["edge"] is None else _parse_edge(params["edge"])
    if edge is not None:
        edge.validate_for(spec)
        if kind is not SampleKind.LHS:
            raise StructuralError("edge comparisons are defined for the lhs ensemble")
    exact_kind, divisor = _exact_kind(kind, edge, spec.d)

    units = Units() if edge is None else edge

    if mode == "occurrence":
        if edge is None:
            name = f"occurrence {kind.value} d={spec.d} n={spec.n}"
        elif edge.coarse is not None:
            raise StructuralError("occurrence mode takes --edge i,j without bands")
        else:
            name = f"occurrence edges d={spec.d} n={spec.n} edge={params['edge']}"
        want = kind_params(exact_kind, spec).a
        counts = oracle.occurrence_counts(oracle.enumerate_trials(spec, kind), units)
        return _emit_checks(config, out, [oracle.constant_count_check(name, counts, want)])

    q_name = "m" if mode == "intersect" else "k"
    name = f"{mode} {kind.value} d={spec.d} n={spec.n}"
    if edge is not None:
        name += f" edge={params['edge']}"
    # Refuse the first q that exact_check would refuse (any q < 1 in either
    # mode), before enumerating or any product or walk. Every exact kind's
    # b counts the sampler's trials.
    for q in params[q_name]:
        kp = check_terms(q_name, (q,), 1, exact_kind, spec)
        oracle.check_walk(q_name, kp.b, q)
    ts = oracle.enumerate_trials(spec, kind)
    checks = [
        oracle.exact_check(f"{name} {q_name}={q}", ts, exact_kind, mode, q, units, divisor)
        for q in params[q_name]
    ]
    return _emit_checks(config, out, checks)


def _run_sweep(config: RunConfig, out: str | None, workers: int) -> int:
    params = config.params
    kind = SampleKind(params["kind"])
    mode = SweepMode(params["mode"])
    results = sweep.run_sweep(
        params["d"], params["t"], kind, params["levels"], params["n_grid"], mode,
        reps=params["reps"], seed=params["seed"],
    )
    # k* prints as an integer when it is one, even the float mean of a
    # full-coverage sweep.
    tidy = _table(config, "level,t,n,k_star", [
        [res.level, res.t, n, str(int(k)) if float(k).is_integer() else repr(k)]
        for res in results
        for n, k in res.rows
    ])
    summary = _table(config, "level,t,slope,intercept,residual", [
        [res.level, res.t, res.slope, res.intercept, res.residual] for res in results
    ])
    if out in (None, "-"):
        _emit(out, tidy + ["# summary"] + summary[len(provenance_lines(config)) :])
    else:
        _emit(out, tidy)
        base = out[:-4] if out.endswith(".csv") else out
        _emit(base + ".summary.csv", summary)
    return 0


def _run_verify(config: RunConfig, out: str | None, workers: int) -> int:
    return _emit_checks(config, out, oracle.default_verification_suite())


def _emit_checks(config: RunConfig, out: str | None, checks: list[oracle.CheckResult]) -> int:
    """The MATCH table of an oracle or verify run; exit 4 on any mismatch."""
    lines = _table(config, "check,oracle,expected,verdict", [
        [c.name, c.oracle, c.expected, "MATCH" if c.match else "MISMATCH"] for c in checks
    ])
    bad, total = sum(1 for c in checks if not c.match), len(checks)
    lines.append(f"# {bad} of {total} checks MISMATCH" if bad else f"# all {total} checks MATCH")
    _emit(out, lines)
    if out not in (None, "-"):
        print(lines[-1].lstrip("# "))
    return 0 if bad == 0 else 4


# --- the flag table ---------------------------------------------------------


@dataclass(frozen=True)
class Flag:
    """One option: its default, its type tag and its choices.

    The type tag sets the argparse type and how a config-file value is
    normalized. Routing flags say where output goes and how the work is
    spread, not what is computed, so they stay out of the run config and
    its hash.
    """

    default: Any = None
    tag: str = "str"  # a key of SCALARS, or one with "_list" appended
    choices: tuple[str, ...] | None = None
    routing: bool = False
    help: str | None = None


# Each flag's meaning wherever a command does not override it, in the
# order --help lists them.
FLAGS: dict[str, Flag] = {
    "model": Flag(
        choices=("iid", "asymptotic", "conjecture", "bracket"),
        help="conjecture: the iid law at a t-axis cell's rate n^(1-t), exact for i.i.d. trials",
    ),
    "kind": Flag("lhs", choices=tuple(k.value for k in SampleKind)),
    "d": Flag(tag="int"),
    "n": Flag(tag="int"),
    "p": Flag(tag="int"),
    "t": Flag(tag="int"),
    "levels": Flag(tag="float_list"),
    "n_grid": Flag(tag="int_list"),
    "mode": Flag(),  # each command that reads it gives its choices
    "m": Flag(tag="int_list"),
    "k": Flag(tag="int_list"),
    "reps": Flag(tag="int"),
    "target": Flag(["full"], "str_list"),
    "dims": Flag(tag="int_list"),
    "edge": Flag(),
    "seed": Flag(0, "int"),
    "format": Flag("decimal:12"),
    "workers": Flag(tag="int", routing=True),
    "config": Flag(routing=True, help="JSON file of parameters; flags win"),
    "out": Flag(routing=True, help="output path, '-' for stdout"),
}


@dataclass(frozen=True)
class Command:
    """A subcommand's runner and routes. Each route maps a condition on
    the flag values (see _route) to the flags it reads, a trailing !
    marking those it requires; the routes are the only place a command
    names its flags. `flags` overrides FLAGS where a name means something
    else here."""

    help: str
    run: Callable[[RunConfig, str | None, int], int]
    routes: dict[str, str]
    flags: dict[str, Flag] = field(default_factory=dict)

    def all_flags(self) -> dict[str, Flag]:
        names = {n.rstrip("!") for reads in self.routes.values() for n in reads.split()}
        return {n: self.flags.get(n, f) for n, f in FLAGS.items() if n in names | {"config", "out"}}


_EXACT_KIND = Flag(choices=tuple(k.value for k in IntersectionKind))

COMMANDS: dict[str, Command] = {
    "gen": Command("generate trials", _run_gen, {"": "kind d! n! p k seed format"}, {
        "k": Flag(1, "int"),
        "format": Flag("csv", choices=("csv", "json")),
    }),
    "exact": Command("exact intersection/coverage values", _run_exact, {
        "m": "kind! d! n! p m! format",
        "k": "kind! d! n! p k! format",
    }, {"kind": _EXACT_KIND}),
    "law": Command("closed-form coverage laws", _run_law, {
        "model=bracket": "model! kind! d! n! p k!",
        "model=iid|asymptotic t": "model! d n! t! k!",
        "model=iid|asymptotic kind": "model! kind! d! n! p k!",
        "model=conjecture": "model! d n! t! k!",
    }, {"kind": _EXACT_KIND}),
    "simulate": Command("Monte Carlo coverage", _run_simulate, {
        "": "kind d! n! p k! reps! target dims seed workers",
    }, {"k": Flag(tag="int")}),
    "oracle": Command("brute-force enumeration checks", _run_oracle, {
        "mode=intersect": "kind d! n! p mode! m! edge",
        "mode=cover": "kind d! n! p mode! k! edge",
        "mode=occurrence": "kind d! n! p mode! edge",
    }, {"mode": Flag(choices=("intersect", "cover", "occurrence"))}),
    "sweep": Command("k* threshold sweeps over n", _run_sweep, {
        "mode=closed-form": "kind d! t! levels! n_grid! mode!",
        "mode=simulated": "kind d! t! levels! n_grid! mode! reps seed",
    }, {"mode": Flag(choices=tuple(m.value for m in SweepMode)), "reps": Flag(400, "int")}),
    "verify": Command("oracle vs exact-count suite", _run_verify, {"": ""}),
}


@contextmanager
def _all_int_digits() -> Iterator[None]:
    """Lift the interpreter's int-to-str digit limit while a run prints
    exact values, which run to tens of thousands of digits near the k cap;
    restore it afterwards, since callers may share the interpreter."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _refuse(exc: Exception) -> int:
    """Print why a run stopped; return its exit code."""
    print(f"error: {exc}", file=sys.stderr)
    if isinstance(exc, GuardExceededError):
        return 3
    return 5 if isinstance(exc, OSError) else 2


def run(config: RunConfig, out: str | None = None, workers: int = 1) -> int:
    """Execute a resolved run configuration; returns the exit code."""
    try:
        if config.subcommand not in COMMANDS:
            raise StructuralError(f"unknown subcommand {config.subcommand!r}")
        with _all_int_digits():
            return COMMANDS[config.subcommand].run(config, out, workers)
    except (HypercovError, OSError) as exc:
        return _refuse(exc)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypercov",
        description="Coverage statistics for Latin hypercube and orthogonal sampling",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        for flag_name, flag in command.all_flags().items():
            sp.add_argument(
                "--" + flag_name.replace("_", "-"),
                type=str if flag.tag.endswith("_list") else SCALARS[flag.tag],
                choices=flag.choices,
                action="append" if flag.tag == "str_list" else "store",
                help=flag.help,
            )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    workers = getattr(args, "workers", None)
    try:
        config = resolve_params(args.subcommand, args)
        if workers is not None and workers < 1:
            raise StructuralError(f"--workers must be >= 1, got {workers}")
    except (HypercovError, OSError, ValueError, TypeError, OverflowError) as exc:
        return _refuse(exc)
    return run(config, out=args.out, workers=workers or 1)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
