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

Every table cell prints by one rule (`_fmt`): bools as true/false,
floats as their repr, None as an empty cell, ints in full whatever
their digit count, anything else as str.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, Sequence

from . import __version__
from .design import DesignSpec, Units
from .errors import CapExceededError, GuardExceededError, HypercovError, StructuralError
from .exact import (
    IntersectionKind,
    check_terms,
    expected_coverage_multiset,
    expected_intersection,
    kind_axes,
    kind_params,
)
from .laws import (
    asymptotic_coverage,
    bracket_exact_vs_asymptotic,
    iid_coverage,
    projection_lambda,
)
from .oracle import (
    CheckResult,
    check_walk,
    constant_count_check,
    default_verification_suite,
    enumerate_trials,
    exact_check,
    occurrence_counts,
)
from .sampling import SampleKind, SamplerConfig, gen_trials, trial_seed
from .simulate import SimPlan, simulate_coverage
from .sweep import SweepMode, run_sweep as sweep_run


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
SCALARS: dict[str, type] = {"int": int, "seed": int, "str": str, "float": float}


def _normalize(name: str, tag: str, value: Any) -> Any:
    if value is None:
        return None
    scalar = SCALARS[tag.removesuffix("_list")]

    def cast(v: Any) -> Any:
        # No flag text parses to a bool, nor to a float where an int is due.
        if isinstance(v, bool) or (scalar is int and isinstance(v, float)):
            flag = name.replace("_", "-")
            raise StructuralError(f"--{flag} must be {scalar.__name__}, got {json.dumps(v)}")
        return scalar(v)

    if not tag.endswith("_list"):
        return cast(value)
    if isinstance(value, str):
        # Flag text is comma-separated, except a str_list's: one item per flag.
        value = [value] if tag == "str_list" else value.split(",")
    return [cast(v) for v in value]


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise StructuralError("config file must hold a JSON object")
    if "params" in obj and isinstance(obj["params"], dict):
        obj = obj["params"]
    obj.pop("subcommand", None)
    return obj


def resolve_params(sub: str, args: argparse.Namespace) -> RunConfig:
    """Merge flags, --config values, defaults and HYPERCOV_SEED into the
    run config; config-file values get the checks argparse gives flags."""
    content = {name: f for name, f in COMMANDS[sub].flags.items() if not f.routing}
    file_values: dict = {}
    if getattr(args, "config", None):
        file_values = _load_config_file(args.config)
        # A config file may carry any subcommand's routing keys; they are ignored.
        routing = {n for c in COMMANDS.values() for n, f in c.all_flags().items() if f.routing}
        unknown = set(file_values) - set(content) - (routing - {"config"})
        if unknown:
            raise StructuralError(f"unknown config keys: {sorted(unknown)}")
    params: dict = {}
    for name, flag in content.items():
        value = getattr(args, name, None)
        if value is None:
            value = file_values.get(name)
        if value is None:
            if flag.default is REQUIRED:
                raise StructuralError(f"missing required parameter --{name.replace('_', '-')}")
            value = flag.default
        if flag.tag == "seed" and value is None:
            env = os.environ.get("HYPERCOV_SEED")
            value = int(env) if env is not None else 0
        value = params[name] = _normalize(name, flag.tag, value)
        if flag.choices is not None and value is not None and value not in flag.choices:
            raise StructuralError(f"--{name} must be one of {', '.join(flag.choices)}, got {value!r}")
    return RunConfig(sub, params)


def _spec_from(params: dict) -> DesignSpec:
    for name in ("d", "n"):  # optional for `law --t`, needed by every spec
        if params[name] is None:
            raise StructuralError(f"missing required parameter --{name}")
    return DesignSpec(params["d"], params["n"], params.get("p"))


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


def _run_gen(config: RunConfig, out: str | None, workers: int) -> int:
    params = config.params
    kind = SampleKind(params["kind"])
    seed = params["seed"]
    cols = gen_trials(SamplerConfig(_spec_from(params), seed, kind), params["k"])
    trials = (cols.transpose(0, 2, 1) + 1).tolist()  # 1-based point rows
    if params["format"] == "json":
        spec = {key: params[key] for key in ("d", "n", "p") if params[key] is not None}
        doc = {
            "provenance": {
                "version": __version__,
                "seed": seed,
                "config_hash": config_hash(config),
                "config": {"subcommand": config.subcommand, "params": params},
            },
            "trials": [
                {"spec": spec, "seed": trial_seed(seed, t), "kind": kind.value, "points": points}
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
            raise CapExceededError(
                f"decimal:{digits} exceeds cap {MAX_DECIMAL_DIGITS} digits; "
                "use --format rational for the exact value"
            )
        return digits
    raise StructuralError(f"--format must be rational or decimal:<digits>, got {text!r}")


def _rounded_quotient(num: int, den: int, digits: int) -> tuple[int, int]:
    """(coeff, exp) of Decimal(num) / Decimal(den) at precision `digits`
    (den > 0), from one integer quotient: num/den rounded half-even to
    `digits` significant digits, and when that is exact, with trailing
    zeros dropped while the exponent is below 0 (Decimal's ideal form)."""
    if not num:
        return 0, 0
    mag, limit = abs(num), 10**digits
    # 10^e <= mag/den < 10^(e+1); the bit lengths place e within one.
    e = math.floor((mag.bit_length() - den.bit_length()) * math.log10(2))
    while True:
        shift = digits - 1 - e
        top, rest = (mag * 10**shift, den) if shift >= 0 else (mag, den * 10**-shift)
        coeff, rem = divmod(top, rest)
        if coeff >= limit:
            e += 1
        elif coeff * 10 < limit:
            e -= 1
        else:
            break
    exp = -shift
    if 2 * rem > rest or 2 * rem == rest and coeff % 2:
        coeff += 1
        if coeff == limit:
            coeff, exp = coeff // 10, exp + 1
    elif not rem:
        while exp < 0 and not coeff % 10:
            coeff, exp = coeff // 10, exp + 1
    return (coeff if num > 0 else -coeff), exp


def _decimal_str(value: Fraction, digits: int) -> str:
    """str(Decimal(num) / Decimal(den)) at precision `digits`. Converting
    an integer to Decimal takes time quadratic in its length, so when the
    integers are longer than the digits asked for, only the rounded
    quotient is converted."""
    num, den = value.numerator, value.denominator
    with localcontext() as ctx:
        ctx.prec = digits
        if 10 * digits >= 3 * max(num.bit_length(), den.bit_length()):  # 10/3 > log2(10)
            return str(Decimal(num) / Decimal(den))
        coeff, exp = _rounded_quotient(num, den, digits)
        return str(Decimal(coeff).scaleb(exp))


def _run_exact(config: RunConfig, out: str | None, workers: int) -> int:
    params = config.params
    kind = IntersectionKind(params["kind"])
    spec = _spec_from(params)
    digits = _parse_format(params["format"])
    ms, ks = params.get("m"), params.get("k")
    if (ms is None) == (ks is None):
        raise StructuralError("exactly one of --m and --k is required")
    value_of = expected_coverage_multiset if ms is None else expected_intersection
    name, qs, least = ("k", ks, 0) if ms is None else ("m", ms, 1)
    check_terms(name, qs, least, kind, spec)
    rows = []
    for q in qs:
        v = value_of(kind, spec, q)
        dec = None if digits is None else _decimal_str(v, digits)
        rows.append([kind.value, spec.d, spec.n, spec.p, q, v.numerator, v.denominator, dec])
    _emit(out, _table(config, "kind,d,n,p,m_or_k,value_num,value_den,value_decimal", rows))
    return 0


def _law_lambda(params: dict) -> tuple[float, int | None, int | None, int | None]:
    """Resolve lambda; returns (lambda, d, n, t) with None for absent columns."""
    t, d, n = params.get("t"), params.get("d"), params.get("n")
    axes = t
    if t is None:
        if params.get("kind") is None:
            raise StructuralError("need --kind or --t to fix lambda")
        axes = kind_axes(IntersectionKind(params["kind"]), _spec_from(params))
    elif n is None:
        raise StructuralError("--t needs --n to fix lambda")
    elif params.get("p") is not None:
        raise StructuralError("--p is not read with --t; drop it")
    elif n < (least := 1 if t == 1 else 2):  # at t = 1 one level is a cell every trial hits
        raise StructuralError(f"n must be >= {least}, got {n}")
    return projection_lambda(n, axes, d), d, n, t


def _run_law(config: RunConfig, out: str | None, workers: int) -> int:
    params = config.params
    model = params["model"]
    if model == "bracket":
        if params.get("kind") is None:
            raise StructuralError("bracket needs --kind")
        if params.get("t") is not None:
            raise StructuralError("--t is not read by --model bracket; drop it")
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
        lam, d, n, t = _law_lambda(params)
        if model == "conjecture" and t is None:
            raise StructuralError("conjecture model needs --t")
        law = asymptotic_coverage if model == "asymptotic" else iid_coverage
        rows = [[model, d, n, t, k, lam, law(lam, k), None, None, None] for k in params["k"]]
    _emit(out, _table(config, "model,d,n,t,k,lambda,value,e1_bound,e2_bound,valid", rows))
    return 0


def _run_simulate(config: RunConfig, out: str | None, workers: int) -> int:
    params = config.params
    spec = _spec_from(params)
    kind = SampleKind(params["kind"])
    targets = [parse_target(s) for s in params["target"]]
    if params.get("dims") is not None:
        # --dims names the axes of every proj: target.
        dims = tuple(params["dims"])
        targets = [Units(u.t, dims) if u.t is not None and u.coarse is None else u for u in targets]
    plan = SimPlan(spec, kind, params["k"], params["reps"], tuple(targets), params["seed"])
    rows = [
        [t.label, spec.d, spec.n, spec.p, kind.value, plan.k, plan.reps,
         r.mean, r.sd, r.se, r.ref_iid, r.ref_asym]
        for t, r in zip(targets, simulate_coverage(plan, workers=workers))
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
    ts = enumerate_trials(spec, kind)
    exact_kind, divisor = _exact_kind(kind, edge, spec.d)

    units = Units() if edge is None else edge

    if mode == "occurrence":
        if edge is None:
            name = f"occurrence {kind.value} d={spec.d} n={spec.n}"
        else:
            if edge.coarse is not None:
                raise StructuralError("occurrence mode takes --edge i,j without bands")
            name = f"occurrence edges d={spec.d} n={spec.n} edge={params['edge']}"
        want = kind_params(exact_kind, spec).a
        counts = occurrence_counts(ts, units)
        return _emit_checks(config, out, [constant_count_check(name, counts, want)])

    q_name = "m" if mode == "intersect" else "k"
    if params[q_name] is None:
        raise StructuralError(f"mode {mode} needs --{q_name}")
    name = f"{mode} {kind.value} d={spec.d} n={spec.n}"
    if edge is not None:
        name += f" edge={params['edge']}"
    # Refuse the first q that exact_check would refuse, before any product or walk.
    for q in params[q_name]:
        check_terms(q_name, (q,), 1 if mode == "intersect" else 0, exact_kind, spec)
        check_walk(q_name, len(ts.trials), q)
    checks = [
        exact_check(f"{name} {q_name}={q}", ts, exact_kind, mode, q, units, divisor)
        for q in params[q_name]
    ]
    return _emit_checks(config, out, checks)


def _run_sweep(config: RunConfig, out: str | None, workers: int) -> int:
    params = config.params
    kind = SampleKind(params["kind"])
    mode = SweepMode(params["mode"])
    results = sweep_run(
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
    return _emit_checks(config, out, default_verification_suite())


def _emit_checks(config: RunConfig, out: str | None, checks: list[CheckResult]) -> int:
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

REQUIRED = object()


@dataclass(frozen=True)
class Flag:
    """One option: its default (REQUIRED if it has none), its type tag and
    its choices.

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


@dataclass(frozen=True)
class Command:
    help: str
    run: Callable[[RunConfig, str | None, int], int]
    flags: dict[str, Flag]

    def all_flags(self) -> dict[str, Flag]:
        return {**self.flags, **COMMON_FLAGS}


COMMON_FLAGS = {
    "config": Flag(routing=True, help="JSON file of parameters; flags win"),
    "out": Flag(routing=True, help="output path, '-' for stdout"),
}

_INT = Flag(None, "int")
_REQUIRED_INT = Flag(REQUIRED, "int")
_INT_LIST = Flag(None, "int_list")
_SEED = Flag(None, "seed")
_SAMPLE_KIND = Flag("lhs", choices=tuple(k.value for k in SampleKind))
_EXACT_KIND = tuple(k.value for k in IntersectionKind)

COMMANDS: dict[str, Command] = {
    "gen": Command("generate trials", _run_gen, {
        "kind": _SAMPLE_KIND,
        "d": _REQUIRED_INT,
        "n": _REQUIRED_INT,
        "p": _INT,
        "k": Flag(1, "int"),
        "seed": _SEED,
        "format": Flag("csv", choices=("csv", "json")),
    }),
    "exact": Command("exact intersection/coverage values", _run_exact, {
        "kind": Flag(REQUIRED, choices=_EXACT_KIND),
        "d": _REQUIRED_INT,
        "n": _REQUIRED_INT,
        "p": _INT,
        "m": _INT_LIST,
        "k": _INT_LIST,
        "format": Flag("decimal:12"),
    }),
    "law": Command("closed-form coverage laws", _run_law, {
        "model": Flag(
            REQUIRED,
            choices=("iid", "asymptotic", "conjecture", "bracket"),
            help="conjecture: the iid law at a t-axis cell's rate n^(1-t), exact for i.i.d. trials",
        ),
        "kind": Flag(None, choices=_EXACT_KIND),
        "d": _INT,
        "n": _INT,
        "p": _INT,
        "t": _INT,
        "k": Flag(REQUIRED, "int_list"),
    }),
    "simulate": Command("Monte Carlo coverage", _run_simulate, {
        "kind": _SAMPLE_KIND,
        "d": _REQUIRED_INT,
        "n": _REQUIRED_INT,
        "p": _INT,
        "k": _REQUIRED_INT,
        "reps": _REQUIRED_INT,
        "target": Flag(["full"], "str_list"),
        "dims": _INT_LIST,
        "seed": _SEED,
        "workers": Flag(None, "int", routing=True),
    }),
    "oracle": Command("brute-force enumeration checks", _run_oracle, {
        "kind": _SAMPLE_KIND,
        "d": _REQUIRED_INT,
        "n": _REQUIRED_INT,
        "p": _INT,
        "mode": Flag(REQUIRED, choices=("intersect", "cover", "occurrence")),
        "m": _INT_LIST,
        "k": _INT_LIST,
        "edge": Flag(None),
    }),
    "sweep": Command("k* threshold sweeps over n", _run_sweep, {
        "kind": _SAMPLE_KIND,
        "d": _REQUIRED_INT,
        "t": _REQUIRED_INT,
        "levels": Flag(REQUIRED, "float_list"),
        "n_grid": Flag(REQUIRED, "int_list"),
        "mode": Flag(REQUIRED, choices=tuple(m.value for m in SweepMode)),
        "reps": Flag(400, "int"),
        "seed": _SEED,
    }),
    "verify": Command("oracle vs exact-count suite", _run_verify, {}),
}


@contextmanager
def _all_int_digits() -> Iterator[None]:
    """Lift the interpreter's int-to-str digit limit while a run prints
    exact values, which run to tens of thousands of digits near the k cap;
    restore it afterwards, since callers may share the interpreter."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def run(config: RunConfig, out: str | None = None, workers: int = 1) -> int:
    """Execute a resolved run configuration; returns the exit code."""
    try:
        if config.subcommand not in COMMANDS:
            raise StructuralError(f"unknown subcommand {config.subcommand!r}")
        with _all_int_digits():
            return COMMANDS[config.subcommand].run(config, out, workers)
    except GuardExceededError as exc:  # includes cap violations
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except HypercovError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else 2
    try:
        config = resolve_params(args.subcommand, args)
    except (HypercovError, ValueError, TypeError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    workers = getattr(args, "workers", None) or 1
    return run(config, out=args.out, workers=workers)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
