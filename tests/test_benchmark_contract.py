"""The traced benchmark run rebinds hypercov functions by name.

`perfbench/layers.py` lists in `WRAPPED` each (module, function) it
wraps, with a hook that reads some of the call's arguments by name. A
rename or deletion under `src/` would only show when the traced
benchmark runs; these tests make it fail here first.
"""

import contextlib
import hashlib
import importlib
import importlib.util
import inspect
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the module up in sys.modules while it executes.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


LAYERS = _load("layers")
WORKLOADS = _load("workloads").WORKLOADS
WRAPPED = LAYERS.WRAPPED


def _arguments_read(hook) -> set[str]:
    """Argument names a hook reads as `.arguments["name"]`."""
    if hook is None:
        return set()
    return set(re.findall(r'\.arguments\["(\w+)"\]', inspect.getsource(hook)))


@pytest.mark.parametrize("entry", WRAPPED, ids=lambda e: f"{e[0]}.{e[1]}")
def test_wrapped_function_resolves(entry):
    mod_name, fn_name, _, hook = entry
    fn = getattr(importlib.import_module(f"hypercov.{mod_name}"), fn_name)
    params = inspect.signature(fn).parameters
    for name in _arguments_read(hook):
        assert name in params, f"{mod_name}.{fn_name} lost the argument {name!r}"


def test_hooks_read_the_known_arguments():
    # Keeps the source scan above from passing vacuously.
    read = set().union(*(_arguments_read(hook) for *_, hook in WRAPPED))
    assert read == {"n", "k", "reps"}


WARM_UP_THEN_TRACE = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import layers, workloads
import hypercov.cli as cli

def has_run(m):  # a module whose body has not run holds none of its functions
    names = object.__getattribute__(sys.modules[f"hypercov.{m}"], "__dict__")
    return all(f in names for mod, f, *_ in layers.WRAPPED if mod == m)

def bound():
    return [getattr(sys.modules[f"hypercov.{m}"], f).__qualname__ for m, f, *_ in layers.WRAPPED]

with contextlib.redirect_stdout(io.StringIO()):
    for inv in workloads.WORKLOADS["exact-bracket"].smoke:
        assert cli.main(inv.bind(0)) == 0, inv.name
unused = [m for m in ("simulate", "sweep") if not has_run(m)]
tracer = layers.Tracer()
tracer.install()
wrapped = bound()
tracer.uninstall()
print(unused, set(wrapped), bound() == [f for _, f, *_ in layers.WRAPPED])
"""


def test_tracer_installs_after_a_warm_up_that_leaves_modules_unused():
    # A benchmark process imports only hypercov.cli, and exact-bracket's
    # warm-up never runs simulate or sweep; the tracer still looks every
    # wrapped module up in sys.modules, and must wrap and then restore
    # each function.
    proc = subprocess.run(
        [sys.executable, "-c", WARM_UP_THEN_TRACE, str(PERFBENCH)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['simulate', 'sweep'] {'Tracer._wrap.<locals>.wrapper'} True"


@pytest.mark.parametrize("name", ["sim-t2", "full-coverage"])
def test_sweep_draws_every_trial_through_the_curve(name, capsys):
    # The tracer counts a sweep's drawn trials as the k of each
    # coverage_curve call; a draw that bypassed it would go uncounted.
    import hypercov.cli

    (inv,) = [i for i in WORKLOADS["sweep-thresholds"].invocations if i.name == name]
    tracer = LAYERS.Tracer()
    tracer.install()
    try:
        assert hypercov.cli.main(inv.bind(20260819)) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = LAYERS.layer_metrics(tracer.spans)
    assert metrics["sweep.trials_drawn"] == metrics["sampling.trials"]
    assert metrics["sweep.trials_used"] >= 0.85 * metrics["sweep.trials_drawn"]


@pytest.mark.parametrize("name", ["sim-t2", "full-coverage"])
def test_sweep_counts_each_batch_in_one_curve_call(name, capsys, monkeypatch):
    # The k of each coverage_curve call is the number of trials it counts,
    # one call per batch drawn, so the tracer's curve_trials stays exact.
    import hypercov.cli
    from hypercov import simulate

    yields, calls = [], []
    real_batches, real_curve = simulate.replicate_batches, simulate.coverage_curve

    def batches(plan, rep_ids, first=1):
        for ids, cols in real_batches(plan, rep_ids, first):
            yields.append(cols.shape[0])
            yield ids, cols

    def curve(plan, k, cols, covered=None):
        assert k == cols.shape[0] and k % plan.k == 0
        calls.append((k, plan.k))
        return real_curve(plan, k, cols, covered)

    monkeypatch.setattr(simulate, "replicate_batches", batches)
    monkeypatch.setattr(simulate, "coverage_curve", curve)
    (inv,) = [i for i in WORKLOADS["sweep-thresholds"].invocations if i.name == name]
    assert hypercov.cli.main(inv.bind(20260819)) == 0
    capsys.readouterr()
    assert [k for k, _ in calls] == yields
    assert any(k > per for k, per in calls)  # some batch holds several replicates


@pytest.mark.parametrize(
    "inv",
    [inv for inv in WORKLOADS["exact-bracket"].invocations if inv.argv[:3] == ("law", "--model", "bracket")],
    ids=lambda inv: inv.name,
)
def test_bracket_rows_keep_their_golden_bytes_without_products(inv, monkeypatch):
    # The bracket reads its multiset float by interval rounding; the
    # benchmark's payload hash (perfbench/run.py payload_hash) must not move.
    from hypercov import cli, exact

    def no_product(lo, m):
        raise AssertionError("a rising product was built")

    monkeypatch.setattr(exact, "_rising_product", no_product)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(inv.bind(0)) == 0
    body = "\n".join(l for l in out.getvalue().splitlines() if not l.startswith("#"))
    golden = json.loads((PERFBENCH / "golden.json").read_text())["hashes"]["full"]["exact-bracket"]
    assert hashlib.sha256(body.encode()).hexdigest() == golden[inv.name]["*"]
