"""The traced benchmark run rebinds hypercov functions by name.

`perfbench/layers.py` lists in `WRAPPED` each (module, function) it
wraps, with a hook that reads some of the call's arguments by name. A
rename or deletion under `src/` would only show when the traced
benchmark runs; these tests make it fail here first.
"""

import importlib
import importlib.util
import inspect
import re
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
