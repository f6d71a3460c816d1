"""Coverage statistics for Latin hypercube and orthogonal sampling designs.

Exact rational expectations, closed-form laws with error bounds, pinned
reproducible samplers, Monte Carlo estimation, brute-force oracles, and
threshold sweeps, with a CSV-first command line.
"""

import importlib.util
import sys
from types import ModuleType

__version__ = "0.1.0"


def lazy(name: str) -> ModuleType:
    """Module hypercov.<name>, registered as if imported; its body runs on
    first attribute access. A module already imported is returned as is."""
    full = f"{__name__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = globals()[name] = module
    spec.loader.exec_module(module)
    return module
