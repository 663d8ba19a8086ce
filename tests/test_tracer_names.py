"""The benchmark's traced run times library calls by wrapping them by name
(perfbench/tracing.py, _PATCHES), and skips a name that no longer exists, so
its per-layer metric silently reads 0. This guard fails when a name the
benchmark times is deleted or renamed."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# deleted from the library before this guard existed; their metrics read 0
# until the benchmark stops wrapping them
DEAD = {
    ("imvc.harness", "build_indicators"),
    ("imvc.graph", "auto_sigma"),
    ("imvc.graph", "fuse_graph"),
}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module's annotations here
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_callable_of_the_library():
    missing = {
        (module, attr)
        for module, attr, *_ in _load_tracing()._PATCHES
        if not callable(getattr(importlib.import_module(module), attr, None))
    }
    assert missing <= DEAD, f"traced names missing from the library: {sorted(missing - DEAD)}"
