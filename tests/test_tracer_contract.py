"""The benchmark's tracer (perfbench/tracing.py) wraps hypcloud functions by
module attribute name.  Every name it patches must exist, and uninstalling
must put back each original object."""

import importlib.util
import sys
from pathlib import Path

import hypcloud  # noqa: F401  (the tracer finds the modules in sys.modules)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
PATCHES = 29


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_and_restores_every_attribute():
    modules = {name: mod for name, mod in sys.modules.items() if name.startswith("hypcloud.")}
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        patched = [(module.__name__, attr, original) for module, attr, original in tracer._patched]
        assert len(patched) == len({(name, attr) for name, attr, _ in patched}) == PATCHES
        for name, attr, original in patched:
            assert original is before[name][attr]
            assert getattr(modules[name], attr) is not original
    finally:
        tracer.uninstall()
    for name, mod in modules.items():
        after = vars(mod)
        assert after.keys() == before[name].keys()
        assert all(after[key] is value for key, value in before[name].items()), name
