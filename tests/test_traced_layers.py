"""The benchmark's per-layer tracer names functions of the package; each must
still exist where the tracer looks it up, or ``bench/run.py --trace 1`` fails."""

import importlib.util
from pathlib import Path

import pytest

import coldstart
import coldstart.cli  # noqa: F401  (not imported by the package itself)

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("module_name, qual", load_layers(), ids=lambda v: v)
def test_traced_layer_resolves_as_the_tracer_installs_it(module_name, qual):
    # the lookup of Tracer.install: a module attribute of the package, then
    # class attributes, then the raw entry of the owner's namespace
    owner = getattr(coldstart, module_name)
    *classes, attr = qual.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    assert attr in vars(owner), f"{module_name}.{qual} is not defined where the tracer looks"
    raw = vars(owner)[attr]
    assert callable(raw) or isinstance(raw, classmethod)
