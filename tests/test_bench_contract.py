"""The benchmark's tracer can still see every library boundary it needs.

perfbench/tracer.py rebinds module-level names of the agplate layers and
refuses to run when a name in its REQUIRED_SITES is missing.  This test
loads the tracer by path, without changing it, so a refactor that drops one
of those bindings fails here rather than only in a traced benchmark run.
"""

import importlib.util
import types
from pathlib import Path

import pytest

import agplate

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("site", tracer.REQUIRED_SITES)
def test_required_site_is_bound(site):
    module_name, name = site.split(".")
    obj = getattr(getattr(agplate, module_name), name, None)
    assert isinstance(obj, types.FunctionType), site
    if name in tracer.THIRD_PARTY:
        return
    home = obj.__module__ or ""
    assert home.startswith("agplate."), (site, home)
    assert home.rsplit(".", 1)[1] in tracer.LAYERS, (site, home)
