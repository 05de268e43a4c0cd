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


# the counting sites the benchmark's work counts read, by module binding
COUNTED_SITES = (
    "ball_spectrum.eval_m",
    "jab_solver.jab_condition",
    "jab_solver.solve_jab",
    "measure.phi_volume",
)


def test_one_constant_reaches_every_counted_site(monkeypatch):
    # a binding that exists but is routed around (say, a kernel that skips
    # eval_m) would read 0 in the benchmark's counts; catch it here
    calls = dict.fromkeys(COUNTED_SITES, 0)

    def counted(site, fn):
        def wrapper(*args, **kwargs):
            calls[site] += 1
            return fn(*args, **kwargs)

        return wrapper

    for site in COUNTED_SITES:
        module_name, name = site.split(".")
        module = getattr(agplate, module_name)
        monkeypatch.setattr(module, name, counted(site, getattr(module, name)))
    agplate.constants.c_constant(2, 1.0)
    assert all(calls.values()), calls
