"""Per-layer tracing of agplate from outside the library.

The tracer rebinds names in the namespaces of the layer modules, so every
call a module makes through a module-level name goes through a timing
wrapper: ``ball_spectrum.eval_m`` catches the series evaluations that the
secular determinant makes, ``measure.phi_volume`` catches the quadratures
that ``phi_inverse`` makes inside ``measure`` itself, and so on.  Nothing
under ``src/`` is edited; ``uninstall`` restores every original binding.

What is wrapped: every public function defined in an agplate layer module
that a layer module holds under a module-level name (its own or imported),
plus the third-party ``brentq`` where a layer imports it.  A wrapped call is
attributed to the layer that defines the function (``brentq`` to the layer
that calls it).  For each binding the tracer keeps calls, inclusive time and
self time (inclusive minus the time of wrapped calls made inside it).  The
hot boundaries make tens of thousands of calls per operation, so they are
only aggregated; spans with a parent are kept for the coarse calls in
``SPAN_SITES`` and for whole operations.
"""

from __future__ import annotations

import functools
import itertools
import time
import types
from contextlib import contextmanager

LAYERS = ("kummer", "measure", "ball_spectrum", "jab_solver", "constants")
THIRD_PARTY = ("brentq",)

# Bindings whose absence means the benchmark no longer sees the layer's work.
REQUIRED_SITES = (
    "ball_spectrum.eval_m",
    "ball_spectrum.eval_m_dz",
    "ball_spectrum.secular_parts",
    "ball_spectrum.scan_lowest_root",
    "ball_spectrum.brentq",
    "ball_spectrum.lowest_eigenvalue",
    "jab_solver.secular_parts",
    "jab_solver.jab_condition",
    "jab_solver.solve_jab",
    "jab_solver.scan_lowest_root",
    "jab_solver.half_mass_radius",
    "jab_solver.complement_radius",
    "measure.phi_volume",
    "measure.phi_inverse",
    "constants.lowest_eigenvalue",
    "constants.minimize_jab",
    "constants.c_constant",
)

SPAN_SITES = frozenset(
    {
        "constants.c_constant",
        "constants.lowest_eigenvalue",
        "constants.minimize_jab",
        "ball_spectrum.lowest_eigenvalue",
        "jab_solver.solve_jab",
    }
)


class TraceError(RuntimeError):
    """The tracer cannot see a boundary it needs."""


class Site:
    """Aggregate for one rebound name."""

    __slots__ = ("layer", "calls", "incl", "self_time")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.calls = 0
        self.incl = 0.0
        self.self_time = 0.0


class Tracer:
    """Installs timing wrappers on the layer modules of a loaded agplate."""

    def __init__(self, package) -> None:
        self.modules = {name: getattr(package, name) for name in LAYERS}
        self.sites: dict[str, Site] = {}
        self.layer_incl = {name: 0.0 for name in LAYERS}
        self._depth = {name: 0 for name in LAYERS}
        self._child = [0.0]  # child-time accumulator of the innermost call
        self._originals: list[tuple[object, str, object]] = []
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self._span_stack: list[int] = []
        self._span_ids = itertools.count(1)
        self.op_index = -1
        # work counts that need a look at arguments or results
        self.series_terms = 0
        self.series_flagged = 0
        self.scan_f_evals = 0
        self.brent_f_evals: dict[str, int] = {}  # per brentq binding
        self.hinted_solves = 0
        self.hint_fallbacks = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for mod_name, module in self.modules.items():
            for name, obj in list(vars(module).items()):
                layer = self._layer_of(mod_name, name, obj)
                if layer is None:
                    continue
                site = f"{mod_name}.{name}"
                wrapped = self._wrap(obj, site, layer)
                self._originals.append((module, name, obj))
                setattr(module, name, wrapped)
        missing = [s for s in REQUIRED_SITES if s not in self.sites]
        if missing:
            self.uninstall()
            raise TraceError(
                "tracer cannot see these library boundaries any more: "
                + ", ".join(missing)
            )

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._originals):
            setattr(module, name, obj)
        self._originals.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @staticmethod
    def _layer_of(mod_name: str, name: str, obj) -> str | None:
        if not isinstance(obj, types.FunctionType) or name.startswith("_"):
            return None
        if name in THIRD_PARTY:
            return mod_name
        home = obj.__module__ or ""
        if not home.startswith("agplate."):
            return None
        layer = home.rsplit(".", 1)[1]
        return layer if layer in LAYERS else None

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, site_name: str, layer: str):
        site = self.sites[site_name] = Site(layer)
        depth = self._depth
        incl = self.layer_incl
        clock = time.perf_counter
        tracer = self
        pre = post = None
        short = site_name.rsplit(".", 1)[1]
        if short in ("eval_m", "eval_m_dz"):
            post = self._post_series
        elif short == "scan_lowest_root":
            pre = self._pre_scan
        elif short == "brentq":
            self.brent_f_evals[site_name] = 0
            pre = functools.partial(self._pre_brent, site_name)
        elif short == "solve_jab":
            pre, post = self._pre_solve, self._post_solve
        span = site_name in SPAN_SITES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = None
            if pre is not None:
                args, token = pre(args, kwargs)
            if span:
                span_id = tracer._open_span()
            depth[layer] += 1
            outer = tracer._child
            tracer._child = [0.0]
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                depth[layer] -= 1
                site.calls += 1
                site.incl += dt
                site.self_time += dt - tracer._child[0]
                tracer._child = outer
                outer[0] += dt
                if depth[layer] == 0:
                    incl[layer] += dt
                if span:
                    tracer._close_span(span_id, site_name, t0, t0 + dt)
            if post is not None:
                post(result, token)
            return result

        return wrapper

    def _post_series(self, result, _token) -> None:
        self.series_terms += result.terms_used
        if result.cancellation_flag:
            self.series_flagged += 1

    def _pre_scan(self, args, kwargs):
        f = args[0]

        def scanned(x):
            self.scan_f_evals += 1
            return f(x)

        scanned.unwrapped = f
        return (scanned,) + tuple(args[1:]), None

    def _pre_brent(self, site_name, args, kwargs):
        f = getattr(args[0], "unwrapped", args[0])
        counts = self.brent_f_evals

        def refined(x):
            counts[site_name] += 1
            return f(x)

        return (refined,) + tuple(args[1:]), None

    def _pre_solve(self, args, kwargs):
        hint = kwargs.get("lambda_hint", args[3] if len(args) > 3 else None)
        hinted = hint is not None and hint > 0.0
        return args, (hinted, self.sites["jab_solver.scan_lowest_root"].calls)

    def _post_solve(self, _result, token) -> None:
        hinted, scans_before = token
        if hinted:
            self.hinted_solves += 1
            if self.sites["jab_solver.scan_lowest_root"].calls > scans_before:
                self.hint_fallbacks += 1

    # -- spans ----------------------------------------------------------------

    def _open_span(self) -> int:
        span_id = next(self._span_ids)
        self._span_stack.append(span_id)
        return span_id

    def _close_span(self, span_id: int, name: str, t0: float, t1: float) -> None:
        self._span_stack.pop()
        parent = self._span_stack[-1] if self._span_stack else 0
        self.spans.append((span_id, parent, self.op_index, name, t0, t1))

    @contextmanager
    def operation(self, index: int):
        """Span around one benchmark operation; its spans share the index."""
        self.op_index = index
        span_id = self._open_span()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close_span(span_id, "op", t0, time.perf_counter())

    # -- summaries ------------------------------------------------------------

    def calls(self, *site_names: str) -> int:
        return sum(self.sites[s].calls for s in site_names)

    def layer_calls(self, layer: str) -> int:
        return sum(s.calls for s in self.sites.values() if s.layer == layer)

    def layer_self(self, layer: str) -> float:
        return sum(s.self_time for s in self.sites.values() if s.layer == layer)

    def calls_by_function(self, layer: str, function: str) -> int:
        """Calls of one function through every binding that holds it."""
        return sum(
            s.calls
            for name, s in self.sites.items()
            if s.layer == layer and name.rsplit(".", 1)[1] == function
        )

    def site_table(self) -> dict[str, dict[str, float]]:
        return {
            name: {
                "layer": s.layer,
                "calls": s.calls,
                "incl_s": s.incl,
                "self_s": s.self_time,
            }
            for name, s in sorted(self.sites.items())
            if s.calls
        }
