"""Span tracer that times pcwgprobe's layers from outside the program.

It replaces public functions and methods of the layer modules with
wrappers that open a span around each call.  A function is replaced in
every module namespace that imported it by name (``pipeline`` holds its
own binding of ``fiber.dispersion_curve``, ``cli`` one of
``bands.waveguide_bands``), so no call path slips past the tracer.
Methods are replaced on their class.  Names missing from the program
(ROADMAP items plan to delete some, such as ``parity_score``) are
skipped and read as zero calls.

A span's self time is its duration minus the part covered by its child
spans; the sum of all self times inside an outer span equals that
span's duration.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

PACKAGE = "pcwgprobe"

# Namespaces searched for by-name imports of a wrapped function.
NAMESPACES = ("fiber", "slab", "bands", "coupling", "pipeline", "config", "cli")

# (span name, defining module, attribute path)
TARGETS = (
    ("fiber.fundamental_neff", "fiber", "fundamental_neff"),
    ("fiber.dispersion_curve", "fiber", "dispersion_curve"),
    ("fiber.dbeta_dd", "fiber", "dbeta_dd"),
    ("fiber.exterior_decay", "fiber", "exterior_decay"),
    ("slab.slab_effective_index", "slab", "slab_effective_index"),
    ("bands.PlaneWaveSolver.init", "bands", "PlaneWaveSolver.__init__"),
    ("bands.solve_k", "bands", "PlaneWaveSolver.solve_k"),
    ("bands.localization", "bands", "PlaneWaveSolver.localization"),
    ("bands.parity_score", "bands", "PlaneWaveSolver.parity_score"),
    ("bands.waveguide_bands", "bands", "waveguide_bands"),
    ("bands.bulk_bands", "bands", "bulk_bands"),
    ("bands.thinning_shift", "bands", "thinning_shift"),
    ("bands.defect_profile", "bands", "defect_profile"),
    ("bands.phase_match_crossing", "bands", "phase_match_crossing"),
    ("coupling.kappa_perp", "coupling", "CouplerConfig.kappa_perp"),
    ("coupling.contra_transmission", "coupling", "contra_transmission"),
    ("coupling.co_transmission", "coupling", "co_transmission"),
    ("coupling.kappa_overlap", "coupling", "kappa_overlap"),
    ("coupling.lateral_profile", "coupling", "lateral_profile"),
    ("pipeline.synthesize_map", "pipeline", "synthesize_map"),
    ("pipeline.extract_resonances", "pipeline", "extract_resonances"),
    ("pipeline.label_branches", "pipeline", "label_branches"),
    ("pipeline.to_bandstructure", "pipeline", "to_bandstructure"),
    ("pipeline.gap_sweep", "pipeline", "gap_sweep"),
)


class Tracer:
    """Spans kept in memory: per name, calls, inclusive and self seconds.

    ``hooks`` maps a span name to ``hook(tracer, arguments, result)``,
    called after the span closes with the call's arguments bound to their
    parameter names; hooks add to ``counters`` or append to ``kept`` what
    is evaluated after the traced pass.  A hook that raises does not reach
    the program: its error is kept in ``errors``.  Calls made while
    ``active`` is false run unwrapped and are not recorded.
    """

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.active = False
        self.stats = {}  # name -> [calls, inclusive_s, self_s]
        self.counters = {}
        self.kept = []
        self.errors = []
        self._stack = []  # open spans: [name, start, child_s]
        self._undo = []

    # -- spans -------------------------------------------------------------

    def open(self, name):
        self._stack.append([name, time.perf_counter(), 0.0])

    def close(self):
        name, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        if self._stack:
            self._stack[-1][2] += duration
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def total_calls(self):
        return sum(entry[0] for entry in self.stats.values())

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn):
        hook = self.hooks.get(name)
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if hook is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(self, bound.arguments, result)
                except Exception as exc:  # a tracer fault, not the program's
                    self.errors.append(f"{name} hook: {type(exc).__name__}: {exc}")
            return result

        return wrapper

    def install(self):
        modules = {}
        for ns in NAMESPACES:
            modules[ns] = importlib.import_module(f"{PACKAGE}.{ns}")
        for name, home, path in TARGETS:
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(modules[home], owner_name, None)
                original = None if owner is None else owner.__dict__.get(attr)
                if original is None:
                    continue
                setattr(owner, attr, self._wrap(name, original))
                self._undo.append((owner, attr, original))
                continue
            original = getattr(modules[home], attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for module in modules.values():
                if module.__dict__.get(attr) is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def wrapper_cost_s() -> float:
    """Seconds one traced call adds, timed here on a hooked wrapper.

    The hooked path (argument binding and a hook) is the dearer one, so
    the span count times this cost errs high as an estimate of what the
    spans add to a traced pass.
    """

    def target(a, b=None):
        return a

    calls = 20000
    tracer = Tracer(hooks={"calibrate": lambda tracer, arguments, result: None})
    wrapped = tracer._wrap("calibrate", target)
    tracer.active = True
    costs = []
    for _ in range(5):
        t0 = time.perf_counter()
        for i in range(calls):
            target(i)
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for i in range(calls):
            wrapped(i)
        costs.append((time.perf_counter() - t0 - bare) / calls)
    return sorted(costs)[len(costs) // 2]
