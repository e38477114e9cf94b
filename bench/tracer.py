"""Span and counter recorder that wraps pnphom from the outside.

``Tracer.install()`` replaces every public function and every public
method of the package's modules with a timing wrapper, the way callers
see them: a function is patched on every pnphom module that holds it as
an attribute (``pnphom.micro.assemble_drift`` as well as
``pnphom.fem.assemble_drift``), a method on its class.  It also wraps
``scipy.sparse.linalg.splu`` and the sweep's per-run helper, which is the
fine-run boundary.  Nothing under ``src/`` changes; ``uninstall()`` puts
every original back.

Each span is ``[name, layer, start, end, parent, run_id, nested]``: the
qualified name (``fem.assemble_drift``, ``micro.MicroProblem.run``), the
module it belongs to, ``perf_counter`` start and end, the index of the
enclosing span (-1 for a root span), the (eps, omega) id of the fine run
it belongs to, and whether a span of the same name encloses it.  Spans
are kept per pass, in memory, until the workload ends.
"""

import contextlib
import functools
import importlib
import inspect
import pkgutil
import time

import scipy.sparse.linalg as spla

SPLU = "scipy.splu"
FINE_RUN_HELPER = "_micro_run_row"


def _iterations(result):
    return result.iterations


def _ledger_gummel(result):
    _, ledger = result
    return sum(row["gummel_iters"] for row in ledger.rows)


# span name -> (counter name, function of the call's result)
OBSERVERS = {
    "fem.bicgstab_solve": ("fem.bicgstab_iters", _iterations),
    "fem.cg_solve": ("fem.cg_iters", _iterations),
    "fem.newton_solve": ("fem.newton_iters", _iterations),
    "micro.MicroProblem.run": ("micro.gummel_iters", _ledger_gummel),
    "macro.MacroProblem.run": ("macro.gummel_iters", _ledger_gummel),
}


class Pass:
    """Spans and counters of one pass of a workload."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.start = time.perf_counter()
        self.end = None

    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value


class Tracer:
    def __init__(self):
        self.passes = []
        self._stack = []
        self._active = {}
        self._patches = []

    # -- recording ----------------------------------------------------------

    def begin_pass(self):
        self.passes.append(Pass())
        self._stack = []

    def end_pass(self):
        self.passes[-1].end = time.perf_counter()

    def open(self, name, layer, run_id=None):
        spans = self.passes[-1].spans
        parent = self._stack[-1] if self._stack else -1
        if run_id is None and parent >= 0:
            run_id = spans[parent][5]
        nested = self._active.get(name, 0) > 0
        self._active[name] = self._active.get(name, 0) + 1
        spans.append([name, layer, time.perf_counter(), None, parent,
                      run_id, nested])
        self._stack.append(len(spans) - 1)
        return len(spans) - 1

    def close(self, index):
        span = self.passes[-1].spans[index]
        span[3] = time.perf_counter()
        self._stack.pop()
        self._active[span[0]] -= 1

    @contextlib.contextmanager
    def span(self, name, layer, run_id=None):
        """A span opened by the benchmark itself."""
        index = self.open(name, layer, run_id)
        try:
            yield
        finally:
            self.close(index)

    def _wrap(self, fn, name, layer, run_id_of=None):
        observer = OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            run_id = run_id_of(args) if run_id_of else None
            index = tracer.open(name, layer, run_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if observer is not None:
                tracer.passes[-1].add(observer[0], observer[1](result))
            if name == SPLU:
                tracer._attribute_lu(index)
            return result

        return wrapper

    def _attribute_lu(self, index):
        """Charge one factorization to the nearest enclosing pnphom span."""
        spans = self.passes[-1].spans
        span = spans[index]
        parent = span[4]
        layer = spans[parent][1] if parent >= 0 else "bench"
        span[1] = layer  # its self time counts toward the same layer
        record = self.passes[-1]
        record.add(layer + ".lu_count", 1)
        record.add(layer + ".lu_s", span[3] - span[2])

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, package):
        """Wrap the public functions and methods of every module of package."""
        modules = {}
        for info in pkgutil.iter_modules(package.__path__):
            modules[info.name] = importlib.import_module(
                package.__name__ + "." + info.name)
        for layer, module in sorted(modules.items()):
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or getattr(
                        obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(obj, "%s.%s" % (layer, attr), layer)
                    for other in modules.values():
                        for oattr, oobj in list(vars(other).items()):
                            if oobj is obj:
                                self._patch(other, oattr, wrapper)
                elif inspect.isclass(obj) and not issubclass(obj,
                                                             BaseException):
                    self._wrap_class(obj, "%s.%s" % (layer, attr), layer)
        sweep = modules.get("sweep")
        if sweep is not None and hasattr(sweep, FINE_RUN_HELPER):
            # (template, config, reference, n, omega_index)
            self._patch(sweep, FINE_RUN_HELPER, self._wrap(
                getattr(sweep, FINE_RUN_HELPER), "sweep.fine_run", "sweep",
                run_id_of=lambda a: "eps=1/%d,omega=%d" % (a[3], a[4])))
        self._patch(spla, "splu", self._wrap(spla.splu, SPLU, "scipy"))

    def _wrap_class(self, cls, prefix, layer):
        for attr, obj in sorted(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__call__"):
                continue
            if inspect.isfunction(obj):
                self._patch(cls, attr,
                            self._wrap(obj, "%s.%s" % (prefix, attr), layer))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def summarize(record):
    """Aggregate one pass: per-name inclusive time and calls, per-layer
    self time, and the time covered by root spans."""
    spans = record.spans
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[4] >= 0:
            child_time[span[4]] += span[3] - span[2]
    inclusive, calls, self_time = {}, {}, {}
    covered = 0.0
    for i, span in enumerate(spans):
        name, layer, start, end, parent, _, nested = span
        duration = end - start
        calls[name] = calls.get(name, 0) + 1
        if not nested:
            inclusive[name] = inclusive.get(name, 0.0) + duration
        self_time[layer] = (self_time.get(layer, 0.0)
                            + duration - child_time[i])
        if parent < 0:
            covered += duration
    return {"inclusive": inclusive, "calls": calls, "self_time": self_time,
            "covered": covered, "wall": record.end - record.start,
            "n_spans": len(spans)}
