"""Per-layer host-time tracing, installed from outside the simulator.

:class:`LayerTracer` wraps the public functions of each ``repro`` layer
(``sim``, ``workload``, ``prefetch``, ``fs``, ``machine``, ``metrics``,
``obs``, ``experiments``) and times every call into them.  Nothing under
``src/`` is edited: the wrappers are installed on the classes and modules
by :meth:`LayerTracer.install` and removed by :meth:`LayerTracer.remove`,
which restores every patched attribute exactly.

Most layer boundaries are generators (``FileServer.read_block``,
``BlockCache.prefetch_action``, every process body).  Timing the call
would time only generator creation, so a wrapped generator function
returns a :class:`_TimedGenerator` proxy that opens a span on every
``send``/``throw``.  ``Environment.process`` is wrapped too, so each
process body is attributed to the package that defined its generator
(application -> ``workload``, prefetch daemon -> ``prefetch``, disk
server -> ``machine``, flusher -> ``fs``).

Spans nest on one stack.  A span's self time is its duration minus the
durations of its child spans, so the self times of all layers add up to
the duration of the root spans (``wall_s``).  The tracer keeps only
per-layer and per-function aggregates, except for one named simulation,
whose full spans (name, start, end, parent, root process) go into
compact arrays (:class:`SpanLog`).

Tracing is passive: wrappers read the host clock and never touch
simulation state, so a traced run reproduces the untraced results bit
for bit (the benchmark checks this on every traced run).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["LAYERS", "LayerTracer", "SpanLog", "layer_of_code"]

#: Layers in reporting order.  ``sim`` is the simulation kernel.
LAYERS = (
    "sim",
    "workload",
    "prefetch",
    "fs",
    "machine",
    "metrics",
    "obs",
    "experiments",
)

#: Classes whose public methods are timed, per layer: (module, class,
#: extra non-public names).  Methods are looked up along each class's
#: MRO and installed on the class itself, so a concrete class is timed
#: even where it overrides its base (``OraclePolicy.peek``).
_CLASS_TARGETS: Dict[str, List[Tuple[str, str, Tuple[str, ...]]]] = {
    "sim": [
        ("repro.sim.core", "Environment", ()),
        ("repro.sim.events", "Event", ()),
        ("repro.sim.resources", "Resource", ()),
        ("repro.sim.resources", "PriorityResource", ()),
        ("repro.sim.resources", "Store", ()),
        ("repro.sim.resources", "Container", ()),
        ("repro.sim.sync", "Gate", ()),
        ("repro.sim.sync", "Barrier", ()),
        ("repro.sim.sync", "CountdownLatch", ()),
    ],
    "workload": [
        ("repro.workload.progress", "ProgressTracker", ()),
        ("repro.workload.synchronization", "DynamicBarrier", ()),
        ("repro.workload.synchronization", "NoSync", ()),
        ("repro.workload.synchronization", "PerProcessCountSync", ()),
        ("repro.workload.synchronization", "TotalCountSync", ()),
        ("repro.workload.synchronization", "PortionSync", ()),
    ],
    "prefetch": [
        ("repro.prefetch.daemon", "PrefetchDaemon", ()),
        ("repro.prefetch.oracle", "OraclePolicy", ()),
        ("repro.prefetch.adaptive.policy", "AdaptivePolicy", ()),
    ],
    "fs": [
        ("repro.fs.fileserver", "FileServer", ()),
        ("repro.fs.cache", "BlockCache", ()),
        ("repro.fs.writeback", "WritebackDaemon", ()),
    ],
    "machine": [
        ("repro.machine.machine", "Machine", ()),
        ("repro.machine.node", "Node", ()),
        ("repro.machine.disk", "Disk", ()),
    ],
    "metrics": [
        ("repro.metrics.collector", "RunMetrics", ()),
    ],
    "obs": [
        (
            "repro.obs.recorder",
            "ObsRecorder",
            (
                "_on_read",
                "_on_write",
                "_on_throttle",
                "_on_flusher_action",
                "_on_disk_request",
                "_on_daemon_action",
            ),
        ),
        ("repro.obs.timeline", "TimelineSampler", ("__call__",)),
    ],
}

#: Module-level functions timed, per layer.  Each is rebound in every
#: loaded ``repro`` module that holds it (re-exports and ``from``
#: imports included).
_FUNCTION_TARGETS: Dict[str, List[Tuple[str, str]]] = {
    "workload": [
        ("repro.workload.patterns", "make_pattern"),
        ("repro.workload.synchronization", "make_sync"),
    ],
    "prefetch": [("repro.prefetch.factory", "build_policy")],
    "obs": [("repro.obs.recorder", "run_with_obs")],
    "experiments": [
        ("repro.experiments.suite", "run_suite"),
        ("repro.experiments.runner", "run_experiment"),
    ],
}

#: Methods left untimed.  The event loop dispatches through ``step`` and
#: ``schedule`` on every event, and ``Environment.run`` already spans the
#: loop.  The rest are O(1) reads that the prefetch policies make inside
#: their candidate scans (``OraclePolicy.peek`` calls ``contains`` and
#: ``frontier`` per scanned index): a span costs more than the read, so
#: timing them would charge the tracer's own cost to ``peek``; they count
#: as their caller's time instead.  ``AccessPattern`` and
#: ``MemorySystem`` (the cost model's reference counter), whose methods
#: are all such O(1) calls, are not targets for the same reason.
_SKIP = {
    ("Environment", "step"),
    ("Environment", "schedule"),
    ("ProgressTracker", "frontier"),
    ("ProgressTracker", "issued"),
    ("ProgressTracker", "consumed"),
    ("ProgressTracker", "remaining"),
    ("ProgressTracker", "n_refs"),
    ("BlockCache", "contains"),
    ("BlockCache", "buffer_for"),
}

#: Modules imported before patching, so that every ``from`` import of a
#: timed function exists by then and is restored by ``remove``.
_PRELOAD = ("repro.experiments", "repro.perf.executor", "repro.obs")

_MISSING = object()


def layer_of_code(filename: str) -> str:
    """The ``repro`` package that defines code in ``filename``."""
    parts = filename.replace("\\", "/").split("/")
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro":
            return parts[i + 1] if i + 2 < len(parts) else "repro"
    return "other"


class SpanLog:
    """Full spans of one simulation, in compact parallel arrays.

    Span ``i`` closed ``i``-th; ``parent[i]`` is the index of the
    enclosing span (``-1`` at the root) and ``root[i]`` indexes
    :attr:`names` with the process whose resume the span belongs to
    (``-1`` outside any process).
    """

    def __init__(self, label: str) -> None:
        self.label = label
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.root = array("l")

    def intern(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def __len__(self) -> int:
        return len(self.start)

    def self_by_layer(self) -> Dict[str, float]:
        """Self seconds per layer over this log's spans."""
        child = [0.0] * len(self.start)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[i] - self.start[i]
        out: Dict[str, float] = {}
        for i, name_id in enumerate(self.name):
            layer = self.names[name_id].split(".", 1)[0]
            own = self.end[i] - self.start[i] - child[i]
            out[layer] = out.get(layer, 0.0) + own
        return out

    def write_csv(self, fh) -> None:
        """``index,parent,name,root,start_s,end_s`` rows, times relative
        to the first span's start."""
        origin = min(self.start) if len(self.start) else 0.0
        fh.write("index,parent,name,root,start_s,end_s\n")
        names = self.names
        for i in range(len(self.start)):
            root = self.root[i]
            fh.write(
                f"{i},{self.parent[i]},{names[self.name[i]]},"
                f"{names[root] if root >= 0 else ''},"
                f"{self.start[i] - origin:.9f},{self.end[i] - origin:.9f}\n"
            )


# A span on the tracer's stack is a list [cell, start, child, root]:
# ``cell`` is its function's counter cell (see ``LayerTracer._cell``),
# ``child`` the seconds its child spans took, ``root`` the name of the
# process whose resume it belongs to.  Lists and closures keep the
# per-span cost near a microsecond.


class _TimedGenerator:
    """Generator proxy opening one span per resume.

    Supports what ``yield from`` and :class:`repro.sim.process.Process`
    use: iteration, ``send``, ``throw`` and ``close``, plus ``__name__``
    (the default process name).
    """

    __slots__ = ("_open", "_close", "_gen", "_cell", "_root")

    def __init__(self, tracer, gen, cell, root=None) -> None:
        self._open = tracer._open
        self._close = tracer._close
        self._gen = gen
        self._cell = cell
        self._root = root

    @property
    def __name__(self) -> str:
        return self._gen.__name__

    @property
    def gi_code(self):
        return self._gen.gi_code

    def __iter__(self):
        return self

    def __next__(self):
        frame = self._open(self._cell, self._root)
        try:
            return self._gen.send(None)
        finally:
            self._close(frame)

    def send(self, value):
        frame = self._open(self._cell, self._root)
        try:
            return self._gen.send(value)
        finally:
            self._close(frame)

    def throw(self, *args):
        frame = self._open(self._cell, self._root)
        try:
            return self._gen.throw(*args)
        finally:
            self._close(frame)

    def close(self):
        return self._gen.close()


class LayerTracer:
    """Times calls into each layer; see the module docstring.

    ``record_if(config)`` picks the one simulation whose full spans are
    kept in :attr:`spans` (the first it accepts).
    """

    def __init__(
        self, record_if: Optional[Callable[[Any], bool]] = None
    ) -> None:
        self.record_if = record_if
        #: ``run_experiment`` time before / after ``Environment.run``.
        self.wiring_s = 0.0
        self.summary_s = 0.0
        #: Full spans of the named simulation (``None`` until it runs).
        self.spans: Optional[SpanLog] = None
        #: Targets this ``repro`` tree lacks (reported, not fatal).
        self.missing: List[str] = []
        self._layers: Dict[str, List[float]] = {}
        self._cells: Dict[str, list] = {}
        self._stack: List[list] = []
        self._wall = [0.0]
        self._recording: List[Optional[SpanLog]] = [None]
        self._pending: Dict[int, List[int]] = {}
        self._experiment_marks: List[List[float]] = []
        self._restore: List[Callable[[], None]] = []
        self._open, self._close = self._span_ops()

    # -- aggregates -----------------------------------------------------------

    @property
    def self_s(self) -> Dict[str, float]:
        """Self seconds per layer."""
        return {layer: cell[0] for layer, cell in self._layers.items()}

    @property
    def calls(self) -> Dict[str, int]:
        """Calls per timed function (``layer.Class.method``)."""
        return {k: c[0] for k, c in self._cells.items() if c[0]}

    @property
    def incl_s(self) -> Dict[str, float]:
        """Inclusive seconds per timed function (summed over resumes for
        generators)."""
        return {k: c[1] for k, c in self._cells.items() if c[1]}

    @property
    def wall_s(self) -> float:
        """Seconds of the root spans: the traced wall time."""
        return self._wall[0]

    # -- span stack -----------------------------------------------------------

    def _cell(self, layer: str, key: str) -> list:
        """The counter cell ``[calls, inclusive_s, layer_cell, key]``."""
        cell = self._cells.get(key)
        if cell is None:
            layer_cell = self._layers.setdefault(layer, [0.0])
            cell = self._cells[key] = [0, 0.0, layer_cell, key]
        return cell

    def _span_ops(self):
        stack = self._stack
        wall = self._wall
        recording = self._recording
        clock = time.perf_counter

        def open_span(cell, root=None):
            if root is None and stack:
                root = stack[-1][3]
            frame = [cell, 0.0, 0.0, root]
            stack.append(frame)
            frame[1] = clock()
            return frame

        def close_span(frame):
            end = clock()
            if stack.pop() is not frame:  # pragma: no cover - tracer bug
                raise RuntimeError(f"span stack corrupted at {frame[0][3]}")
            duration = end - frame[1]
            cell = frame[0]
            cell[1] += duration
            cell[2][0] += duration - frame[2]
            if stack:
                stack[-1][2] += duration
            else:
                wall[0] += duration
            if recording[0] is not None:
                self._record(recording[0], frame, end)

        return open_span, close_span

    def _record(self, log: SpanLog, frame: list, end: float) -> None:
        index = len(log.start)
        log.name.append(log.intern(frame[0][3]))
        log.start.append(frame[1])
        log.end.append(end)
        log.parent.append(-1)
        log.root.append(log.intern(frame[3]) if frame[3] is not None else -1)
        # Children close before their parent: point them here now that
        # this span has an index, and queue this one for its own parent.
        for child in self._pending.pop(id(frame), ()):
            log.parent[child] = index
        if self._stack:
            self._pending.setdefault(id(self._stack[-1]), []).append(index)

    # -- wrapper factories ----------------------------------------------------

    def timed_generator(self, gen, layer: str, key: str, root=None):
        """``gen`` behind a proxy that spans each resume as ``key``."""
        return _TimedGenerator(self, gen, self._cell(layer, key), root)

    def _wrap(self, layer: str, key: str, func: Callable) -> Callable:
        cell = self._cell(layer, key)
        open_span, close_span = self._open, self._close
        if inspect.isgeneratorfunction(func):
            tracer = self

            @functools.wraps(func)
            def gen_wrapper(*args, **kwargs):
                cell[0] += 1
                return _TimedGenerator(tracer, func(*args, **kwargs), cell)

            return gen_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            frame = open_span(cell)
            try:
                return func(*args, **kwargs)
            finally:
                close_span(frame)

        return wrapper

    def _wrap_process(self, func: Callable) -> Callable:
        """``Environment.process``: time the call under ``sim`` and wrap
        the body so each resume is charged to its defining package."""
        tracer = self
        cell = self._cell("sim", "sim.Environment.process")

        @functools.wraps(func)
        def process(env, generator, name=None):
            cell[0] += 1
            layer = layer_of_code(generator.gi_code.co_filename)
            body = tracer.timed_generator(
                generator,
                layer,
                f"{layer}.process",
                name or getattr(generator, "__name__", "process"),
            )
            frame = tracer._open(cell)
            try:
                return func(env, body, name)
            finally:
                tracer._close(frame)

        return process

    def _wrap_run(self, func: Callable) -> Callable:
        """``Environment.run``: the event loop, and the split point of
        ``run_experiment`` into wiring and summary."""
        tracer = self
        cell = self._cell("sim", "sim.Environment.run")

        @functools.wraps(func)
        def run(env, until=None):
            marks = tracer._experiment_marks
            if marks and len(marks[-1]) == 1:
                marks[-1].append(time.perf_counter())
            cell[0] += 1
            frame = tracer._open(cell)
            try:
                return func(env, until)
            finally:
                tracer._close(frame)
                if marks and len(marks[-1]) == 2:
                    marks[-1].append(time.perf_counter())

        return run

    def _wrap_experiment(self, func: Callable) -> Callable:
        """``run_experiment``: the root span of every simulation; starts
        span recording for the named one."""
        tracer = self
        cell = self._cell("experiments", "experiments.run_experiment")

        @functools.wraps(func)
        def run_experiment(config, *args, **kwargs):
            cell[0] += 1
            record = (
                tracer.record_if is not None
                and tracer.spans is None
                and tracer.record_if(config)
            )
            if record:
                tracer.spans = tracer._recording[0] = SpanLog(config.label)
            marks = [time.perf_counter()]
            tracer._experiment_marks.append(marks)
            frame = tracer._open(cell)
            try:
                return func(config, *args, **kwargs)
            finally:
                tracer._close(frame)
                tracer._experiment_marks.pop()
                if len(marks) == 3:
                    tracer.wiring_s += marks[1] - marks[0]
                    tracer.summary_s += time.perf_counter() - marks[2]
                if record:
                    tracer._recording[0] = None
                    tracer._pending.clear()

        return run_experiment

    # -- install / remove -----------------------------------------------------

    def _patch_attr(self, owner: Any, name: str, new: Any) -> None:
        """Set ``owner.name`` and remember how to undo it exactly."""
        had = name in vars(owner)
        old = vars(owner).get(name, _MISSING)
        setattr(owner, name, new)

        def undo() -> None:
            if had:
                setattr(owner, name, old)
            else:
                delattr(owner, name)

        self._restore.append(undo)

    def install(self) -> None:
        """Install every wrapper.  Call :meth:`remove` to undo."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        import importlib

        for module_name in _PRELOAD:
            importlib.import_module(module_name)
        plan: List[Tuple[Any, str, Any]] = []
        for layer, targets in _CLASS_TARGETS.items():
            for module_name, class_name, extra in targets:
                cls = getattr(
                    importlib.import_module(module_name), class_name, None
                )
                if cls is None:
                    self.missing.append(f"{module_name}.{class_name}")
                    continue
                for name, func in _public_methods(cls, extra):
                    if (class_name, name) in _SKIP:
                        continue
                    key = f"{layer}.{class_name}.{name}"
                    if (class_name, name) == ("Environment", "process"):
                        new = self._wrap_process(func)
                    elif (class_name, name) == ("Environment", "run"):
                        new = self._wrap_run(func)
                    else:
                        new = self._wrap(layer, key, func)
                    plan.append((cls, name, new))
        for layer, targets in _FUNCTION_TARGETS.items():
            for module_name, func_name in targets:
                func = getattr(
                    importlib.import_module(module_name), func_name, None
                )
                if func is None:
                    self.missing.append(f"{module_name}.{func_name}")
                    continue
                if func_name == "run_experiment":
                    new = self._wrap_experiment(func)
                else:
                    new = self._wrap(layer, f"{layer}.{func_name}", func)
                for module in _modules_holding(func, func_name):
                    plan.append((module, func_name, new))
        for owner, name, new in plan:
            self._patch_attr(owner, name, new)

    def remove(self) -> None:
        """Undo :meth:`install`, restoring every attribute exactly."""
        while self._restore:
            self._restore.pop()()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


def _public_methods(cls: type, extra: Tuple[str, ...]):
    """``(name, function)`` for each public plain method along ``cls``'s
    MRO (nearest definition wins), plus the ``extra`` names."""
    seen = set()
    for klass in cls.__mro__:
        if klass is object:
            continue
        for name, value in vars(klass).items():
            if name in seen:
                continue
            seen.add(name)
            if name.startswith("_") and name not in extra:
                continue
            if inspect.isfunction(value):
                yield name, value


def _modules_holding(func: Callable, name: str):
    """Loaded ``repro`` modules whose attribute ``name`` is ``func``."""
    for module_name, module in sorted(sys.modules.items()):
        if module is None:
            continue
        if module_name != "repro" and not module_name.startswith("repro."):
            continue
        if vars(module).get(name) is func:
            yield module
