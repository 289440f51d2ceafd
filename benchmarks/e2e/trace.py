"""Span tracing from outside the program, for the traced run.

``installed(tracer)`` wraps the public callables of every layer of
``src/repro`` (class-level patches, module-level functions wherever a
module holds a reference, and the factory methods whose returned
closures do the per-key work) with span recorders, and restores every
original on exit — also when the workload raises.

A span has a name, a start, an end and a parent.  A name's *self time*
is its spans' duration minus the part of that interval its child spans
cover; children on threads the span started count by the union of
their intervals.  Per name the tracer keeps calls, inclusive time
(outermost spans only, so nested facades do not double count) and self
time for every span, and full span trees for a deterministic 1-in-N
sample of top-level requests.
"""

from __future__ import annotations

import contextlib
import sys
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: The span tree of every Nth top-level request of a thread is kept.
SAMPLE_EVERY = 1000
#: Spans kept per sampled request tree, and trees kept per run.
MAX_TREE_SPANS = 512
MAX_TREES = 256

LAYERS = ("core", "system", "lsm", "filters", "storage", "server")


class _ThreadState:
    """One thread's open spans and aggregates (no locking needed)."""

    __slots__ = ("thread", "stack", "depth", "agg", "phases",
                 "root_total", "parent_frame", "request_depth",
                 "requests_seen", "tree", "tree_stack", "tree_truncated")

    def __init__(self, thread: threading.Thread) -> None:
        self.thread = thread.name
        #: Open spans, innermost last:
        #: [child seconds, foreign intervals, name].
        self.stack: List[list] = []
        self.depth: Dict[str, int] = {}
        #: name -> [calls, inclusive seconds, self seconds].
        self.agg: Dict[str, list] = {}
        #: Seconds inside outermost spans on this thread.
        self.root_total = 0.0
        #: Closed phases: name -> (aggregates, root seconds).
        self.phases: Dict[str, Tuple[Dict[str, list], float]] = {}
        #: The span (on another thread) that started this thread.
        self.parent_frame = getattr(thread, "_e2e_parent_frame", None)
        self.request_depth = 0
        self.requests_seen = 0
        self.tree: Optional[list] = None
        self.tree_stack: List[int] = []
        self.tree_truncated = False


def _union_seconds(intervals: List[Tuple[float, float]],
                   low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    covered = 0.0
    edge = low
    for start, end in sorted(intervals):
        start = max(start, edge)
        end = min(end, high)
        if end > start:
            covered += end - start
            edge = end
    return covered


class Tracer:
    """Aggregates and sampled trees for one traced pass."""

    def __init__(self, sample_every: int = SAMPLE_EVERY,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.sample_every = max(1, sample_every)
        self._clock = clock
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self.trees: List[dict] = []
        #: Every name a callable has been wrapped under.
        self.span_names: set = set()
        #: Frames passed through ``protocol.encode_frame``, and their bytes.
        self.frames = 0
        self.frame_bytes = 0

    # ---------------------------------------------------------------- state

    def _new_state(self) -> _ThreadState:
        state = _ThreadState(threading.current_thread())
        self._local.state = state
        with self._lock:
            self._states.append(state)
        return state

    def current_frame(self) -> Optional[list]:
        """The calling thread's innermost open span, if any."""
        state = getattr(self._local, "state", None)
        return state.stack[-1] if state is not None and state.stack else None

    def end_phase(self, phase: str) -> None:
        """File everything recorded since the last phase under ``phase``.

        The traced run has three: ``setup`` (environment construction),
        ``pass`` (the measured pass) and whatever teardown adds after it,
        which is never read.  Called between phases, when no request is
        in flight.
        """
        with self._lock:
            for state in self._states:
                state.phases[phase] = (state.agg, state.root_total)
                state.agg = {}
                state.root_total = 0.0

    # -------------------------------------------------------------- wrapping

    def span(self, name: str, fn: Callable, request: bool = False
             ) -> Callable:
        """``fn`` wrapped so that every call records one span."""
        self.span_names.add(name)
        local = self._local
        new_state = self._new_state
        clock = self._clock
        sample_every = self.sample_every
        finish_tree = self._finish_tree

        def spanned(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            stack = state.stack
            frame = [0.0, None, name]
            depth = state.depth
            nested = depth.get(name, 0)
            depth[name] = nested + 1
            owns_tree = False
            if request:
                if state.request_depth == 0:
                    state.requests_seen += 1
                    if (state.tree is None
                            and state.requests_seen % sample_every == 0):
                        state.tree = []
                        state.tree_truncated = False
                        owns_tree = True
                state.request_depth += 1
            index = -1
            started = clock()
            if state.tree is not None:
                tree = state.tree
                if len(tree) < MAX_TREE_SPANS:
                    index = len(tree)
                    parent = state.tree_stack[-1] if state.tree_stack else -1
                    tree.append([name, started, started, parent])
                    state.tree_stack.append(index)
                else:
                    state.tree_truncated = True
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                ended = clock()
                elapsed = ended - started
                stack.pop()
                depth[name] = nested
                covered = frame[0]
                if frame[1]:
                    covered = min(elapsed, covered + _union_seconds(
                        frame[1], started, ended))
                if stack:
                    stack[-1][0] += elapsed
                else:
                    state.root_total += elapsed
                    if state.parent_frame is not None:
                        state.parent_frame[1].append((started, ended))
                totals = state.agg.get(name)
                if totals is None:
                    totals = state.agg[name] = [0, 0.0, 0.0]
                totals[0] += 1
                if not nested:
                    totals[1] += elapsed
                totals[2] += elapsed - covered
                if request:
                    state.request_depth -= 1
                if index >= 0:
                    state.tree[index][2] = ended
                    state.tree_stack.pop()
                if owns_tree:
                    finish_tree(state, stack)

        spanned.__wrapped__ = fn
        return spanned

    def factory(self, name: str, fn: Callable, request: bool = False
                ) -> Callable:
        """Span ``fn`` *and* the callable it returns (``getter`` & co)."""
        span = self.span

        def make(*args, **kwargs):
            product = fn(*args, **kwargs)
            return span(name, product, request) if callable(product) \
                else product

        return span(name, make)

    def _finish_tree(self, state: _ThreadState, stack: List[list]) -> None:
        tree, state.tree = state.tree, None
        state.tree_stack.clear()
        with self._lock:
            if len(self.trees) >= MAX_TREES:
                return
            origin = tree[0][1]
            self.trees.append({
                "request": f"{state.thread}#{state.requests_seen}",
                "thread": state.thread,
                "parent": stack[-1][2] if stack else None,
                "truncated": state.tree_truncated,
                "spans": [{"name": name,
                           "start_us": (start - origin) * 1e6,
                           "end_us": (end - origin) * 1e6,
                           "parent": parent}
                          for name, start, end, parent in tree],
            })

    # ------------------------------------------------------------- read-out

    def aggregates(self, phase: str = "pass"
                   ) -> Dict[str, Dict[str, float]]:
        """name -> {calls, total_s, self_s} of ``phase``, over all threads."""
        merged: Dict[str, list] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (calls, total, own) in state.phases.get(
                    phase, ({}, 0.0))[0].items():
                into = merged.setdefault(name, [0, 0.0, 0.0])
                into[0] += calls
                into[1] += total
                into[2] += own
        return {name: {"calls": calls, "total_s": total, "self_s": own}
                for name, (calls, total, own) in sorted(merged.items())}

    def root_seconds(self, thread_names, phase: str = "pass") -> float:
        """Seconds the named threads spent inside any span of ``phase``."""
        with self._lock:
            return sum(state.phases.get(phase, ({}, 0.0))[1]
                       for state in self._states
                       if state.thread in thread_names)


# ------------------------------------------------------------------ patching

def _modules():
    """Modules whose references to a patched function must follow it."""
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro.")
                 or name == "workloads")]


def _subclasses(cls) -> list:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


class PatchTargetMissing(Exception):
    """A callable the tracer is told to span is not where it is expected.

    Skipping it would drop its span, and a span that disappears reads as
    a gain: the traced run fails instead, until ``_install`` is corrected.
    """


class _Patches:
    """Every replaced attribute, so that each can be put back."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        #: (owner, attribute, the exact object found in the owner's dict).
        self.applied: List[Tuple[object, str, object]] = []

    def _set(self, owner, attribute: str, original, replacement) -> None:
        self.applied.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def method(self, cls, attribute: str, name: str, request: bool = False,
               factory: bool = False) -> None:
        """Patch ``cls.attribute``, which ``cls`` itself must define."""
        original = cls.__dict__.get(attribute)
        if original is None:
            raise PatchTargetMissing(
                f"{cls.__module__}.{cls.__qualname__} defines no "
                f"{attribute!r} (span {name!r})")
        wrap = self.tracer.factory if factory else self.tracer.span
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(
                wrap(name, original.__func__, request))
        else:
            replacement = wrap(name, original, request)
        self._set(cls, attribute, original, replacement)

    def methods(self, classes, attributes, name: str, request: bool = False,
                factory: bool = False) -> None:
        for cls in classes:
            for attribute in attributes:
                self.method(cls, attribute, name, request, factory)

    def function(self, original: Callable, name: str,
                 replacement: Optional[Callable] = None) -> None:
        """Patch every module-level reference to ``original``."""
        if replacement is None:
            replacement = self.tracer.span(name, original)
        found = len(self.applied)
        for module in _modules():
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attribute, original, replacement)
        if len(self.applied) == found:
            raise PatchTargetMissing(
                f"no module holds a reference to {original!r} "
                f"(span {name!r})")

    def restore(self) -> None:
        while self.applied:
            owner, attribute, original = self.applied.pop()
            setattr(owner, attribute, original)


def _install(patches: _Patches) -> None:
    from repro.core import extension, learning, oracle, parallel
    from repro.core import range_attack, surf_attack, template
    from repro.filters.base import Filter, FilterBuilder, RangeFilter
    from repro.lsm.compaction import Compactor
    from repro.lsm.db import LSMTree
    from repro.server import client, protocol, tcp
    from repro.storage.background import BackgroundLoad
    from repro.storage.device import DeviceView, StorageDevice
    from repro.storage.page_cache import PageCache
    from repro.system.defense import DefendedService
    from repro.system.detector import MonitoredService, SiphoningDetector
    from repro.system.ratelimit import RateLimitedService
    from repro.system.service import KVService

    tracer = patches.tracer

    # core
    patches.methods((template.PrefixSiphoningAttack,
                     range_attack.RangeDescentAttack), ("run",),
                    "core.attack")
    patches.function(learning.learn_cutoff, "core.learn")
    patches.function(extension.extend_prefix, "core.extend")
    patches.method(surf_attack.SurfAttackStrategy, "find_false_positives",
                   "core.find_fpk")
    patches.method(surf_attack.SurfAttackStrategy, "identify_prefixes",
                   "core.id_prefix")
    patches.method(oracle.TimingOracle, "classify", "core.classify")
    patches.methods((range_attack.TimingRangeOracle,),
                    ("range_may_contain", "point_may_contain"),
                    "core.classify")
    patches.method(parallel.ParallelTimingOracle, "classify", "core.shard")
    patches.methods((oracle.TimingOracle, parallel.ParallelTimingOracle),
                    ("wait_for_eviction",), "core.wait")
    patches.methods((oracle.QueryOracle,), ("probe", "probe_many"),
                    "core.probe")
    patches.method(range_attack.RangeOracle, "probe", "core.probe")
    patches.methods((oracle.QueryOracle,), ("prober", "prober_for"),
                    "core.probe", factory=True)
    patches.method(parallel.ParallelTimingOracle, "prober_many",
                   "core.probe", factory=True)

    # system
    facades = (KVService, RateLimitedService, DefendedService,
               MonitoredService)
    patches.methods(facades, ("get", "get_timed", "get_many",
                              "get_many_timed"), "system.get", request=True)
    patches.methods(facades, ("getter",), "system.get", request=True,
                    factory=True)
    patches.methods(facades, ("range_query", "range_query_timed"),
                    "system.range", request=True)
    patches.methods(facades, ("put", "put_timed", "put_many",
                              "put_many_timed", "delete", "delete_timed"),
                    "system.put", request=True)
    patches.methods((SiphoningDetector,), ("observe", "verdict"),
                    "system.detector")

    # lsm
    patches.methods((LSMTree,), ("get", "get_timed", "get_many",
                                 "get_many_timed", "probe_plan",
                                 "filters_pass", "filters_pass_many"),
                    "lsm.get")
    patches.method(LSMTree, "getter", "lsm.get", factory=True)
    patches.methods((LSMTree,), ("range_query", "scan", "iterator",
                                 "range_filters_pass"), "lsm.range")
    patches.method(LSMTree, "charge_cost", "lsm.charge")
    patches.methods((LSMTree,), ("put", "delete", "delete_many"), "lsm.put")
    for attribute in ("put_many", "flush", "compact_all", "bulk_load",
                      "reopen", "close"):
        patches.method(LSMTree, attribute, f"lsm.{attribute}")
    patches.methods((Compactor,), ("maybe_compact", "compact_level_fully",
                                   "merge_all_runs", "_compact_l0"),
                    "lsm.compact")

    # filters
    patches.methods((Filter,), ("may_contain", "probe_many",
                                "may_contain_many"), "filters.point")
    patches.methods((RangeFilter,), ("may_contain_range", "probe_range_many",
                                     "may_contain_range_many"),
                    "filters.range")
    # Whichever builders exist, where each overrides: a new one need not
    # be named here.  The base class must define both.
    for builder in _subclasses(FilterBuilder):
        for attribute in ("build", "build_batch"):
            if builder is FilterBuilder or attribute in vars(builder):
                patches.method(builder, attribute, "filters.build")

    # storage
    patches.methods((PageCache,), ("read", "read_block", "read_decoded",
                                   "read_decoded_many", "invalidate_file",
                                   "clear"), "storage.cache")
    patches.methods((StorageDevice, DeviceView),
                    ("create_file", "append", "delete_file", "rename", "read",
                     "read_view", "read_block", "read_block_view",
                     "map_file"), "storage.device")
    patches.method(BackgroundLoad, "run_for", "storage.background")

    # server
    for attribute, value in list(vars(protocol).items()):
        if (callable(value) and attribute != "encode_frame"
                and attribute.split("_")[0] in ("encode", "decode",
                                                "prepend", "split")):
            patches.function(value, "server.codec")
    encode_frame = protocol.encode_frame

    def counted_encode_frame(frame):
        data = encode_frame(frame)
        tracer.frames += 1
        tracer.frame_bytes += len(data)
        return data

    patches.function(encode_frame, "server.codec", tracer.span(
        "server.codec", counted_encode_frame))
    # Blocked on the socket: waiting, not work, so outside every layer.
    patches.function(tcp.read_frame, "wait.socket")
    patches.method(tcp.RequestExecutor, "execute", "server.execute",
                   request=True)
    patches.method(client.WireConnection, "request", "server.client",
                   request=True)
    patches.methods((client.RemoteKV,),
                    ("get", "get_timed", "get_many", "get_many_timed", "put",
                     "put_timed", "put_many", "put_many_timed", "delete",
                     "delete_timed", "wait", "stats", "ping"),
                    "server.client", request=True)
    patches.method(client.RemoteKV, "getter", "server.client", request=True,
                   factory=True)

    # Threads started inside a span report back to it, so that fanned-out
    # work counts as the span's children and not as its self time.
    thread_start = threading.Thread.__dict__["start"]

    def start(thread, *args, **kwargs):
        frame = tracer.current_frame()
        if frame is not None:
            if frame[1] is None:
                frame[1] = []
            thread._e2e_parent_frame = frame
        return thread_start(thread, *args, **kwargs)

    patches._set(threading.Thread, "start", thread_start, start)


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[_Patches]:
    """Patch every layer for the duration of the block, then restore."""
    patches = _Patches(tracer)
    try:
        _install(patches)
        yield patches
    finally:
        patches.restore()


# ------------------------------------------------------------- layer metrics

def silent_spans(aggregates: Dict[str, Dict[str, float]],
                 expected) -> List[str]:
    """The ``expected`` span names that recorded no call.

    A span that stops recording takes its time out of its layer, which
    reads as a gain: a traced run with a silent span fails.
    """
    return sorted(name for name in expected
                  if not aggregates.get(name, {}).get("calls"))


def layer_self_seconds(aggregates: Dict[str, Dict[str, float]]
                       ) -> Dict[str, float]:
    """Self time per layer (the span name's first dotted component)."""
    totals = {layer: 0.0 for layer in LAYERS}
    for name, entry in aggregates.items():
        layer = name.split(".", 1)[0]
        if layer in totals:
            totals[layer] += entry["self_s"]
    return totals
