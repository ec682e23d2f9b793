"""In-memory span tracer wrapped around repro's public functions.

The benchmark times each layer from the outside: :meth:`Tracer.install`
replaces a fixed list of public methods (and, per model, each linear
op's ``lower``) with wrappers that record one span per call, and
:meth:`Tracer.uninstall` puts the originals back.  Nothing under
``src/`` is edited; an untraced run never sees a wrapper.

A span is the tuple ``(sid, name, start, end, parent, rid, layer)``:
``name`` is ``"<layer>.<what>"`` (``abft.key``, ``gemm.multiply``),
``parent`` the enclosing span on the same call path, ``rid`` the
request or round the span served, and ``layer`` the planned GEMM layer
it touched (or None).  Spans are appended to a list in memory and
written once, at the end of the run.

Self time is a span's duration minus the durations of its children.
Children of one span never overlap (each call path is sequential), so
self times telescope: they sum exactly to the durations of the root
spans; :func:`self_times` returns both sums so a run can check it.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager

from repro.abft.base import PreparedCache, PreparedExecution, Scheme
from repro.api.policy import IntensityGuidedPolicy
from repro.api.session import ProtectedSession
from repro.gemm.executor import TiledGemm
from repro.nn.inference import ProtectedInference

#: Span fields, in tuple order.
FIELDS = ("sid", "name", "start", "end", "parent", "rid", "layer")


class RequestTag(dict):
    """An empty fault mapping that carries a served request's identity.

    Passed as ``faults=`` through :meth:`repro.fleet.SessionServer.handle`
    so the wrapper around :meth:`ProtectedSession.run`, which runs on a
    pool thread, can attach its spans to the client-side request span.
    Being empty, it injects nothing: ``run`` treats it like ``None``.
    """

    __slots__ = ("rid", "sid", "submit")

    def __init__(self, rid: int, sid: int) -> None:
        super().__init__()
        self.rid = rid
        self.sid = sid
        self.submit = 0.0


class Tracer:
    """Collects spans from wrapped repro calls on any thread."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        # id(array) -> (array, planned layer).  The array is kept so an
        # id is never matched after its object was freed and reused.
        self._by_b: dict[int, tuple[object, str]] = {}
        self._by_bpad: dict[int, tuple[object, str]] = {}
        #: sid -> (flops, bytes) of each traced GEMM, computed from shapes.
        self.work: dict[int, tuple[float, float]] = {}

    # -- span bookkeeping ---------------------------------------------
    def new_id(self) -> int:
        return next(self._ids)

    def record(self, sid, name, start, end, parent, rid=None, layer=None) -> None:
        """Append a span whose times the caller measured itself."""
        self.spans.append((sid, name, start, end, parent, rid, layer))

    def _state(self):
        tls = self._tls
        if not hasattr(tls, "stack"):
            tls.stack = []
            tls.root = None
            tls.rid = None
            tls.layer = None
        return tls

    @contextmanager
    def span(self, name: str, *, rid=None, layer=None, root: bool = False):
        """Time a block on the calling thread as one span.

        ``root=True`` makes the block the parent of every span recorded
        on this thread while it runs, including wrapped calls.
        """
        st = self._state()
        parent = None if root else (st.stack[-1] if st.stack else st.root)
        sid = self.new_id()
        saved = (st.root, st.rid)
        if root:
            st.root = sid
        if rid is not None:
            st.rid = rid
        st.stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            st.stack.pop()
            self.spans.append((sid, name, start, end, parent, st.rid, layer))
            st.root, st.rid = saved

    def _traced(self, fn, name, layer_of=None, after=None, weigh=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            layer = layer_of(args) if layer_of is not None else None
            if layer is None:
                layer = st.layer
            else:
                st.layer = layer
            parent = st.stack[-1] if st.stack else st.root
            sid = next(tracer._ids)
            if weigh is not None:
                tracer.work[sid] = weigh(args)
            st.stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                st.stack.pop()
                tracer.spans.append((sid, name, start, end, parent, st.rid, layer))
            if after is not None:
                after(result, layer)
            return result

        return traced

    def _traced_session_run(self, fn):
        """``ProtectedSession.run``: attach to the request that sent it."""
        traced = self._traced(fn, "api.run")
        tracer = self

        @functools.wraps(fn)
        def run(session, x=None, *, faults=None, recovery=None):
            if not isinstance(faults, RequestTag):
                return traced(session, x, faults=faults, recovery=recovery)
            st = tracer._state()
            begin = time.perf_counter()
            wait = (tracer.new_id(), "fleet.wait", faults.submit, begin, faults.sid, faults.rid)
            tracer.record(*wait)
            saved = (st.root, st.rid)
            st.root, st.rid = faults.sid, faults.rid
            try:
                return traced(session, x, faults=faults, recovery=recovery)
            finally:
                st.root, st.rid = saved

        return run

    # -- planned-layer attribution ------------------------------------
    @staticmethod
    def _lookup(table, arr):
        entry = table.get(id(arr))
        return entry[1] if entry is not None and entry[0] is arr else None

    def register_weights(self, b, layer: str) -> None:
        """Name the planned layer whose GEMM takes ``b`` as its weights."""
        self._by_b[id(b)] = (b, layer)

    def _register_prepared(self, prepared, layer) -> None:
        if layer is not None:
            self._by_bpad[id(prepared.b_pad)] = (prepared.b_pad, layer)

    # -- install / uninstall ------------------------------------------
    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the public functions every workload reaches."""
        by_b, by_bpad, lookup = self._by_b, self._by_bpad, self._lookup

        def of_b(index):
            return lambda args: lookup(by_b, args[index])

        def of_prepared(args):
            return lookup(by_bpad, args[0].b_pad)

        def of_bpad(args):
            return lookup(by_bpad, args[2])

        targets = [
            (IntensityGuidedPolicy, "assign", "core.assign", None, None, None),
            (ProtectedInference, "run", "nn.pass", None, None, None),
            (PreparedCache, "get", "abft.get", of_b(3), self._register_prepared, None),
            (PreparedCache, "key_for", "abft.key", of_b(3), None, None),
            (Scheme, "prepare", "abft.prepare", of_b(2), None, None),
            (PreparedExecution, "inject", "abft.inject", of_prepared, None, None),
            (PreparedExecution, "inject_batch", "abft.inject_batch", of_prepared, None, None),
            (PreparedExecution, "clean_comparison", "abft.clean_compare", of_prepared, None, None),
            (TiledGemm, "multiply", "gemm.multiply", of_bpad, None, _gemm_work),
            (TiledGemm, "pad_a", "gemm.pad", None, None, None),
            (TiledGemm, "pad_b", "gemm.pad", None, None, None),
        ]
        for owner, attr, name, layer_of, after, weigh in targets:
            traced = self._traced(owner.__dict__[attr], name, layer_of, after, weigh)
            self._patch(owner, attr, traced)
        self._patch(ProtectedSession, "run", self._traced_session_run(ProtectedSession.run))

    def instrument_model(self, model) -> None:
        """Wrap each linear op's ``lower`` (instance attribute) on ``model``."""

        def remember(result, layer):
            self.register_weights(result[1], layer)

        for op in model.ops:
            if op.is_linear:
                lower = self._traced(op.lower, "nn.lower", lambda args, n=op.name: n, remember)
                self._patched.append((op, "lower", None))
                op.lower = lower

    def uninstall(self) -> None:
        """Restore every wrapped function (instance wrappers are deleted)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def _gemm_work(args) -> tuple[float, float]:
    """Flops and bytes of ``TiledGemm.multiply(a_pad, b_pad)`` from shapes.

    Bytes count one read of each FP16 operand and one write of the FP32
    accumulator; they are computed, not measured.
    """
    _, a_pad, b_pad = args[:3]
    m, k = a_pad.shape
    n = b_pad.shape[1]
    return 2.0 * m * n * k, float(a_pad.nbytes + b_pad.nbytes + 4 * m * n)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def _marked(spans, is_mark) -> dict[int, bool]:
    """Per sid: whether the span or one of its ancestors satisfies ``is_mark``."""
    by_sid = {s[0]: s for s in spans}
    memo: dict[int, bool] = {}
    for span in spans:
        chain = []
        sid, value = span[0], False
        while sid is not None:
            if sid in memo:
                value = memo[sid]
                break
            current = by_sid.get(sid)
            if current is None:
                break
            chain.append(sid)
            if is_mark(current):
                value = True
                break
            sid = current[4]
        for link in chain:
            memo[link] = value
    return memo


def self_times(spans, roots: set[int]) -> tuple[dict[int, float], float, float]:
    """Per-span self time over the trees under ``roots``.

    Returns ``(self_by_sid, sum_of_self, sum_of_root_durations)``; the
    two sums agree (up to float rounding) when nothing is counted twice.
    Spans whose ancestry does not reach ``roots`` are ignored.
    """
    inside = _marked(spans, lambda s: s[0] in roots)
    selected = [s for s in spans if inside[s[0]]]
    self_by_sid = {s[0]: s[3] - s[2] for s in selected}
    for s in selected:
        if s[0] not in roots:
            self_by_sid[s[4]] -= s[3] - s[2]
    root_sum = sum(s[3] - s[2] for s in selected if s[0] in roots)
    return self_by_sid, sum(self_by_sid.values()), root_sum


def descendants_of(spans, names: set[str]) -> set[int]:
    """Sids of every span with an ancestor named in ``names``."""
    marked = _marked(spans, lambda s: s[1] in names)
    return {s[0] for s in spans if s[4] is not None and marked.get(s[4], False)}
