"""Spans around the engine's layers, recorded from the driver.

The traced run replaces a few module attributes of the engine with
:class:`_Traced` wrappers. Each call records a span (name, start, end,
parent span, op id, attributes) in memory; the spans are turned into the
per-layer metrics when the run ends (:mod:`layers`). Only calls made in
the driver process are seen: work inside Ray tasks shows up through the
engine's committed counters instead.

``engine.cdc`` imports ``unify_all``, ``conform`` and ``collapse_deltas``
by name, so those are wrapped in the ``engine.cdc`` namespace; manifest
calls go through the ``state.manifest`` module and are wrapped there.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    op: int | None
    attrs: dict = field(default_factory=dict)
    end: float = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded driver. Spans are
    recorded only while ``enabled``; an op is a top-level span."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str, **attrs) -> Span | None:
        if not self.enabled:
            return None
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, time.perf_counter(),
                 parent.id if parent else None,
                 parent.op if parent else len(self.spans), attrs)
        self.spans.append(s)
        self._stack.append(s)
        return s

    def end(self, s: Span | None) -> None:
        if s is None:
            return
        s.end = time.perf_counter()
        # a span opened while enabled is closed even if tracing was turned
        # off in between, so the stack always unwinds to its owner
        while self._stack and self._stack.pop() is not s:
            pass

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        fn = getattr(owner, attr)
        self._patches.append((owner, attr, fn))
        setattr(owner, attr, _Traced(self, fn, name, on_result))

    def unwrap_all(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                out.setdefault(s.parent, []).append(s)
        return out


def self_time(span: Span, kids: list[Span]) -> float:
    """Span duration minus the time its child spans cover. Spans come from
    one driver thread, so children run one after another inside it."""
    return span.dur - sum(k.dur for k in kids)


class _Traced:
    """Callable stand-in for an engine function. Ray pickles closures with
    the globals they name, so a wrapper can be captured into a task; it
    then unpickles as the original function of the defining module and
    nothing is traced inside workers."""

    def __init__(self, tracer: Tracer, fn, name: str, on_result):
        self._tracer, self._fn, self._name, self._on_result = tracer, fn, name, on_result
        self.__name__ = getattr(fn, "__name__", name)
        self.__doc__ = getattr(fn, "__doc__", None)

    def __call__(self, *args, **kwargs):
        s = self._tracer.begin(self._name)
        if s is None:
            return self._fn(*args, **kwargs)
        try:
            out = self._fn(*args, **kwargs)
            if self._on_result is not None:
                s.attrs.update(self._on_result(args, kwargs, out))
            return out
        finally:
            self._tracer.end(s)

    def __reduce__(self):
        return getattr, (sys.modules[self._fn.__module__], self._fn.__name__)


def _manifest_id(out) -> dict:
    return {} if out is None else {"epoch": out.epoch, "rev": out.rev}


def _apply_attrs(args, kwargs, out) -> dict:
    return {"changelog": args[0], "table": args[1], "epochs": list(args[2]),
            **_manifest_id(out)}


def _route_attrs(args, kwargs, out) -> dict:
    parts = {os.path.basename(os.path.dirname(f)) for f in out}
    deltas = sum(os.path.basename(f).startswith("delta-") for f in out)
    return {"files": len(out), "parts": len(parts), "deltas": deltas}


def _commit_attrs(args, kwargs, out) -> dict:
    return {"table": args[0], "name": args[1].name, "ok": bool(out)}


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of each layer the benchmark measures."""
    from gamechanger_data_ray.engine import cdc, maintenance
    from gamechanger_data_ray.state import manifest as mf

    tracer.wrap(cdc, "apply_epochs", "cdc.apply", _apply_attrs)
    tracer.wrap(cdc, "unify_all", "reconcile.unify")
    tracer.wrap(cdc, "conform", "reconcile.conform")
    tracer.wrap(cdc, "collapse_deltas", "merge.collapse")
    tracer.wrap(cdc, "routed_partition_files", "cdc.route", _route_attrs)
    tracer.wrap(cdc, "read_keys", "cdc.read_keys")
    tracer.wrap(cdc, "read_table", "cdc.read_table")
    tracer.wrap(mf, "load_current", "manifest.load")
    tracer.wrap(mf, "commit", "manifest.commit", _commit_attrs)
    tracer.wrap(maintenance, "compact", "maintenance.compact",
                lambda a, k, out: {"table": a[0], **_manifest_id(out)})
