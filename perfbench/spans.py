"""Span recording from outside the program: wrap public functions, keep spans.

A traced run replaces selected public functions and methods of ``repro``
with thin wrappers that record one span per call: ``(name, start, end,
parent, op)``.  Spans stay in memory and are written out once at the end.
Nothing inside ``src/`` is changed; the wrappers sit around the calls into
each layer, so a layer's time is what its public entry points cost.

Self time is a span's duration minus the part of it its child spans cover,
so a nested call (route compilation calling the topology compiler) is
charged to the innermost layer only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# A span is [name, start, end, parent index or None, op id or None].
Span = List[Any]


class Tracer:
    """Collects spans from wrapped functions while :attr:`enabled` is set.

    The parent of a span is the innermost open span on the same thread; a
    thread with no open span (an executor thread of the campaign service)
    falls back to :attr:`default_parent`.  :attr:`op` tags every new span
    with the operation it belongs to.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = False
        self.op: Optional[int] = None
        self.default_parent: Optional[int] = None
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        """Start a span now and return its index (close it with :meth:`close`)."""
        stack = self._stack()
        parent = stack[-1] if stack else self.default_parent
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` recording one span per call while tracing is enabled."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            index = tracer.open(name)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                tracer.close(index)

        return traced

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))


def _patch_attribute(owner: Any, attribute: str, tracer: Tracer, name: str) -> Any:
    """Replace ``owner.attribute`` by its traced form; returns the original."""
    raw = inspect.getattr_static(owner, attribute)
    if isinstance(raw, staticmethod):
        original = raw.__func__
        setattr(owner, attribute, staticmethod(tracer.wrap(original, name)))
    elif isinstance(raw, classmethod):
        original = raw.__func__
        setattr(owner, attribute, classmethod(tracer.wrap(original, name)))
    else:
        original = raw
        setattr(owner, attribute, tracer.wrap(original, name))
    return original


def install(tracer: Tracer, targets: Iterable[Tuple[str, str, str]]) -> None:
    """Wrap every ``(module, qualified attribute, span name)`` target.

    A module-level function is also replaced in every loaded ``repro``
    module that imported it by name, so ``from x import f`` call sites see
    the wrapper too.  Methods are replaced on their class.
    """
    for module_name, qualname, name in targets:
        module = importlib.import_module(module_name)
        owner_path, _, attribute = qualname.rpartition(".")
        owner: Any = module
        for part in owner_path.split(".") if owner_path else ():
            owner = getattr(owner, part)
        original = _patch_attribute(owner, attribute, tracer, name)
        if owner is not module:
            continue
        wrapper = getattr(module, attribute)
        for other_name, other in list(sys.modules.items()):
            if other is module or not other_name.startswith("repro"):
                continue
            if getattr(other, attribute, None) is original:
                setattr(other, attribute, wrapper)


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(index)
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(
            (spans[child][1], spans[child][2]) for child in children.get(index, ())
        ):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result.append((end - start) - covered)
    return result


def self_time_by(
    spans: Sequence[Span], *, per_op: bool
) -> Dict[Any, Dict[str, float]]:
    """Summed self seconds per layer name, grouped per op (or all together)."""
    totals: Dict[Any, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans, self_times(spans)):
        key = span[4] if per_op else None
        totals[key][span[0]] += own
    return {key: dict(names) for key, names in totals.items()}

