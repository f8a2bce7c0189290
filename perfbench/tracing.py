"""In-memory spans around calls into pss, for the traced benchmark run.

The tracer wraps public functions of each pss layer from the outside: it
rebinds the module attributes that name a function (in every pss module that
imported it) to a wrapper, and restores them afterwards.  Untraced runs never
create a tracer, so they run the program's own functions untouched.

Three kinds of wrapper, from coarse to hot:

* ``span``  -- timed and kept: one record per call (name, request id, start,
  end, parent, self time, note).  Used at layer boundaries called at most
  tens of thousands of times per run.
* ``leaf``  -- timed and aggregated: calls, total and self seconds per name,
  charged to the enclosing span as child time but not kept one by one.
* ``count`` -- call counts only, for passes called millions of times.

Self time is a call's duration minus the time of the wrapped calls made
inside it.  Calls made in worker processes are not seen: the pool forks the
wrapped module, but its counters die with the worker.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Any, Callable, Optional


@dataclass
class Span:
    id: int
    name: str
    request: Any
    start: float
    end: float
    parent: Optional[int]
    self_s: float
    note: Optional[float] = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self._stack: list[list] = []  # frames: [span id, child seconds, request]
        self._next_id = 0
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def _timed(
        self,
        name: str,
        fn: Callable,
        keep: bool,
        request: Optional[Callable] = None,
        note: Optional[Callable] = None,
    ) -> Callable:
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            req = request(*args, **kwargs) if request else (parent[2] if parent else None)
            frame = [self._next_id, 0.0, req]
            self._next_id += 1
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                own = dur - frame[1]
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += own
                if keep:
                    self.spans.append(Span(
                        frame[0], name, req, start, end,
                        parent[0] if parent else None, own,
                        note(result) if note and result is not None else None,
                    ))

        return wrapper

    def span(self, name: str, fn: Callable, request=None, note=None) -> Callable:
        return self._timed(name, fn, True, request, note)

    def leaf(self, name: str, fn: Callable) -> Callable:
        return self._timed(name, fn, False)

    def count(self, name: str, fn: Callable, weight: Optional[Callable] = None) -> Callable:
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if weight is not None:
                for key, value in weight(*args, **kwargs).items():
                    calls[key] += value
            return fn(*args, **kwargs)

        return wrapper

    def region(self, name: str, request: Any, body: Callable[[], Any]) -> Any:
        """Run ``body`` inside a kept span of the benchmark's own."""
        return self.span(name, body, request=lambda: request)()

    # -- installing wrappers -------------------------------------------------

    def install(self, modules: list, target: Callable, wrapper: Callable) -> None:
        """Rebind every attribute of ``modules`` that is ``target``."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is target:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s), default=str) + "\n")
