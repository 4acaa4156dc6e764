"""Span recorder for traced benchmark runs.

Spans are recorded from the benchmark's side, around the program's public
functions: each hooked function is replaced, at every module attribute of the
package that is bound to it, by a wrapper that records one span (name, start,
end, parent, attributes). Rebinding at every site matters because some modules
import names directly (``seqcl.train.scl_loss``, ``seqcl.train.build_view_pair``,
``seqcl.cli.load_checkpoint``); patching only the defining module would miss
those calls and silently zero the layer.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path


def rebind(package: str, original, replacement) -> list[tuple[object, str, object]]:
    """Point every attribute of the package's loaded modules that is bound to
    `original` at `replacement`; returns the sites so they can be restored."""
    sites = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == package or name.startswith(package + ".")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                sites.append((module, key, original))
    return sites


def restore(sites) -> None:
    for module, key, original in reversed(sites):
        setattr(module, key, original)


class Recorder:
    """In-memory span list; single-threaded, so the parent is the open span."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, attrs]
        self._stack: list[int] = []
        self._sites: list = []
        self.enabled = True

    def _open(self, name: str, attrs: dict) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, attrs])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        idx = self._open(name, attrs)
        try:
            yield attrs
        finally:
            self._close(idx)

    @contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own output checks) record nothing."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def wrap(self, fn, name, before=None, after=None):
        """`name` is a string or a function of (args, kwargs); `before` returns
        attributes known from the arguments, `after` adds attributes from the
        result once the span has ended, so its cost is not charged to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_name = name(args, kwargs) if callable(name) else name
            attrs = before(args, kwargs) if before else {}
            idx = self._open(span_name, attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after:
                attrs.update(after(args, kwargs, result))
            return result

        return traced

    def install(self, package: str, hooks: dict) -> None:
        """hooks: {(module name, function name): (span name, before, after)}."""
        for (module_name, func_name), spec in hooks.items():
            original = getattr(sys.modules[module_name], func_name)
            self._sites += rebind(package, original, self.wrap(original, *spec))

    def uninstall(self) -> None:
        restore(self._sites)
        self._sites = []

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its direct children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def write_jsonl(self, path: Path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": name, "parent": parent,
                    "start_s": start - t0, "end_s": end - t0, "attrs": attrs,
                }) + "\n")
