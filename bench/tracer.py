"""Per-layer tracing of cbss from outside the package.

``from .x import f`` copies ``f`` into the importing module, so each
function is wrapped at the binding its caller looks up at call time
(``cbss.asymlab.generate``, ``cbss.unmixing.autocov_sym``, ...), not
only where it is defined.  A binding that no longer exists is skipped;
a function none of whose bindings exist is reported as absent, so the
benchmark keeps running when a module or function is deleted.

Aggregates kept per traced function:

* ``calls``   - every call through any of its bindings, nested ones too;
* ``busy_s``  - wall time of its outermost calls (recursion and
  re-entry through a second binding are not counted twice);
* ``work``    - a size measure of its arguments or output, taken only
  for calls that enter the layer from outside it (``work_errors``
  counts calls whose arguments the measure could not read).

Per layer, ``self_s`` is the time the layer was the innermost active
one: its spans' duration minus the part covered by spans of other
layers it called.  ``busy_s`` is the union of its outermost spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

_clock = time.perf_counter


@dataclass(frozen=True)
class Site:
    """One binding to wrap: ``module.attr`` belongs to ``layer``.

    ``func`` names the traced function (several bindings may share it).
    ``work(args, kwargs)`` returns ``{counter: amount}``; it runs after
    the call returns, outside every timed span.
    """

    module: str
    attr: str
    layer: str
    func: str
    work: Callable | None = None


class Tracer:
    """Installs wrappers at ``sites`` while active and aggregates spans."""

    def __init__(self, sites):
        self.sites = tuple(sites)
        self.calls = defaultdict(int)
        self.busy_s = defaultdict(float)
        self.work = defaultdict(float)
        self.work_errors = defaultdict(int)
        self.layer_self_s = defaultdict(float)
        self.layer_busy_s = defaultdict(float)
        self.present = set()
        self._installed = []
        self._stack = []
        self._func_depth = defaultdict(int)
        self._func_start = {}
        self._layer_depth = defaultdict(int)
        self._layer_start = {}
        self._last = 0.0

    def install(self):
        for site in self.sites:
            try:
                module = importlib.import_module(site.module)
            except ImportError:
                continue
            original = getattr(module, site.attr, None)
            if not callable(original):
                continue
            setattr(module, site.attr, self._wrap(original, site))
            self._installed.append((module, site.attr, original))
            self.present.add(site.func)

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _enter(self, site) -> bool:
        now = _clock()
        if self._stack:
            self.layer_self_s[self._stack[-1]] += now - self._last
        self._stack.append(site.layer)
        self._last = now
        self.calls[site.func] += 1
        if self._func_depth[site.func] == 0:
            self._func_start[site.func] = now
        self._func_depth[site.func] += 1
        entering = self._layer_depth[site.layer] == 0
        if entering:
            self._layer_start[site.layer] = now
        self._layer_depth[site.layer] += 1
        return entering

    def _exit(self, site):
        now = _clock()
        self.layer_self_s[self._stack.pop()] += now - self._last
        self._last = now
        self._func_depth[site.func] -= 1
        if self._func_depth[site.func] == 0:
            self.busy_s[site.func] += now - self._func_start[site.func]
        self._layer_depth[site.layer] -= 1
        if self._layer_depth[site.layer] == 0:
            self.layer_busy_s[site.layer] += now - self._layer_start[site.layer]

    def _wrap(self, original, site):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            entering = self._enter(site)
            try:
                result = original(*args, **kwargs)
            finally:
                self._exit(site)
            if entering and site.work is not None:
                try:
                    for key, amount in site.work(args, kwargs).items():
                        self.work[key] += amount
                except (LookupError, TypeError, AttributeError, ValueError, OSError):
                    # the call's signature changed; report, never break the call
                    self.work_errors[site.func] += 1
                # time spent measuring work is charged to no layer
                self._last = _clock()
            return result

        return traced
