"""Span tracer that wraps cepskit's public functions from outside the package.

The package imports many functions by name (``from .recurrence import
q_component``), so patching one module attribute would miss the calls made
through the other names. ``Tracer.install`` therefore rebinds every name, in
every loaded ``cepskit`` module, that refers to a wrapped function; methods
and ``__post_init__`` hooks are patched on their class.

Every wrapped call becomes a span (id, parent id, name, start, end). Spans
are kept in memory up to ``SPAN_CAP`` and written out by ``write_spans``;
calls, total time and self time (duration minus the time covered by child
spans) are aggregated for every call, including those past the cap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# (metric name, module, class or None, attribute)
TARGETS = (
    ("lattice.elements", "lattice", "LatticeElement", "__post_init__"),
    ("lattice.band_project", "lattice", None, "band_project"),
    ("lattice.indicator", "lattice", None, "indicator"),
    ("system.validate_ceps", "system", None, "validate_ceps"),
    ("system.validate_parts", "system", None, "validate_parts"),
    ("system.from_raw", "system", None, "from_raw"),
    ("system.construct", "system", "GroundSystem", "__post_init__"),
    ("system.expectation", "system", "GroundSystem", "expectation"),
    ("system.koopman", "system", "GroundSystem", "koopman"),
    ("system.component_image", "system", "GroundSystem", "component_image"),
    ("system.cesaro_mean", "system", "GroundSystem", "cesaro_mean"),
    ("recurrence.q_component", "recurrence", None, "q_component"),
    ("recurrence.return_decomposition", "recurrence", None, "return_decomposition"),
    ("recurrence.kac_certificate", "recurrence", None, "kac_certificate"),
    ("recurrence.check_recurrent", "recurrence", None, "check_recurrent"),
    ("tower.build_tower", "tower", None, "build_tower"),
    ("tower.find_base_component", "tower", None, "find_base_component"),
    ("tower.build_tower_eps", "tower", None, "build_tower_eps"),
    ("approx.approximate_periodic", "approx", None, "approximate_periodic"),
    ("approx.build_s_prime", "approx", None, "build_s_prime"),
    ("approx.s_prime_operator", "approx", None, "s_prime_operator"),
    ("approx.s_prime_apply", "approx", None, "s_prime_apply"),
    ("generators.random_system", "generators", None, "random_system"),
    ("oracles.first_return_sets", "oracles", None, "first_return_sets"),
    ("suites.run_trial", "suites", None, "run_trial"),
    ("cli.main", "cli", None, "main"),
)
NAMES = tuple(t[0] for t in TARGETS)
SPAN_CAP = 100_000


class Stat:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.stats = {name: Stat() for name in NAMES}
        self.counters: Counter = Counter()
        self.spans: list[tuple] = []
        self.dropped = 0
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 1
        self._patches: list[tuple] = []
        self.originals: dict[str, object] = {}
        self.absent: list[str] = []  # targets the package no longer defines

    def reset(self) -> None:
        for stat in self.stats.values():
            stat.calls, stat.total_s, stat.self_s = 0, 0.0, 0.0
        self.counters.clear()
        self.spans.clear()
        self.dropped = 0

    def _wrap(self, name, fn, on_result=None):
        stat = self.stats[name]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, parent, name, start, end))
                else:
                    self.dropped += 1
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install(self, ck) -> None:
        """Wrap every target on the cepskit modules held by namespace ``ck``."""
        hooks = {"approx.build_s_prime": self._count_components}
        loaded = [m for n, m in sys.modules.items()
                  if n == "cepskit" or n.startswith("cepskit.")]
        for name, module_name, class_name, attr in TARGETS:
            owner = getattr(ck, module_name)
            if class_name is not None:
                owner = getattr(owner, class_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            self.originals[name] = original
            if class_name is not None:
                self._patch(owner, attr, self._wrap(name, original))
                continue
            wrapper = self._wrap(name, original, hooks.get(name))
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def _count_components(self, result) -> None:
        self.counters["approx.components_checked"] += (
            result.certificate.components_checked
        )

    def snapshot(self) -> dict[str, tuple[int, float, float]]:
        return {n: (s.calls, s.total_s, s.self_s) for n, s in self.stats.items()}

    def child_counts(self, parent_name: str, child_name: str) -> list[int]:
        """For each stored span of parent_name, its direct children named child_name."""
        counts = {sid: 0 for sid, _, name, _, _ in self.spans if name == parent_name}
        for _, parent, name, _, _ in self.spans:
            if name == child_name and parent in counts:
                counts[parent] += 1
        return list(counts.values())

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


class CallCounter:
    """Counts calls of the original functions through ``sys.setprofile``.

    The profiler sees a call however the function was reached, so equal
    counts from it and from the tracer show that no call bypassed a wrapper.
    """

    def __init__(self, originals: dict[str, object]):
        self._codes = {fn.__code__: name for name, fn in originals.items()}
        self.counts: Counter = Counter()

    def _hook(self, frame, event, arg):
        if event == "call":
            name = self._codes.get(frame.f_code)
            if name is not None:
                self.counts[name] += 1

    def __enter__(self):
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        return False
