"""Outside-in instrumentation: spans and memory peaks around library calls.

Nothing here edits ``splitbeam``. :func:`patched` swaps a function for a
wrapper at the name its caller looks up (a module global or a class
attribute) and restores the original on exit. A target that no longer
exists is skipped, so a layer that leaves the decision path reports zero
calls instead of breaking the benchmark.
"""

from __future__ import annotations

import contextlib
import csv
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field


@contextlib.contextmanager
def patched(targets, make_wrapper):
    """Replace each ``(owner, attr, name)`` with ``make_wrapper(name, original)``."""
    saved = []
    try:
        for owner, attr, name in targets:
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, make_wrapper(name, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Tracer:
    """In-memory spans: decision id, name, parent index, start and end (ns)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.decision = -1

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.decision, name, parent, time.perf_counter_ns(), 0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][4] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrapper(self, name, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def self_times(self, root: str) -> tuple[dict[str, int], dict[str, int], int, int]:
        """Per-name (self ns, call count) under every root span called ``root``.

        Also returns the root spans' count and total duration, so the
        caller can check that self times account for the whole decision.
        """
        under = [False] * len(self.spans)
        child_ns = [0] * len(self.spans)
        for i, (_, name, parent, start, end) in enumerate(self.spans):
            under[i] = name == root if parent < 0 else under[parent]
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        roots = total = 0
        for i, (_, name, parent, start, end) in enumerate(self.spans):
            if not under[i]:
                continue
            self_ns[name] += end - start - child_ns[i]
            calls[name] += 1
            if parent < 0:
                roots += 1
                total += end - start
        return self_ns, calls, roots, total

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["decision", "name", "parent", "start_ns", "end_ns"])
            out.writerows(self.spans)


@dataclass
class PeakMeter:
    """Nested tracemalloc peaks, one frame per open call.

    ``tracemalloc`` keeps one global peak, so each frame resets it on entry
    after folding the peak seen so far into its parent frame, and folds its
    own peak into the parent on exit. Only runs while tracemalloc traces.
    """

    peaks: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    _stack: list[list[int]] = field(default_factory=list)

    def _enter(self) -> None:
        current, peak = tracemalloc.get_traced_memory()
        if self._stack:
            self._stack[-1][1] = max(self._stack[-1][1], peak)
        tracemalloc.reset_peak()
        self._stack.append([current, current])

    def _exit(self, name: str) -> float:
        _, peak = tracemalloc.get_traced_memory()
        base, seen = self._stack.pop()
        top = max(seen, peak)
        if self._stack:
            self._stack[-1][1] = max(self._stack[-1][1], top)
        mib = (top - base) / 2**20
        self.peaks[name] = max(self.peaks[name], mib)
        return mib

    @contextlib.contextmanager
    def frame(self, name: str):
        self._enter()
        try:
            yield
        finally:
            self._exit(name)

    def wrapper(self, name, fn):
        def measured(*args, **kwargs):
            with self.frame(name):
                return fn(*args, **kwargs)

        return measured
