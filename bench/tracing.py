"""Spans, a CPU-time sampler and a host-speed probe, all from outside.

Nothing here touches ``src/``: spans wrap the benchmark's own calls into the
program's public entry points, the sampler attributes process CPU time to
``src/repro/<module>/`` by walking the interrupted Python stack, and the
probe measures how fast the host is while the rep runs.  Everything is kept
in memory and handed to the runner when the rep ends.
"""

from __future__ import annotations

import contextlib
import os
import signal
import time
from typing import Dict, List, Optional

_NULL = contextlib.nullcontext()
_PROBE_CELLS = 16384
_PROBE_STEPS = 600


class SpanLog:
    """Nested spans in CPU seconds (the rep is single-threaded, so thread
    time is process time); a disabled log costs nothing.

    Each span is ``[name, start, end, parent]`` (``parent`` is an index into
    the log, -1 for roots).  Self time is the span's duration minus the part
    its direct children cover, so self times along one stack add up to the
    root's duration.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[list] = []
        self._open: List[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def totals(self) -> Dict[str, Dict[str, float]]:
        """``{name: {"s": self CPU seconds, "n": calls}}``."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for (name, start, end, _parent), covered in zip(self.spans, child_time):
            slot = out.setdefault(name, {"s": 0.0, "n": 0})
            slot["s"] += (end - start) - covered
            slot["n"] += 1
        return out


class _Span:
    __slots__ = ("_log", "_name", "_idx")

    def __init__(self, log: SpanLog, name: str) -> None:
        self._log = log
        self._name = name

    def __enter__(self) -> None:
        log = self._log
        self._idx = len(log.spans)
        parent = log._open[-1] if log._open else -1
        log.spans.append([self._name, time.thread_time(), 0.0, parent])
        log._open.append(self._idx)

    def __exit__(self, *exc) -> None:
        log = self._log
        log.spans[self._idx][2] = time.thread_time()
        log._open.pop()


class CpuTicker:
    """``ITIMER_PROF`` handler: host-speed probe, and optionally a sampler.

    The timer counts process CPU time (user + system), so ticks are
    proportional to the CPU seconds the rep is gated on.

    *Probe* (every rep, traced or not).  On this shared host a neighbour's
    bursts inflate CPU seconds by up to 40% for seconds at a time, so every
    ``probe_every`` ticks the handler times a fixed ~0.15 ms loop; the
    runner divides the rep's CPU seconds by (mean probe time / reference
    probe time).  See README.md, "Noise".

    *Sampler* (traced reps).  Each tick is charged to the innermost frame
    whose file lies under ``package_dir``; a stack with no such frame
    (imports, the benchmark itself, NumPy) is charged to ``other``.
    """

    def __init__(self, interval_s: float, probe_every: int, package_dir: Optional[str]) -> None:
        self._interval = interval_s
        self._probe_every = probe_every
        self._root = os.path.join(os.path.realpath(package_dir), "") if package_dir else None
        self._module_of: Dict[str, Optional[str]] = {}
        self._ticks = 0
        self.counts: Dict[str, int] = {}
        #: ``(thread CPU time when taken, probe duration)`` pairs.
        self.probes: List[tuple] = []
        cells = [[i, 2 * i, None] for i in range(_PROBE_CELLS)]
        for i, cell in enumerate(cells):
            cell[2] = cells[(i * 7919) % _PROBE_CELLS]
        self._cell = cells[0]

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, self._interval, self._interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def _on_tick(self, _signum, frame) -> None:
        self._ticks += 1
        if self._root is not None:
            self._sample(frame)
        if self._ticks % self._probe_every == 0:
            # thread_time, not process_time: an armed process CPU timer
            # makes the process clock tick-granular (4 ms) on Linux.
            start = time.thread_time()
            cell, acc = self._cell, 0
            for i in range(_PROBE_STEPS):
                cell = cell[2]          # pointer chase over ~1 MB of lists
                acc += cell[0] * i % 7  # small-int arithmetic
                cell[1] = acc & 255
            self._cell = cell
            self.probes.append((start, time.thread_time() - start))

    def _sample(self, frame) -> None:
        module_of = self._module_of
        owner = None
        while frame is not None:
            filename = frame.f_code.co_filename
            try:
                owner = module_of[filename]
            except KeyError:
                owner = module_of[filename] = self._classify(filename)
            if owner is not None:
                break
            frame = frame.f_back
        owner = owner or "other"
        self.counts[owner] = self.counts.get(owner, 0) + 1

    def _classify(self, filename: str) -> Optional[str]:
        if not filename.startswith(self._root):
            return None
        head = filename[len(self._root):].split(os.sep, 1)[0]
        return head[:-3] if head.endswith(".py") else head
