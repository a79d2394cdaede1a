"""Timing, patching and span tracing used by the benchmark.

Everything here wraps the program from the outside: functions are replaced
at every module binding that holds them (so ``from ... import`` call sites
are covered too) and restored afterwards. Nothing under ``src/`` changes.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


class Clock:
    """Benchmark time: wall time that stands still while ``paused``.

    Output checks and trace bookkeeping run paused, so they never count
    towards an operation's duration or a span's self time.
    """

    def __init__(self):
        self.excluded = 0.0
        self._depth = 0
        self._paused_at = 0.0

    def now(self) -> float:
        if self._depth:
            return self._paused_at - self.excluded
        return time.perf_counter() - self.excluded

    @contextmanager
    def paused(self):
        if self._depth == 0:
            self._paused_at = time.perf_counter()
        self._depth += 1
        try:
            yield
        finally:
            self._depth -= 1
            if self._depth == 0:
                self.excluded += time.perf_counter() - self._paused_at


class Patcher:
    """Attribute replacements that are undone in reverse order on exit."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def resolve(target: str):
    """``"pkg.module:Name"`` or ``"pkg.module:Class.method"`` -> (owner, attr).

    Modules are looked up with ``importlib.import_module``: plain
    ``import nviflab.nvif.pretrain`` would bind the re-exported function
    ``pretrain``, not the module.
    """
    module_name, _, qual = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def patch_everywhere(patcher: Patcher, target: str, make_wrapper):
    """Replace ``target`` by ``make_wrapper(original)`` at every binding.

    A method is patched on its class. A module-level function is patched in
    every loaded ``nviflab`` module whose namespace holds the same object,
    which covers package re-exports and ``from ... import`` call sites.
    """
    owner, attr = resolve(target)
    original = getattr(owner, attr)
    wrapper = make_wrapper(original)
    if isinstance(owner, type):
        patcher.set(owner, attr, wrapper)
        return
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "nviflab" or name.startswith("nviflab.")):
            continue
        for binding, value in list(vars(module).items()):
            if value is original:
                patcher.set(module, binding, wrapper)


@dataclass
class Op:
    """One timed operation (a PPO epoch, an episode, a pre-training batch)."""
    start: float
    end: float = 0.0
    agent_steps: int = 0
    failed: bool = False


@dataclass
class OpLog:
    """Operation boundaries and output-check failures on one clock."""
    clock: Clock
    ops: list[Op] = field(default_factory=list)
    messages: list[str] = field(default_factory=list)
    setup_failed: bool = False

    def begin(self):
        self.finish()
        self.ops.append(Op(start=self.clock.now()))

    def finish(self):
        if self.ops and not self.ops[-1].end:
            self.ops[-1].end = self.clock.now()

    def check(self, ok, message: str, op_index: int | None = None):
        """Record a failed output check against an op (the current one by default)."""
        if ok:
            return
        if len(self.messages) < 20:
            self.messages.append(message)
        if not self.ops:
            self.setup_failed = True
        else:
            self.ops[-1 if op_index is None else op_index].failed = True


class Tracer:
    """Span timings per layer: calls, inclusive time and self time.

    A span's self time is its duration minus the durations of the spans
    nested directly inside it.
    """

    def __init__(self, clock: Clock):
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.incl: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self._stack: list[list[float]] = []

    def count(self, key: str, amount: float):
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def wrap(self, name: str, after=None):
        """Wrapper factory for ``patch_everywhere``; ``after(args, out)``
        runs with the clock paused once the call has returned."""
        clock, stack = self.clock, self._stack

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = [clock.now(), 0.0]
                stack.append(frame)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    dur = clock.now() - frame[0]
                    self.calls[name] = self.calls.get(name, 0) + 1
                    self.incl[name] = self.incl.get(name, 0.0) + dur
                    self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[1]
                    if stack:
                        stack[-1][1] += dur
                if after is not None:
                    with clock.paused():
                        after(args, out)
                return out
            return wrapper
        return make
