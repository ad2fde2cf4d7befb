"""Deterministic call counting for tier-1 cost assertions.

Host time is not a tier-1 quantity (ROADMAP: no ``perf_counter``
assertion under ``tests/``); the number of interpreter frames a piece of
work enters is — it repeats exactly from run to run and moves only when
the code does.  :func:`count_calls` runs a callable under
``sys.setprofile`` and reports what it entered; :func:`count_opcodes`
runs it under ``sys.settrace`` and reports the bytecodes it executed
(folding a helper into its caller removes a frame, but of the bytecodes
only the call's own).
"""

from __future__ import annotations

import gc
import os
import sys
from collections import Counter
from typing import Callable, Dict, NamedTuple, Optional, Tuple

__all__ = ["CallCount", "OpcodeCount", "count_calls", "count_opcodes"]

#: ``(file, function, caller function)`` of one counted Python frame.
Row = Tuple[str, str, str]


class CallCount(NamedTuple):
    """What one profiled callable entered.

    ``python`` and ``c`` count every Python frame (generator resumes
    included — each is one ``call`` event) and every builtin call;
    ``rows`` holds the Python frames whose code lives under one of the
    ``under`` directories, keyed ``(file, function, caller)``."""

    python: int
    c: int
    rows: "Counter[Row]"

    def under(self, directory: str) -> int:
        """Frames in ``rows`` whose file lies under ``directory``."""
        return sum(n for row, n in self.rows.items() if row[0].startswith(directory))

    def top(self, per: int, limit: int = 15) -> str:
        """The ``limit`` largest rows in frames per ``per`` units of work
        (jobs, flows), one per line — a failed budget names its frame."""
        return "\n".join(
            f"{n / per:9.2f}  {os.sep.join(file.split(os.sep)[-2:])}:{func}"
            f"  <- {caller}"
            for (file, func, caller), n in self.rows.most_common(limit)
        )


class OpcodeCount(NamedTuple):
    """Bytecodes one traced callable executed, by source file, counting
    only code under the ``under`` directories it was traced with."""

    files: "Counter[str]"

    @property
    def total(self) -> int:
        return sum(self.files.values())

    def top(self, per: int, limit: int = 15) -> str:
        """The ``limit`` largest files in bytecodes per ``per`` units of
        work, one per line — a failed pin names where the change is."""
        return "\n".join(
            f"{n / per:11.2f}  {os.sep.join(file.split(os.sep)[-2:])}"
            for file, n in self.files.most_common(limit)
        )


def count_calls(fn: Callable[[], object], under: Tuple[str, ...] = ()) -> CallCount:
    """Run ``fn()`` under a profile hook and count what it calls.

    ``fn``'s own frame and the hook's removal are not counted, so a
    loop of N calls reads N.  ``under`` are directory prefixes of the
    source files whose frames are itemised in ``rows``.  The cyclic
    collector is drained first and held off while counting: a finaliser
    it runs (a suspended generator being closed, say) is a frame that
    belongs to whatever garbage earlier code left, not to ``fn``.
    """
    own = getattr(fn, "__code__", None)
    totals = [0, 0]
    rows: "Counter[Row]" = Counter()
    tracked: Dict[object, Optional[Tuple[str, str]]] = {}

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code is own:
                return
            totals[0] += 1
            try:
                where = tracked[code]
            except KeyError:
                file = code.co_filename
                where = tracked[code] = (
                    (file, code.co_name) if file.startswith(under) else None
                )
            if where is not None:
                rows[where + (frame.f_back.f_code.co_name,)] += 1
        elif event == "c_call" and arg is not sys.setprofile:
            totals[1] += 1

    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return CallCount(totals[0], totals[1], rows)


def count_opcodes(fn: Callable[[], object], under: Tuple[str, ...]) -> OpcodeCount:
    """Run ``fn()`` under a trace hook and count the bytecodes executed
    in code whose source file lies under one of the ``under`` directory
    prefixes (``frame.f_trace_opcodes``; line events are switched off).
    Frames elsewhere are not traced at all.  The cyclic collector is
    drained and held off as in :func:`count_calls`.
    """
    files: "Counter[str]" = Counter()
    tracked: Dict[object, bool] = {}

    def opcode(frame, event, arg):
        if event == "opcode":
            files[frame.f_code.co_filename] += 1
        return opcode

    def call(frame, event, arg):
        code = frame.f_code
        try:
            traced = tracked[code]
        except KeyError:
            traced = tracked[code] = code.co_filename.startswith(under)
        if not traced:
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return opcode

    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    sys.settrace(call)
    try:
        fn()
    finally:
        sys.settrace(None)
        if collecting:
            gc.enable()
    return OpcodeCount(files)
