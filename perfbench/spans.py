"""Span recording around mpccert's module boundaries, from outside the package.

:class:`SpanRecorder` replaces public functions and methods of the
``mpccert`` modules with thin wrappers for as long as it is installed.
Each wrapped call leaves one span in memory: its id, name, parent span,
start and end.  A layer's self time is its spans' duration minus the part
covered by their child spans.  Nothing under ``src/`` knows about this.

Functions are replaced where the caller looks them up: ``mpccert.engine``
binds ``alpha_m_step`` and ``update_acceptable`` from ``certify`` at import
time, ``mpccert.sweep`` binds ``run_closed_loop``, and ``mpccert.cli`` binds
``sweep``, ``horizon_comparison`` and the CSV writers.  Forked pool workers
inherit the wrappers but their spans never reach the parent, so traced
passes run with one worker.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from array import array

import numpy as np

# (span name, module, class or None, attribute).  Names that share a
# prefix before the first dot form one layer.
TARGETS = (
    ("riccati.solve", "mpccert.riccati", "FiniteHorizonSolver", "solve"),
    ("riccati.value_of", "mpccert.riccati", "FiniteHorizonSolver", "value_of"),
    ("riccati.extend", "mpccert.riccati", "RiccatiLadder", "extend"),
    ("certify.alpha_m_step", "mpccert.engine", None, "alpha_m_step"),
    ("certify.update_acceptable", "mpccert.engine", None, "update_acceptable"),
    ("certify.Certificate.build", "mpccert.certify", "Certificate", "build"),
    ("certify.SlackAccumulator.add", "mpccert.certify", "SlackAccumulator", "add"),
    ("engine.run_closed_loop", "mpccert.sweep", None, "run_closed_loop"),
    ("engine.run_closed_loop", "mpccert.cli", None, "run_closed_loop"),
    ("sweep.sweep", "mpccert.sweep", None, "sweep"),
    ("sweep.sweep", "mpccert.cli", None, "sweep"),
    ("sweep.horizon_comparison", "mpccert.cli", None, "horizon_comparison"),
    ("sweep.value_drop_grid", "mpccert.sweep", None, "value_drop_grid"),
    ("sweep.csv", "mpccert.cli", None, "write_sweep_csv"),
    ("sweep.csv", "mpccert.cli", None, "write_horizon_csv"),
    ("sweep.csv", "mpccert.cli", None, "certificates_to_csv"),
    ("cli.main", "mpccert.cli", None, "main"),
)

_ENGINE = "engine.run_closed_loop"


class SpanRecorder:
    """Wraps the :data:`TARGETS` and keeps one pass worth of spans.

    Use as a context manager around a pass; :meth:`reset` clears the
    spans and counters before the next one.
    """

    def __init__(self):
        self.names: list[str] = []
        self._stack: list[int] = []
        self._name_ids = array("q")
        self._parents = array("q")
        self._starts = array("d")
        self._ends = array("d")
        self._ladders: list = []
        self._saved: list[tuple] = []
        self.counters: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        for buf in (self._name_ids, self._parents, self._starts, self._ends):
            del buf[:]
        self._ladders.clear()
        self.counters = {
            "engine.iterations": 0,
            "engine.applied_steps": 0,
            "engine.intervals": 0,
            "engine.replans_accepted": 0,
            "sweep.csv.bytes": 0,
        }

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _span(self, name: str, fn):
        nid = self._name_id(name)
        stack, name_ids, parents = self._stack, self._name_ids, self._parents
        starts, ends = self._starts, self._ends
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return wrapper

    def _with_counts(self, name: str, fn):
        """Span plus the counters that only the call's arguments or result hold."""
        spanned = self._span(name, fn)
        if name == _ENGINE:

            def run(*args, **kwargs):
                trace = spanned(*args, **kwargs)
                c = self.counters
                c["engine.iterations"] += trace.iterations
                c["engine.applied_steps"] += len(trace.applied_costs)
                c["engine.intervals"] += len(trace.certificates)
                c["engine.replans_accepted"] += sum(w.closes for w in trace.windows)
                return trace

            return functools.wraps(fn)(run)
        if name == "sweep.csv":

            def write(*args, **kwargs):
                spanned(*args, **kwargs)
                path = kwargs["path"] if "path" in kwargs else args[-1]
                self.counters["sweep.csv.bytes"] += os.path.getsize(path)

            return functools.wraps(fn)(write)
        return spanned

    def __enter__(self):
        from mpccert.riccati import RiccatiLadder

        for name, module_name, cls_name, attr in TARGETS:
            owner = importlib.import_module(module_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            original = owner.__dict__[attr] if cls_name else getattr(owner, attr)
            if isinstance(original, classmethod):
                replacement = classmethod(self._with_counts(name, original.__func__))
            else:
                replacement = self._with_counts(name, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, replacement)

        # Rungs are counted from the ladders' final size, so that the
        # extend wrapper stays as cheap as the others.
        init = RiccatiLadder.__init__
        ladders = self._ladders

        @functools.wraps(init)
        def ladder_init(ladder, *args, **kwargs):
            init(ladder, *args, **kwargs)
            ladders.append(ladder)

        self._saved.append((RiccatiLadder, "__init__", init))
        RiccatiLadder.__init__ = ladder_init
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def arrays(self) -> dict[str, np.ndarray]:
        """The recorded spans as arrays indexed by span id."""
        return {
            "name_id": np.frombuffer(self._name_ids, dtype=np.int64).copy(),
            "parent": np.frombuffer(self._parents, dtype=np.int64).copy(),
            "start": np.frombuffer(self._starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self._ends, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        """Write the spans of the current pass as an ``.npz`` file."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and times of the spans recorded since :meth:`reset`.

        ``self_s`` excludes the time of child spans; ``us_per_call`` is the
        mean span duration including them.
        """
        spans = self.arrays()
        nid, parent = spans["name_id"], spans["parent"]
        start, dur = spans["start"], spans["end"] - spans["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        own = np.bincount(nid, weights=self_time, minlength=k)

        def pick(prefix: str, values) -> float:
            return float(sum(values[i] for i, n in enumerate(self.names) if n == prefix or n.startswith(prefix + ".")))

        def per_call_us(name: str) -> float:
            n = pick(name, calls)
            return pick(name, total) / n * 1e6 if n else 0.0

        # Calls made while a closed-loop run is open.  Runs never nest and
        # spans are recorded in start order, so one search finds the run
        # whose interval holds each span's start.
        eng = nid == self._name_id(_ENGINE)
        inside = np.zeros(len(nid), dtype=bool)
        if eng.any():
            e_start, e_end = start[eng], spans["end"][eng]
            pos = np.searchsorted(e_start, start, side="right") - 1
            inside = (pos >= 0) & (start < e_end[np.maximum(pos, 0)]) & ~eng

        def in_engine(name: str) -> int:
            return int(np.sum(inside & (nid == self._name_id(name))))

        c = self.counters
        iterations = c["engine.iterations"]
        engine_solves = in_engine("riccati.solve")
        tried = engine_solves - iterations
        accepted = c["engine.replans_accepted"]
        return {
            "riccati.solve.calls": pick("riccati.solve", calls),
            "riccati.solve.self_s": pick("riccati.solve", own),
            "riccati.solve.us_per_call": per_call_us("riccati.solve"),
            "riccati.value_of.calls": pick("riccati.value_of", calls),
            "riccati.value_of.self_s": pick("riccati.value_of", own),
            "riccati.value_of.us_per_call": per_call_us("riccati.value_of"),
            "riccati.extend.calls": pick("riccati.extend", calls),
            "riccati.extend.self_s": pick("riccati.extend", own),
            "riccati.ladder.rungs_built": float(sum(ladder.horizon - 1 for ladder in self._ladders)),
            "engine.self_s": pick("engine", own),
            "engine.iterations": float(iterations),
            "engine.applied_steps": float(c["engine.applied_steps"]),
            "engine.intervals": float(c["engine.intervals"]),
            "engine.solves_per_iteration": engine_solves / iterations if iterations else 0.0,
            "engine.value_evals_per_iteration": (
                in_engine("riccati.value_of") / iterations if iterations else 0.0
            ),
            "engine.replans_tried": float(tried),
            "engine.replans_accepted": float(accepted),
            "engine.replan_accept_ratio": accepted / tried if tried else 0.0,
            "certify.calls": pick("certify", calls),
            "certify.self_s": pick("certify", own),
            "sweep.self_s": pick("sweep", own) - pick("sweep.csv", own),
            "sweep.csv.self_s": pick("sweep.csv", own),
            "sweep.csv.bytes": float(c["sweep.csv.bytes"]),
            "cli.self_s": pick("cli", own),
        }
