"""Spans and call counts around the program's layer boundaries.

The tracer wraps public functions of the kcharge modules from outside: each
wrapper replaces the function in every kcharge module that holds it (the
defining module and every module that imported it), so calls between
modules are seen too.  Nothing under src/ is edited, and `uninstall`
puts every original back.

A span is (name, start, end, parent span, operation id), kept in flat
arrays while the run lasts and written once at the end.  A counter only
counts calls; it is used where a span per call would move more time out of
the caller's self time than the callee costs.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# The return value of this span's function, (identities checked, failures),
# is summed into Tracer.identities_checked.
IDENTITIES_SPAN = "sweeps.check_tableau_identities"

# (module, attribute, span name).  k_charge and k_cocharge get one span name
# per formulation; sweeps._statistics_task is one (k, weight) task.
SPANS = (
    ("kcharge.cores", "addable_corners", "cores.addable_corners"),
    ("kcharge.cores", "is_n_core", "cores.is_n_core"),
    ("kcharge.cores", "k_interior", "cores.k_interior"),
    ("kcharge.ktableaux", "enumerate_k_tableaux", "ktableaux.enumerate_k_tableaux"),
    ("kcharge.ktableaux", "standard_sequences", "ktableaux.standard_sequences"),
    ("kcharge.ktableaux", "validate", "ktableaux.validate"),
    ("kcharge.ktableaux", "parse_text", "ktableaux.parse_text"),
    ("kcharge.statistics", "k_charge", "statistics.k_charge"),
    ("kcharge.statistics", "k_cocharge", "statistics.k_cocharge"),
    ("kcharge.statistics", "sequence_reports", "statistics.sequence_reports"),
    ("kcharge.statistics", "classical_charge", "statistics.classical_charge"),
    ("kcharge.sweeps", "check_tableau_identities", IDENTITIES_SPAN),
    ("kcharge.sweeps", "_statistics_task", "sweeps.task"),
)
BY_FORMULATION = {"statistics.k_charge", "statistics.k_cocharge"}

COUNTERS = (
    ("kcharge.ktableaux", "restrict_sequence", "ktableaux.restrict_sequence"),
    ("kcharge.ktableaux", "KTableau.cells_of", "ktableaux.KTableau.cells_of"),
    ("kcharge.statistics", "diag", "statistics.diag"),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self._stack = [-1]
        self.calls: dict[str, int] = defaultdict(int)
        self.identities_checked = 0
        self.probes: list[tuple[float, float, tuple[int, ...]]] = []
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def on_probe(self, t0: float, t1: float) -> None:
        """Note a drift probe that ran while the spans on the stack were open."""
        self.probes.append((t0, t1, tuple(self._stack[1:])))

    def span(self, fn, name: str, on_result=None):
        """Wrap fn so each call records a span named name."""
        if name in BY_FORMULATION:
            ids = {f: self._id(f"{name}.{f}") for f in ("lp", "morse")}

            def by_formulation(tab, formulation="morse"):
                idx = self._open(ids.get(formulation, ids["morse"]))
                try:
                    return fn(tab, formulation)
                finally:
                    self._close(idx)

            return by_formulation

        name_id = self._id(name)

        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _add_identities(self, result: tuple[int, list]) -> None:
        self.identities_checked += result[0]

    def counter(self, fn, name: str):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, module_name: str, attr: str, make) -> None:
        owner = sys.modules[module_name]
        if "." in attr:  # a method: patch the class attribute
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            holders = [owner]
        else:
            holders = [
                m for n, m in sys.modules.items()
                if (n == "kcharge" or n.startswith("kcharge.")) and attr in vars(m)
            ]
        original = getattr(owner, attr, None)
        if original is None:  # no longer in the program: its metrics read 0
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapped = make(original)
        for holder in holders:
            if vars(holder).get(attr) is original:
                self._restore.append((holder, attr, original))
                setattr(holder, attr, wrapped)

    def install(self) -> None:
        for module_name, attr, name in SPANS:
            on_result = self._add_identities if name == IDENTITIES_SPAN else None
            self._patch(
                module_name, attr, lambda fn, name=name, hook=on_result: self.span(fn, name, hook)
            )
        for module_name, attr, name in COUNTERS:
            self._patch(module_name, attr, lambda fn, name=name: self.counter(fn, name))

    def uninstall(self) -> None:
        while self._restore:
            holder, attr, original = self._restore.pop()
            setattr(holder, attr, original)

    def _durations(self, factors: list[float]) -> list[float]:
        """Each span's duration without the probes inside it, scaled by the
        drift factor of the operation it ran in."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        for t0, t1, stack in self.probes:
            for idx in stack:
                if self.start[idx] <= t0 and t1 <= self.end[idx]:
                    dur[idx] -= t1 - t0
        return [d * factors[op] for d, op in zip(dur, self.op)]

    def totals(self, factors: list[float]) -> dict[str, list]:
        """[calls, inclusive seconds, self seconds] per span name.

        Self time is a span's duration minus the durations of its direct
        children; spans nest without overlap, since the run has one thread.
        """
        dur = self._durations(factors)
        child = [0.0] * len(dur)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += dur[idx]
        out: dict[str, list] = {name: [0, 0.0, 0.0] for name in self.names}
        for idx, name_id in enumerate(self.name_id):
            entry = out[self.names[name_id]]
            entry[0] += 1
            entry[1] += dur[idx]
            entry[2] += dur[idx] - child[idx]
        return out

    def durations(self, name: str, factors: list[float]) -> list[float]:
        """Adjusted duration of every span with this name."""
        name_id = self._ids.get(name)
        dur = self._durations(factors)
        return [d for i, d in zip(self.name_id, dur) if i == name_id]

    def write(self, path: Path) -> None:
        """Spans as a JSON header plus the raw arrays, in that order."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name_id", "i"], ["start", "d"], ["end", "d"], ["parent", "i"], ["op", "i"]],
            "calls": dict(self.calls),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.start, self.end, self.parent, self.op):
                arr.tofile(fh)
