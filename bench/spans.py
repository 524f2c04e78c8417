"""In-memory span recorder that wraps pcmkit's public functions from outside.

Only the traced run installs it.  Every module-level binding of a traced
function inside the ``pcmkit`` package is replaced by one wrapper, so a call
is recorded once whichever module it goes through: ``simulate`` calling
``round_matrix_to_scale`` it imported from ``core``, ``stats.spearman``
calling its own ``average_ranks``, or ``cli`` calling ``acc.assess_pcm``.
The benchmark's own operations open root spans with :meth:`Tracer.op`; every
span carries the id of the operation it ran under.  ``uninstall`` restores
every binding.
"""
from __future__ import annotations

import contextlib
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, function) pairs of pcmkit's layers, named by their defining module.
TRACED = (
    ("simulate", "run_msobe_sf"),
    ("simulate", "run_mse_sf"),
    ("simulate", "run_nee_sf"),
    ("simulate", "write_records_csv"),
    ("simulate", "read_records_csv"),
    ("core", "round_matrix_to_scale"),
    ("core", "read_pcm"),
    ("prioritize", "rev_estimate"),
    ("prioritize", "gm_estimate"),
    ("indices", "estimate_asi"),
    ("indices", "compute_report"),
    ("loss", "avg_absolute_error"),
    ("loss", "avg_relative_error"),
    ("stats", "spearman_or_nan"),
    ("stats", "pearson"),
    ("stats", "average_ranks"),
    ("stats", "summarize_classes"),
    ("acceptance", "builtin_table"),
    ("acceptance", "assess_pcm"),
    ("acceptance", "table_from_records"),
    ("cli", "main"),
)


class Tracer:
    """Spans (name, start, end, parent, op id) plus counts at the same boundaries."""

    def __init__(self):
        self.names: list = []  # span name id -> name
        self._name_ids: dict = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.op_kinds: list = []  # op id -> kind
        self.op_units: list = []  # op id -> work units in the op
        self.counts: dict = {}  # (counter, op kind) -> total
        self.samples: dict = {}  # counter -> list of observed values
        self._stack: list = []
        self._op = -1
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def count(self, counter: str, amount=1) -> None:
        kind = self.op_kinds[self._op] if self._op >= 0 else "setup"
        key = (counter, kind)
        self.counts[key] = self.counts.get(key, 0) + amount

    @contextlib.contextmanager
    def op(self, kind: str, units: int):
        """Root span for one benchmark operation of `units` work items."""
        outer = self._op
        self._op = len(self.op_kinds)
        self.op_kinds.append(kind)
        self.op_units.append(units)
        idx = self._open(self._name_id(f"op.{kind}"))
        try:
            yield
        finally:
            self._close(idx)
            self._op = outer

    def _wrap(self, name: str, fn, on_result=None):
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "pcmkit" or key.startswith("pcmkit."))]
        hooks = {
            "core.round_matrix_to_scale": lambda args, out: self.count(
                "core.round_matrix_to_scale.values", int(np.size(args[0]))),
            "prioritize.rev_estimate": lambda args, out: self.samples.setdefault(
                "prioritize.rev_estimate.iterations", []).append(out.iterations),
        }
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"pcmkit.{mod_name}"], fn_name)
            label = f"{mod_name}.{fn_name}"
            wrapper = self._wrap(label, original, hooks.get(label))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))
        # Every record-level RNG stream in simulate starts from an explicit
        # SeedSequence; count them where they are built.
        seed_sequence = np.random.SeedSequence

        def counted_seed_sequence(*args, **kwargs):
            self.count("simulate.seed_sequences")
            return seed_sequence(*args, **kwargs)

        np.random.SeedSequence = counted_seed_sequence
        self._restore.append((np.random, "SeedSequence", seed_sequence))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, calls per op kind, first duration.

        Calls and seconds count only spans inside benchmark operations; the
        first duration covers every span, so a first call made before any
        operation (lazy set-up) shows there.
        """
        out: dict = {}
        if not self.start:
            return out
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        op_id = np.frombuffer(self.op_id, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=name.size)
        self_time = dur - child
        span_kind = np.array(self.op_kinds + ["setup"])[op_id]  # op id -1 -> "setup"
        for nid, label in enumerate(self.names):
            mine = name == nid
            timed = mine & (op_id >= 0)
            kinds, counts = np.unique(span_kind[timed], return_counts=True)
            out[label] = {
                "calls": int(timed.sum()),
                "s": float(dur[timed].sum()),
                "self_s": float(self_time[timed].sum()),
                "first_s": float(dur[np.argmax(mine)]) if mine.any() else 0.0,
                "by_kind": {str(k): int(c) for k, c in zip(kinds, counts)},
            }
        return out

    def units(self, kind: str) -> int:
        return sum(u for k, u in zip(self.op_kinds, self.op_units) if k == kind)
