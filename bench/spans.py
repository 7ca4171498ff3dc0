"""Span recorder that wraps romanoff_lab's public functions from outside.

``Tracer.install()`` replaces every public function of the package, at every
module that binds it (``count_points`` is bound in ``elliptic`` and in
``sequences``, ``totient_ratio`` in ``sieve``, ``moments``, ``elliptic`` and
``extremal``), and every public classmethod (``PrimeList.build``), by a
wrapper that records one span: name, start, end, parent span and op id.
Spans stay in flat arrays in memory and are written once, by ``save()``.
A few wrappers also count work at the same boundary: terms summed, distinct
(curve, prime) pairs, pair operations and table bytes.  Nothing in the
package itself changes; ``uninstall()`` puts every binding back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from array import array
from collections import defaultdict

import numpy as np

PACKAGE = "romanoff_lab"
SETUP_OP = -2  # op id of the shared-table set-up
NO_OP = -1


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# counts taken where the work happens, as (counter, amount) from (args, kwargs, result)
COUNTERS = {
    "moments.moment_sum": lambda a, k, r: ("moments.moment_sum.terms", len(_arg(a, k, 0, "values"))),
    # sum over terms a of pi(x - a): the pair operations, read off the output
    "romanoff.representation_counts": lambda a, k, r: ("romanoff.representation_counts.pair_ops", r.total()),
    "sieve.build_sieve": lambda a, k, r: ("sieve.table_bytes", r.spf.nbytes),
    "sieve.PrimeList.build": lambda a, k, r: ("sieve.table_bytes", r.values.nbytes),
}

# keys whose distinct values are counted, from (args, kwargs)
DISTINCT = {
    "elliptic.count_points": lambda a, k: (
        _arg(a, k, 0, "curve").A,
        _arg(a, k, 0, "curve").B,
        int(_arg(a, k, 1, "p")),
    ),
}


class Tracer:
    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self.names = array("H")
        self.parents = array("i")
        self.ops = array("i")
        self.name_table: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op = NO_OP
        # (op, counter) -> amount, and (op, name) -> distinct keys
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.distinct: dict[tuple[int, str], set] = defaultdict(set)

    # --- wrapping ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.name_table)
            self.name_table.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        counter = COUNTERS.get(name)
        key_of = DISTINCT.get(name)
        starts, ends, names, parents, ops, stack = (
            self.starts, self.ends, self.names, self.parents, self.ops, self._stack,
        )
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if counter is not None:
                key, amount = counter(args, kwargs, result)
                tracer.counts[(tracer.op, key)] += amount
            if key_of is not None:
                tracer.distinct[(tracer.op, name)].add(key_of(args, kwargs))
            return result

        return wrapper

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        modules = [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) and obj.__module__.startswith(PACKAGE):
                    if id(obj) not in wrapped:
                        short = obj.__module__.rsplit(".", 1)[-1]
                        wrapped[id(obj)] = self._wrap(obj, f"{short}.{obj.__qualname__}")
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrapped[id(obj)])
                elif isinstance(obj, type) and obj.__module__ == module.__name__:
                    for cattr, raw in list(vars(obj).items()):
                        if isinstance(raw, classmethod) and not cattr.startswith("_"):
                            short = module.__name__.rsplit(".", 1)[-1]
                            fn = self._wrap(raw.__func__, f"{short}.{raw.__func__.__qualname__}")
                            self._patches.append((obj, cattr, raw))
                            setattr(obj, cattr, classmethod(fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- output -----------------------------------------------------------

    def span_set(self) -> "SpanSet":
        return SpanSet(
            starts=np.frombuffer(self.starts, dtype=np.float64).copy(),
            ends=np.frombuffer(self.ends, dtype=np.float64).copy(),
            names=np.frombuffer(self.names, dtype=np.uint16).astype(np.int32),
            parents=np.frombuffer(self.parents, dtype=np.int32).copy(),
            ops=np.frombuffer(self.ops, dtype=np.int32).copy(),
            name_table=list(self.name_table),
            counts={f"{op}|{k}": v for (op, k), v in self.counts.items()},
            distinct={f"{op}|{k}": sorted(v) for (op, k), v in self.distinct.items()},
        )


class SpanSet:
    """Finished spans: flat arrays plus the name table and the counters."""

    def __init__(self, starts, ends, names, parents, ops, name_table, counts, distinct):
        self.starts, self.ends, self.names, self.parents, self.ops = starts, ends, names, parents, ops
        self.name_table = name_table
        self.counts = counts
        self.distinct = distinct

    def save(self, path) -> None:
        meta = {"name_table": self.name_table, "counts": self.counts, "distinct": self.distinct}
        with open(path, "wb") as fh:
            np.savez(
                fh,
                starts=self.starts,
                ends=self.ends,
                names=self.names,
                parents=self.parents,
                ops=self.ops,
                meta=np.array(json.dumps(meta)),
            )

    @classmethod
    def load(cls, path) -> "SpanSet":
        with np.load(path) as z:
            meta = json.loads(str(z["meta"]))
            distinct = {k: [tuple(v) for v in vs] for k, vs in meta["distinct"].items()}
            return cls(
                z["starts"], z["ends"], z["names"], z["parents"], z["ops"],
                meta["name_table"], meta["counts"], distinct,
            )

    @classmethod
    def merge(cls, parts: list[tuple[int, "SpanSet"]]) -> "SpanSet":
        """One set from several, relabelling every span of each part with its op id."""
        ids: dict[str, int] = {}
        cols = defaultdict(list)
        counts: dict[str, int] = defaultdict(int)
        distinct: dict[str, list] = defaultdict(list)
        offset = 0
        for op, part in parts:
            remap = np.array([ids.setdefault(n, len(ids)) for n in part.name_table] + [0], dtype=np.int32)
            cols["starts"].append(part.starts)
            cols["ends"].append(part.ends)
            cols["names"].append(remap[part.names])
            cols["parents"].append(np.where(part.parents >= 0, part.parents + offset, -1))
            cols["ops"].append(np.full(len(part.starts), op, dtype=np.int32))
            for k, v in part.counts.items():
                counts[f"{op}|{k.split('|', 1)[1]}"] += v
            for k, v in part.distinct.items():
                distinct[f"{op}|{k.split('|', 1)[1]}"] += list(v)
            offset += len(part.starts)

        def column(key, dtype):
            return np.concatenate(cols[key]).astype(dtype) if cols[key] else np.zeros(0, dtype=dtype)

        return cls(
            column("starts", np.float64),
            column("ends", np.float64),
            column("names", np.int32),
            column("parents", np.int32),
            column("ops", np.int32),
            sorted(ids, key=ids.get),
            dict(counts),
            dict(distinct),
        )

    def at_reference(self, factors: dict[int, float]) -> "SpanSet":
        """A copy whose span durations are multiplied by their op's factor to
        the reference speed (see speed.py); spans of ops without a factor keep
        their raw duration.  One factor per op keeps self times additive."""
        ops, inverse = np.unique(self.ops, return_inverse=True)
        f = np.array([factors.get(int(op), 1.0) for op in ops])[inverse.reshape(-1)]
        ends = self.starts + (self.ends - self.starts) * f
        return SpanSet(
            self.starts, ends, self.names, self.parents, self.ops, self.name_table, self.counts, self.distinct
        )

    # --- per-layer figures ------------------------------------------------

    def counts_by_op(self, key: str) -> dict[int, int]:
        out: dict[int, int] = defaultdict(int)
        for k, v in self.counts.items():
            op, name = k.split("|", 1)
            if name == key:
                out[int(op)] += v
        return dict(out)

    def layers(self, op_ids) -> dict:
        """Per span name over the given ops: calls, inclusive seconds, self
        seconds; plus the counters, distinct counts and the root-span total."""
        dur = self.ends - self.starts
        child = np.zeros(len(dur))
        has_parent = self.parents >= 0
        np.add.at(child, self.parents[has_parent], dur[has_parent])
        own = dur - child
        mask = np.isin(self.ops, np.asarray(list(op_ids), dtype=np.int32))
        n = len(self.name_table)
        names = self.names[mask]
        calls = np.bincount(names, minlength=n)
        incl = np.bincount(names, weights=dur[mask], minlength=n)
        selfs = np.bincount(names, weights=own[mask], minlength=n)
        out = {
            "calls": {self.name_table[i]: int(calls[i]) for i in range(n) if calls[i]},
            "s": {self.name_table[i]: float(incl[i]) for i in range(n) if calls[i]},
            "self_s": {self.name_table[i]: float(selfs[i]) for i in range(n) if calls[i]},
            "root_s": float(dur[mask & ~has_parent].sum()),
            "self_total_s": float(own[mask].sum()),
        }
        wanted = {str(o) for o in op_ids}
        counts: dict[str, int] = defaultdict(int)
        for k, v in self.counts.items():
            op, key = k.split("|", 1)
            if op in wanted:
                counts[key] += v
        keys: dict[str, set] = defaultdict(set)
        for k, v in self.distinct.items():
            op, key = k.split("|", 1)
            if op in wanted:
                keys[key].update(map(tuple, v))
        out["counts"] = dict(counts)
        out["distinct"] = {k: len(v) for k, v in keys.items()}
        return out
