"""Span tracing of the permclass layers, installed from outside the library.

Every public function of a layer module is replaced, on its module attribute,
by a wrapper that records one span per call: name, start, end, parent span
and request id.  Library code calls across modules through module attributes
(``P.contains``, ``EN.count_avoiders``) and within a module through its
globals, which are the same dictionary, so the wrappers see internal calls as
well as the benchmark's own.  ``Perm`` construction is traced by wrapping the
class's ``__init__``, and ``IntPolynomial.eval`` calls are counted without a
span, so their time stays in the caller (``dominant_root``).

Generator functions (``all_perms``, ``alternating_perms``) are left alone:
their bodies run while the consumer's span is open, so their work lands in
the consumer's self time.

Spans are held in flat arrays (about 40 bytes each) and written out at the
end of a run; self times are derived afterwards from the parent links.
"""
from __future__ import annotations

import inspect
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path

LAYERS = ("perm", "structure", "antichain", "enumeration", "growth", "cli")

# Span names a metric sums over; each is "<layer>.<public name>".
_S_K_SPANS = ("structure.s_k", "structure.k_decomposition",
              "structure.in_small_block_class")
_BLOCK_SPANS = ("structure.up_blocks", "structure.down_blocks",
                "structure.up_decomposition", "structure.down_decomposition",
                "structure.h_plus", "structure.h_minus",
                "structure.is_up_indecomposable",
                "structure.is_down_indecomposable")
_TREE_SPANS = ("antichain.tree_isomorphic", "antichain.tree_canonical",
               "antichain.is_tree")
_CONTAINS_SPANS = ("perm.contains.short", "perm.contains.long")
_CLI_SPANS = ("cli.main", "cli.build_parser")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Owns the span arrays and the patches; install() and uninstall() swap
    the wrappers in and out so untraced passes run the original code."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.request = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.request_id = 0
        self.contains_hits = 0
        self.poly_evals = 0
        self.members_produced = 0
        self._patches: list[tuple[object, str, object, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def reset(self) -> None:
        for arr in (self.name, self.parent, self.request, self.start, self.end):
            del arr[:]
        self.stack.clear()
        self.contains_hits = self.poly_evals = self.members_produced = 0

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, name_of):
        """Wrap fn so each call records a span; name_of(args) gives its id."""
        names, parents, requests = self.name, self.parent, self.request
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_of(args))
            parents.append(stack[-1] if stack else -1)
            requests.append(tracer.request_id)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_contains(self, fn):
        short, long_ = self._id("perm.contains.short"), self._id("perm.contains.long")
        timed = self._span(fn, lambda args: short if len(args[0]) <= 5 else long_)

        def contains(pat, host):
            found = timed(pat, host)
            if found:
                self.contains_hits += 1
            return found

        return contains

    def _wrap_count_avoiders(self, fn):
        nid = self._id("enumeration.count_avoiders")
        timed = self._span(fn, lambda args: nid)

        def count_avoiders(basis, max_n):
            counts = timed(basis, max_n)
            self.members_produced += sum(counts)
            return counts

        return count_avoiders

    def _wrap_eval(self, fn):
        def eval_(poly, x):
            self.poly_evals += 1
            return fn(poly, x)

        return eval_

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr), wrapper))

    def prepare(self, modules: dict[str, object]) -> None:
        """Build a wrapper for every public function of each layer module.

        modules maps layer name to the imported module object.
        """
        for layer, mod in modules.items():
            for attr, obj in sorted(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                name = f"{layer}.{attr}"
                if name == "perm.contains":
                    wrapper = self._wrap_contains(obj)
                elif name == "enumeration.count_avoiders":
                    wrapper = self._wrap_count_avoiders(obj)
                else:
                    nid = self._id(name)
                    wrapper = self._span(obj, lambda args, nid=nid: nid)
                self._patch(mod, attr, wrapper)
        perm_cls = modules["perm"].Perm
        nid = self._id("perm.Perm")
        self._patch(perm_cls, "__init__",
                    self._span(perm_cls.__init__, lambda args: nid))
        poly_cls = modules["growth"].IntPolynomial
        self._patch(poly_cls, "eval", self._wrap_eval(poly_cls.eval))

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        n_names = len(self.names)
        calls = [0] * n_names
        self_s = [0.0] * n_names
        child_s = [0.0] * len(self.start)
        child_calls: dict[tuple[int, int], int] = defaultdict(int)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        # A span is appended when its call starts, so its children have
        # larger indices and a reverse scan sees them before the span.
        for i in range(len(starts) - 1, -1, -1):
            dur = ends[i] - starts[i]
            nid, par = names[i], parents[i]
            calls[nid] += 1
            self_s[nid] += dur - child_s[i]
            if par >= 0:
                child_s[par] += dur
                child_calls[(names[par], nid)] += 1

        def total(which, table):
            return sum(table[self._ids[n]] for n in which if n in self._ids)

        def under(parent_name):
            pid = self._ids.get(parent_name)
            return sum(child_calls.get((pid, self._ids[c]), 0)
                       for c in _CONTAINS_SPANS)

        def one(name, table):
            return total((name,), table)

        contains_calls = total(_CONTAINS_SPANS, calls)
        out = {
            "perm.contains.calls": contains_calls,
            "perm.contains.hits": self.contains_hits,
            "perm.pattern_of.calls": one("perm.pattern_of", calls),
            "perm.Perm.constructions": one("perm.Perm", calls),
            "structure.al.calls": one("structure.al", calls),
            "structure.al.contains_calls": under("structure.al"),
            "antichain.is_antichain.contains_calls": under("antichain.is_antichain"),
            "antichain.members.contains_calls": under("antichain.members"),
            "growth.dominant_root.calls": one("growth.dominant_root", calls),
            "growth.poly_evals": self.poly_evals,
            "enumeration.members_produced": self.members_produced,
            "enumeration.count_avoiders.contains_calls":
                under("enumeration.count_avoiders"),
            "trace.spans": len(starts),
            "perm.contains.hit_ratio": _ratio(self.contains_hits, contains_calls),
            "enumeration.contains_per_member": _ratio(
                under("enumeration.count_avoiders"), self.members_produced),
            "perm.contains.short.self_s": one("perm.contains.short", self_s),
            "perm.contains.long.self_s": one("perm.contains.long", self_s),
            "perm.pattern_of.self_s": one("perm.pattern_of", self_s),
            "perm.Perm.self_s": one("perm.Perm", self_s),
            "enumeration.count_avoiders.self_s":
                one("enumeration.count_avoiders", self_s),
            "enumeration.fit_recurrence.self_s":
                one("enumeration.fit_recurrence", self_s),
            "structure.al.self_s": one("structure.al", self_s),
            "structure.s_k.self_s": total(_S_K_SPANS, self_s),
            "structure.blocks.self_s": total(_BLOCK_SPANS, self_s),
            "antichain.is_antichain.self_s": one("antichain.is_antichain", self_s),
            "antichain.tree_isomorphic.self_s": total(_TREE_SPANS, self_s),
            "antichain.basis_up_to.self_s": one("antichain.basis_up_to", self_s),
            "antichain.members.self_s": one("antichain.members", self_s),
            "growth.dominant_root.self_s": one("growth.dominant_root", self_s),
            "cli.main.self_s": total(_CLI_SPANS, self_s),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                self_s[i] for i, n in enumerate(self.names)
                if n.startswith(layer + "."))
        return out

    def dump(self, path: Path) -> None:
        """Write the recorded spans: a JSON header line, then the five arrays
        (name id, parent index, request id, start, end) in native layout."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": [["name", "l"], ["parent", "l"], ["request", "l"],
                             ["start", "d"], ["end", "d"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.request, self.start, self.end):
                arr.tofile(fh)
