"""Per-layer tracing by wrapping unifrag's public functions at run time.

``Tracer.install`` replaces every binding of each function in ``LAYERS``
in every loaded unifrag module (``from .semantics import evaluate`` in
``modelfind`` is a binding of its own) with a wrapper that records a span:
id, parent span, operation id, name, start and end.  A recursive function
records only its outermost call.  Spans stay in memory until ``write``.
Nothing under ``src/`` is edited; ``uninstall`` restores the originals.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = (
    "syntax.parse_formula", "syntax.print_formula",
    "fragments.check_fragment",
    "structures.parse_structure",
    "semantics.evaluate", "semantics.satisfaction_set",
    "dl.concept_extension", "dl.role_extension",
    "dlr.dlr_concept_extension", "dlr.dlr_binrel_extension",
    "translate.fu1_to_dl", "translate.to_dnf_block",
    "translate.eliminate_comp_union", "translate.dlr0_to_fu1",
    "modelfind.find_model",
    "lab.run_experiments",
    "cli.run",
)


def _printed_length(printer, value) -> int:
    # a left-deep fold can nest thousands of levels; measuring its size
    # must not fail where the program's own caller does
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 100_000))
    try:
        return len(printer(value))
    finally:
        sys.setrecursionlimit(limit)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, op, name, start, end)
        self.ids = itertools.count(1)
        self.stack = [0]
        self.op = 0
        self.active = dict.fromkeys(LAYERS, False)
        self.patches: list[tuple] = []
        self.chars = 0
        self.disjuncts = 0
        self.elements = 0
        self.nodes = {False: 0, True: 0}
        self.found = 0
        self.raised = 0
        self.outputs: dict[str, list] = {"translate.fu1_to_dl": [], "translate.dlr0_to_fu1": []}

    # -- counters taken from arguments and results, outside the span ------

    def _after(self, name: str, args, kwargs, result) -> None:
        if name == "syntax.parse_formula":
            self.chars += len(args[0] if args else kwargs["text"])
        elif name == "translate.to_dnf_block":
            self.disjuncts += len(result.disjuncts)
        elif name in self.outputs:
            self.outputs[name].append(result)
        elif name == "modelfind.find_model":
            prune = bool(kwargs.get("prune", args[3] if len(args) > 3 else False))
            self.nodes[prune] += result.nodes_examined
            self.found += result.found
        elif name == "semantics.satisfaction_set":
            self.elements += (args[0] if args else kwargs["s"]).size

    def _wrap(self, name: str, original):
        spans, stack, active, clock = self.spans, self.stack, self.active, time.perf_counter

        def traced(*args, **kwargs):
            if active[name]:
                return original(*args, **kwargs)
            active[name] = True
            sid = next(self.ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException as e:
                end = clock()
                if name == "cli.run" and not isinstance(e, SystemExit):
                    self.raised += 1
                raise
            else:
                end = clock()
                self._after(name, args, kwargs, result)
                return result
            finally:
                stack.pop()
                active[name] = False
                spans.append((sid, parent, self.op, name, start, end))

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "unifrag" or n.startswith("unifrag.")]
        for name in LAYERS:
            module, fn = name.split(".")
            original = getattr(sys.modules[f"unifrag.{module}"], fn)
            wrapper = self._wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self.patches.append((m, attr, original))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self.patches):
            setattr(m, attr, original)
        self.patches.clear()

    def run_op(self, op: int, fn):
        """Run one benchmark operation as the root span of its calls."""
        self.op = op
        sid = next(self.ids)
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans.append((sid, 0, op, "op", start, end))

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers; call after ``uninstall``."""
        from unifrag import dl, syntax

        covered: dict[int, float] = defaultdict(float)
        for sid, parent, _, _, start, end in self.spans:
            covered[parent] += end - start
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        total_s = dict.fromkeys(LAYERS, 0.0)
        for sid, _, _, name, start, end in self.spans:
            if name in calls:
                calls[name] += 1
                self_s[name] += end - start - covered[sid]
                total_s[name] += end - start
        out: dict[str, float] = {}
        for name in LAYERS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.total_s"] = total_s[name]

        def rate(count, seconds):
            return count / seconds if seconds else 0.0

        unpruned, pruned = self.nodes[False], self.nodes[True]
        out.update({
            "syntax.parse_formula.chars_per_s": rate(self.chars, total_s["syntax.parse_formula"]),
            "translate.fu1_to_dl.out_chars": sum(
                _printed_length(dl.print_concept, c) for c in self.outputs["translate.fu1_to_dl"]),
            "translate.dlr0_to_fu1.out_chars": sum(
                _printed_length(syntax.print_formula, f)
                for f in self.outputs["translate.dlr0_to_fu1"]),
            "translate.to_dnf_block.disjuncts": self.disjuncts,
            "modelfind.nodes": unpruned + pruned,
            "modelfind.us_per_node": rate(total_s["modelfind.find_model"] * 1e6,
                                          unpruned + pruned),
            "modelfind.found": self.found,
            "modelfind.prune_ratio": rate(pruned, unpruned),
            "semantics.satisfaction_set.elements_per_s":
                rate(self.elements, total_s["semantics.satisfaction_set"]),
            "cli.run.raised": self.raised,
        })
        return out

    def write(self, path: Path) -> None:
        """One JSON line per span, times relative to the first span."""
        origin = min((s[4] for s in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for sid, parent, op, name, start, end in sorted(self.spans, key=lambda s: s[4]):
                out.write(json.dumps([sid, parent, op, name, round(start - origin, 9),
                                      round(end - origin, 9)]) + "\n")
