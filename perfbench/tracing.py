"""Spans around the calls into seqlab's modules, recorded from outside.

install() replaces every public function and public method of the eight
layer modules with a wrapper that records a span (name, start, end, parent)
and rebinds each reference to the original that seqlab's modules hold, so
`from .numtheory import is_prime` and registry dicts see the wrapper too;
uninstall() puts the originals back. Spans live in flat arrays; metrics()
derives per-layer self time, call counts, bits and growth exponents from
them after the run, per traced round.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import math
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

LAYERS = ("numtheory", "seqcore", "generators", "maxorder", "adic", "measures", "relations", "cli")

OP = "bench.op"  # root span the harness opens around each operation


def _bind(ns, key, value) -> None:
    if isinstance(ns, dict):
        ns[key] = value
    else:
        setattr(ns, key, value)


def _length(obj) -> int:
    """Bits in a Word or in one period of a PeriodicSequence."""
    if hasattr(obj, "bits") and not callable(obj.bits):
        return len(obj)
    word = getattr(obj, "word", None)
    return len(word) if word is not None and hasattr(word, "bits") else 0


def _reports(obj) -> int:
    name = type(obj).__name__
    if name in ("VerificationReport", "ScanReport"):
        return 1
    return sum(type(r).__name__ == "VerificationReport" for r in obj) if isinstance(obj, list) else 0


# prefix bits fed to the 2-adic lattice, from each entry point's arguments
_ADIC_BITS = {
    "adic.adic_min": lambda args, res: args[1],
    "adic.adic_minima": lambda args, res: args[1][-1] if args[1] else 0,
    "adic.adic_profile": lambda args, res: len(args[0]),
}


def _sizer(name: str):
    layer = name.split(".", 1)[0]
    if name in _ADIC_BITS:
        return _ADIC_BITS[name]
    if layer == "generators":
        return lambda args, res: _length(res)
    if layer == "relations":
        return lambda args, res: _reports(res)
    return None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self.stack = [-1]
        self.op_label: dict[int, str] = {}
        self._op = self.wrap(lambda fn, *args: fn(*args), OP)
        self.plan = None

    def wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        sizer = _sizer(name)
        names, parent, start, end, size, stack = self.name, self.parent, self.start, self.end, self.size, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            size.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                res = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if sizer is not None:
                size[sid] = sizer(args, res)
            return res

        return traced

    def op(self, label: str, fn, *args):
        """Run one operation under a root span labelled for the metrics."""
        self.op_label[len(self.name)] = label
        return self._op(fn, *args)

    def install(self) -> None:
        if self.plan is None:
            self.plan = self._plan()
        for ns, key, _, new in self.plan:
            _bind(ns, key, new)

    def uninstall(self) -> None:
        for ns, key, old, _ in self.plan:
            _bind(ns, key, old)

    def _plan(self) -> list[tuple]:
        """(namespace, key, original, wrapper) for every binding to swap."""
        plan, wrapped = [], {}
        for layer in LAYERS:
            mod = importlib.import_module(f"seqlab.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self.wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    for mattr, m in vars(obj).items():
                        qual = f"{layer}.{obj.__name__}.{mattr}"
                        if mattr.startswith("_"):
                            continue
                        if inspect.isfunction(m):
                            plan.append((obj, mattr, m, self.wrap(m, qual)))
                        elif isinstance(m, classmethod):
                            plan.append((obj, mattr, m, classmethod(self.wrap(m.__func__, qual))))
        for modname, mod in sys.modules.items():
            if modname != "seqlab" and not modname.startswith("seqlab."):
                continue
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in wrapped:
                    plan.append((vars(mod), attr, obj, wrapped[obj]))
                elif isinstance(obj, dict):  # registries such as relations.CLAIMS
                    plan += [(obj, k, v, wrapped[v]) for k, v in obj.items() if inspect.isfunction(v) and v in wrapped]
        return plan

    # -----------------------------------------------------------------------

    def metrics(self, doubling: dict, rounds: int, out_bytes: float, run_s: float, untraced_s: float):
        """Per-layer metrics, as means over the traced rounds."""
        n = len(self.name)
        layer_of = [nm.split(".", 1)[0] for nm in self.names]
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        root = list(range(n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                root[i] = root[p]
        self_by_name = defaultdict(float)
        calls_by_name = defaultdict(int)
        size_by_name = defaultdict(int)
        self_by_op_layer = defaultdict(float)
        outer_gen_s = 0.0
        outer_size = defaultdict(int)
        for i in range(n):
            nid = self.name[i]
            own = dur[i] - child[i]
            self_by_name[nid] += own
            calls_by_name[nid] += 1
            size_by_name[nid] += self.size[i]
            layer = layer_of[nid]
            self_by_op_layer[self.op_label.get(root[i]), layer] += own
            p = self.parent[i]
            if p < 0 or layer_of[self.name[p]] != layer:
                outer_size[layer] += self.size[i]
                if layer == "generators":
                    outer_gen_s += dur[i]
        by = {nm: nid for nid, nm in enumerate(self.names)}

        def named(*names, table=self_by_name):
            return sum(table[by[nm]] for nm in names if nm in by) / rounds

        def layer_sum(layer, table=self_by_name):
            return sum(v for nid, v in table.items() if layer_of[nid] == layer) / rounds

        def growth(name):
            if name not in doubling:
                return 0.0
            layer, pairs = doubling[name]
            small = sum(self_by_op_layer[a, layer] for a, _ in pairs)
            big = sum(self_by_op_layer[b, layer] for _, b in pairs)
            return math.log2(big / small) if small > 0 and big > 0 else 0.0

        m = {f"{layer}.self_s": (layer_sum(layer), "s") for layer in LAYERS}
        m.update({
            "adic.minima_s": (named("adic.adic_minima"), "s"),
            "adic.profile_s": (named("adic.adic_profile"), "s"),
            "adic.min_s": (named("adic.adic_min"), "s"),
            "adic.connection_s": (named("adic.connection"), "s"),
            "adic.bits": (named(*_ADIC_BITS, table=size_by_name), "bits"),
            "adic.growth_exp": (growth("adic.growth_exp"), "exponent"),
            "maxorder.moc_s": (named("maxorder.moc"), "s"),
            "maxorder.profile_s": (named("maxorder.moc_profile"), "s"),
            "maxorder.coset_s": (named("maxorder.moc_from_coset", "maxorder.coset"), "s"),
            "maxorder.calls": (layer_sum("maxorder", calls_by_name), "count"),
            "maxorder.growth_exp": (growth("maxorder.growth_exp"), "exponent"),
            "measures.linear_s": (named("measures.linear_profile", "measures.linear_complexity_periodic"), "s"),
            "measures.correlation_s": (named("measures.correlation2", "measures.correlation_k"), "s"),
            "measures.expansion_s": (named("measures.expansion_complexity"), "s"),
            "measures.correlation_growth_exp": (growth("measures.correlation_growth_exp"), "exponent"),
            "generators.bits_per_s": (outer_size["generators"] / outer_gen_s if outer_gen_s else 0.0, "bits/s"),
            "numtheory.is_prime_calls": (named("numtheory.is_prime", table=calls_by_name), "count"),
            "relations.reports": (outer_size["relations"] / rounds, "count"),
            "cli.out_bytes": (out_bytes, "bytes"),
            "bench.self_s": (named(OP), "s"),
            "trace.run_s": (run_s, "s"),
            "trace.overhead_s": (run_s - untraced_s, "s"),
        })
        self.summary = {
            nm: {"calls": calls_by_name[nid], "self_s": self_by_name[nid], "size": size_by_name[nid]}
            for nid, nm in enumerate(self.names) if calls_by_name[nid]
        }
        return m

    def write(self, stem: Path, metrics: dict) -> None:
        """Spans as gzip CSV, per-function totals and metrics as JSON."""
        with gzip.open(stem.with_suffix(".spans.csv.gz"), "wt", compresslevel=1) as f:
            f.write("span,name,parent,start_s,end_s,size\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.name)):
                f.write(f"{i},{self.names[self.name[i]]},{self.parent[i]},"
                        f"{self.start[i] - t0:.7f},{self.end[i] - t0:.7f},{self.size[i]}\n")
        payload = {"metrics": {k: v for k, (v, _) in metrics.items()}, "functions": self.summary,
                   "ops": {str(k): v for k, v in self.op_label.items()}}
        stem.with_suffix(".json").write_text(json.dumps(payload, indent=1, sort_keys=True))
