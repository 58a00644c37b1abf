"""Spans around the calls into projlab's layers, recorded from outside the
package.

``Tracer.install`` wraps each listed public function and binds the wrapper
in place of the original in every loaded ``projlab`` module that holds it
(``covering_number``, say, is imported separately by ``cli``,
``incidence``, ``product_construction`` and ``scale_blowup``), so calls
between modules are spanned too.  ``uninstall`` restores the originals.
Spans are kept in memory as (pass, name, start, end, parent) and turned
into per-layer self times and work counts by ``Tracer.layers``.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import defaultdict
from time import perf_counter

# every public read_* / write_* function of serialize shares one span name
READ = "serialize.read"
WRITE = "serialize.write"
CLI = "cli"  # cli.main, the top-level span of each pipeline step

# The per-layer metrics reported per span name, "<span name>.<suffix>", and
# the unit of each suffix.  Every span name has a self_s, so the self times
# plus the unspanned remainder add up to the traced pass time.
LAYERS = {
    "delta_core.covering_number": ("calls", "self_s", "values"),
    "delta_core.project": ("calls", "self_s"),
    "incidence.close_pairs": ("calls", "self_s"),
    "incidence.kaufman_witness": ("calls", "self_s"),
    "delta_core.check_delta_t": ("calls", "self_s", "pairs"),
    "delta_core.extract_delta_s_subset": ("calls", "self_s"),
    "scale_blowup.frostman_weights": ("self_s",),
    "scale_blowup.two_scale_decomposition": ("self_s",),
    "generators.gen_random_frostman": ("self_s", "attempts"),
    "generators.gen_planted_collinear": ("self_s",),
    "product_construction.PairTubeIndex": ("self_s", "pairs"),
    "product_construction.PairTubeIndex.family": ("calls", "self_s", "hit_ratio"),
    "product_construction.good_triple_scan": ("self_s",),
    "product_construction.product_experiment": ("calls", "self_s"),
    "additive.sumset": ("calls", "self_s", "pair_sums", "distinct_ratio"),
    "additive.plunnecke_report": ("self_s",),
    "additive.bsg_extract": ("self_s",),
    READ: ("self_s", "bytes"),
    WRITE: ("self_s", "bytes"),
    "verify.run_verify": ("self_s",),
    CLI: ("self_s",),
}
# spans on methods, wrapped on the class: span name -> method
METHODS = {
    "product_construction.PairTubeIndex": "__init__",
    "product_construction.PairTubeIndex.family": "family",
}
# every other "<module>.<function>" span wraps that module-level function
FUNCTIONS = [name for name in LAYERS if name not in METHODS and name not in (READ, WRITE, CLI)]
UNITS = {"calls": "count", "self_s": "s", "values": "count", "pairs": "count",
         "attempts": "count", "pair_sums": "count", "hit_ratio": "ratio",
         "distinct_ratio": "ratio", "bytes": "bytes"}
# ratio metric -> (numerator counter, denominator counter)
RATIOS = {"hit_ratio": ("members", "scanned"), "distinct_ratio": ("distinct", "pair_sums")}


def _bytes_written(path) -> int:
    if os.path.isdir(path):
        return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())
    return os.path.getsize(path)


class Tracer:
    """Records spans and work counts while installed."""

    def __init__(self):
        self.spans = []  # [pass, name, start, end, parent index or -1]
        self.counts = defaultdict(float)  # "<span name>.<counter>" -> total
        self.pass_id = 0
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    # -- recording -------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span; returns (result, span duration)."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [self.pass_id, name, 0.0, 0.0, parent]
        self.spans.append(span)
        self._stack.append(idx)
        span[2] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = perf_counter()
            self._stack.pop()
        self._count(name, parent, args, result)
        return result, span[3] - span[2]

    def _count(self, name, parent, args, result):
        c = self.counts
        if name == "delta_core.covering_number":
            c[name + ".values"] += len(args[0])
        elif name == "delta_core.check_delta_t":
            c[name + ".pairs"] += len(args[0]) ** 2
        elif name == "additive.sumset":
            c[name + ".pair_sums"] += len(args[0]) * len(args[1])
            c[name + ".distinct"] += len(result)
        elif name == "product_construction.PairTubeIndex":
            c[name + ".pairs"] += len(args[0].pair_tube)
        elif name == "product_construction.PairTubeIndex.family":
            c[name + ".members"] += len(result)
            c[name + ".scanned"] += len(args[0].pair_tube)
        elif name == READ:
            c[name + ".bytes"] += os.path.getsize(args[0])
        elif name == WRITE and (parent < 0 or self.spans[parent][1] != WRITE):
            # write_two_scale writes through write_points: count the outer call
            c[name + ".bytes"] += _bytes_written(args[0])

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)[0]

        return traced

    # -- installation ----------------------------------------------------

    def install(self):
        mods = [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == "projlab" or k.startswith("projlab."))]
        serialize = sys.modules["projlab.serialize"]
        targets = [(name, getattr(sys.modules[f"projlab.{mod}"], attr))
                   for name in FUNCTIONS for mod, attr in [name.split(".")]]
        targets += [(READ if attr.startswith("read_") else WRITE, fn)
                    for attr, fn in vars(serialize).items()
                    if attr.startswith(("read_", "write_")) and callable(fn)]
        for name, fn in targets:
            traced = self._wrap(name, fn)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, attr, fn))
                        setattr(mod, attr, traced)
        for name, attr in METHODS.items():
            mod, cls_name = name.split(".")[:2]
            cls = getattr(sys.modules[f"projlab.{mod}"], cls_name)
            fn = cls.__dict__[attr]
            self._patches.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(name, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- analysis --------------------------------------------------------

    def layers(self, passes: int) -> dict:
        """Per-pass self time and calls of every span name, plus the derived
        counters, averaged over ``passes`` traced passes."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        attempts = 0
        for i, (_, name, start, end, parent) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
            if (name == "delta_core.check_delta_t" and parent >= 0
                    and self.spans[parent][1] == "generators.gen_random_frostman"):
                attempts += 1
        out = {}
        for name in self_s:
            out[f"{name}.self_s"] = self_s[name] / passes
            out[f"{name}.calls"] = calls[name] / passes
        for key, total in self.counts.items():
            out[key] = total / passes
        out["generators.gen_random_frostman.attempts"] = attempts / passes
        return out

    def top_level_s(self) -> float:
        """Summed duration of the spans that have no parent."""
        return sum(end - start for _, _, start, end, parent in self.spans if parent < 0)
