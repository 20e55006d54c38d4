"""Per-layer tracing from outside the package.

A ``Tracer`` wraps the public functions of each freenil2 module and records,
per wrapped name, the call count, the total time of its spans and their self
time (a span's duration minus the part covered by the spans it encloses).
Spans are aggregated as they close, not stored: ``Element.__mul__`` alone
runs millions of times in a traced run.

Rebinding pitfall: a module that did ``from .zlinalg import
inverse_unimodular`` holds its own reference to the function, so patching
``zlinalg.inverse_unimodular`` alone misses every call made through that
copy.  ``install`` therefore replaces every binding of the original object
in every loaded freenil2 module, and ``uninstall`` restores each one.
Methods are patched on their class, which is a single binding even where
the class itself was imported by name.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (metric label, module, attribute path, kind); "span" records time,
# "count" only counts calls.
TARGETS = [
    ("nilcore.mul", "nilcore", "Element.__mul__", "span"),
    ("nilcore.pow", "nilcore", "Element.__pow__", "span"),
    ("nilcore.inverse", "nilcore", "Element.inverse", "span"),
    ("nilcore.element_inits", "nilcore", "Element.__init__", "count"),
    ("autgroup.apply", "autgroup", "apply", "span"),
    ("autgroup.compose", "autgroup", "compose", "span"),
    ("autgroup.invert", "autgroup", "invert", "span"),
    ("autgroup.inner_witness", "autgroup", "inner_witness", "span"),
    ("autgroup.conjugation", "autgroup", "conjugation", "span"),
    ("autgroup.automorphism_inits", "autgroup", "Automorphism.__init__", "count"),
    ("zlinalg.is_unimodular_matrix", "zlinalg", "is_unimodular_matrix", "span"),
    ("zlinalg.inverse_unimodular", "zlinalg", "inverse_unimodular", "span"),
    ("zlinalg.smith_decompose", "zlinalg", "smith_decompose", "span"),
    ("zlinalg.kernel_summand_basis", "zlinalg", "kernel_summand_basis", "span"),
    ("zlinalg.direct_complement", "zlinalg", "direct_complement", "span"),
    ("involutions.canonicalize_involution", "involutions", "canonicalize_involution", "span"),
    ("involutions.commuting_decomposition", "involutions", "commuting_decomposition", "span"),
    ("involutions.sqrt_of_involution", "involutions", "sqrt_of_involution", "span"),
    ("involutions.three_conjugates_probe", "involutions", "three_conjugates_probe", "span"),
    ("iastruct.stabilizer_split", "iastruct", "stabilizer_split", "span"),
    ("iastruct.decode_triplet", "iastruct", "decode_triplet", "span"),
    ("iastruct.inversion_criterion_check", "iastruct", "inversion_criterion_check", "span"),
    ("wordlang.format_element", "wordlang", "format_element", "span"),
    ("wordlang.format_automorphism", "wordlang", "format_automorphism", "span"),
    ("cli.main", "cli", "main", "span"),
]

# Metrics each traced run reports: per-round calls and self seconds.
CALLS_AND_SELF = [
    "nilcore.mul", "nilcore.pow", "nilcore.inverse",
    "autgroup.apply", "autgroup.compose", "autgroup.invert",
    "autgroup.inner_witness", "autgroup.conjugation",
    "zlinalg.is_unimodular_matrix", "zlinalg.inverse_unimodular",
    "zlinalg.smith_decompose", "zlinalg.kernel_summand_basis", "zlinalg.direct_complement",
    "involutions.canonicalize_involution", "involutions.commuting_decomposition",
    "involutions.sqrt_of_involution", "involutions.three_conjugates_probe",
]
SELF_ONLY = [
    "iastruct.stabilizer_split", "iastruct.decode_triplet",
    "iastruct.inversion_criterion_check",
    "wordlang.format_element", "wordlang.format_automorphism", "cli.main",
]
COUNTS = ["nilcore.element_inits", "autgroup.automorphism_inits"]

# Which end-to-end metric, on which workload, each layer should move.
MOVES = {
    "nilcore": "round_ref on aut-reuse-r8 and verify-suite",
    "autgroup": "round_ref and op_p90_ref on aut-reuse-r8, aut-churn-r6 and verify-suite",
    "zlinalg": "round_ref on lattice-r8 and aut-churn-r6",
    "involutions": "round_ref on lattice-r8",
    "iastruct": "round_ref on verify-suite",
    "wordlang": "round_ref on verify-suite",
    "cli": "round_ref on verify-suite",
    "verify": "round_ref on verify-suite",
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "freenil2" or name.startswith("freenil2."))]


class Tracer:
    """Aggregated spans around freenil2's public functions."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # label -> [calls, total_s, self_s]
        self._stack: list[float] = []     # time covered by children, per open span
        self._patches: list[tuple[object, str, object]] = []

    def span(self, label: str, fn):
        stat = self.stats.setdefault(label, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                covered = stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - covered
                if stack:
                    stack[-1] += dt

        return traced

    def counter(self, label: str, fn):
        stat = self.stats.setdefault(label, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, extra=()) -> None:
        """Wrap every target, rebinding each module-level copy of a wrapped
        function.  ``extra`` lists (label, mapping, key) spans to place on
        dictionary entries, such as the verify suite's check table."""
        targets = [(label, importlib.import_module(f"freenil2.{module_name}"), path, kind)
                   for label, module_name, path, kind in TARGETS]
        modules = _package_modules()
        for label, module, path, kind in targets:
            wrap = self.span if kind == "span" else self.counter
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, attr, wrap(label, cls.__dict__[attr]))
                continue
            original = getattr(module, path)
            wrapper = wrap(label, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)
        for label, mapping, key in extra:
            self._patches.append((mapping, key, mapping[key]))
            mapping[key] = self.span(label, mapping[key])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def metrics(self, rounds: int, check_names) -> dict:
        """Per-round figures for every per-layer metric; ``check_names`` are
        the verify suite's checks, traced under the label ``verify.<name>``."""
        def stat(label):
            return self.stats.get(label, [0, 0.0, 0.0])

        out = {}
        for label in CALLS_AND_SELF:
            calls, _, self_s = stat(label)
            out[f"{label}_calls"] = (calls / rounds, "count")
            out[f"{label}_self_s"] = (self_s / rounds, "s")
        for label in SELF_ONLY:
            out[f"{label}_self_s"] = (stat(label)[2] / rounds, "s")
        for label in COUNTS:
            out[label] = (stat(label)[0] / rounds, "count")
        applies = stat("autgroup.apply")[0]
        out["nilcore.mul_per_apply"] = (
            stat("nilcore.mul")[0] / applies if applies else 0.0, "ratio")
        for name in check_names:
            out[f"verify.{name}_s"] = (stat(f"verify.{name}")[1] / rounds, "s")
        return out
