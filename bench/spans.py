"""Span recorder for the traced run, driven entirely from the benchmark.

`Recorder.install` wraps each public function listed in TARGETS and rebinds
every `superfs.*` module attribute that refers to the original function
object. Modules such as `gauge` and `cli` import names directly
(`gauge.decompose_regular`, `cli.classify`), so patching only the defining
module would miss nested calls. Spans stay in memory until `dump`.
"""

from __future__ import annotations

import hashlib
import json
import sys
from time import perf_counter


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _order(index: int, name: str):
    """Sizer reading |G| from a Group, algebra or theory argument."""
    def sizer(args, kwargs, result):
        obj = _arg(args, kwargs, index, name)
        group = getattr(obj, "group", obj)
        return {"order": group.order}
    return sizer


def _result_order(args, kwargs, result):
    return {"order": result.order}


def _decompose(args, kwargs, result):
    algebra = _arg(args, kwargs, 0, "algebra")
    twist = algebra.twist
    key = hashlib.blake2b(digest_size=8)
    for part in (algebra.group.table, twist.phi, twist.alpha_num):
        key.update(part.tobytes())
    key.update(str(twist.denom).encode())
    return {"order": algebra.order, "irreps": len(result), "theory": key.hexdigest()}


def _surface_sizer(structures: bool):
    def sizer(args, kwargs, result):
        theory = _arg(args, kwargs, 0, "theory")
        surface = _arg(args, kwargs, 1, "surface")
        attrs = {"order": theory.group.order, "surface": str(surface), "b1": surface.b1}
        if structures:
            attrs["structures"] = len(result)
        return attrs
    return sizer


def _homs(args, kwargs, result):
    pres = _arg(args, kwargs, 0, "pres")
    group = _arg(args, kwargs, 1, "group")
    first = _arg(args, kwargs, 3, "first")
    m = pres.n_generators
    free = m - 1 if first is not None and m else m
    return {"order": group.order, "b1": m, "candidates": group.order ** free,
            "homs": int(result.shape[0])}


def _refinement(args, kwargs, result):
    return {"b1": len(_arg(args, kwargs, 0, "q").values)}


def _structures(args, kwargs, result):
    surface = _arg(args, kwargs, 0, "surface")
    return {"surface": str(surface), "b1": surface.b1, "structures": len(result)}


def _h2(args, kwargs, result):
    return {"order": _arg(args, kwargs, 0, "group").order, "classes": len(result)}


def _command(args, kwargs, result):
    argv = _arg(args, kwargs, 0, "argv") or ["?"]
    return {"command": argv[0]}


# (module, attribute, sizer); "Twist.from_fractions" is a classmethod.
TARGETS = [
    ("cli", "main", _command),
    ("groups", "group_from_table", _result_order),
    ("groups", "even_subgroup", _order(0, "group")),
    ("twists", "Twist.from_fractions", _result_order),
    ("twists", "validate_twist", _order(0, "group")),
    ("twists", "h2_representatives", _h2),
    ("superalg", "decompose_regular", _decompose),
    ("superalg", "assemble_supermodules", _order(1, "algebra")),
    ("superalg", "special_element", _order(0, "algebra")),
    ("superalg", "classify", _order(0, "algebra")),
    ("gauge", "enumerate_homs", _homs),
    ("gauge", "partition_lhs", _surface_sizer(False)),
    ("gauge", "partition_rhs", _surface_sizer(False)),
    ("gauge", "crosscheck", _surface_sizer(True)),
    ("surfaces", "arf", _refinement),
    ("surfaces", "abk", _refinement),
    ("surfaces", "enumerate_structures", _structures),
]

SPAN_FIELDS = ["name", "start", "end", "parent", "command", "attrs"]


class Recorder:
    """In-memory spans: [name, start, end, parent index, command id, attrs]."""

    def __init__(self):
        self.spans: list = []
        self.command = -1
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, name: str, fn, sizer):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.command, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            span[5] = sizer(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if (key == "superfs" or key.startswith("superfs.")) and m is not None]
        for module_name, attr, sizer in TARGETS:
            name = f"{module_name}.{attr}"
            module = sys.modules[f"superfs.{module_name}"]
            if attr == "Twist.from_fractions":
                cls = module.Twist
                original = cls.__dict__["from_fractions"]
                self._patches.append((cls, "from_fractions", original))
                setattr(cls, "from_fractions",
                        classmethod(self._wrap(name, original.__func__, sizer)))
                continue
            original = getattr(module, attr)
            traced = self._wrap(name, original, sizer)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, traced)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def self_times(self) -> list:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self) -> dict:
        """Per-layer counts and self times aggregated over all spans."""
        calls: dict = {name: 0 for name in (f"{m}.{a}" for m, a, _ in TARGETS)}
        self_s = dict.fromkeys(calls, 0.0)
        totals: dict = {}
        theories = set()
        for span, own in zip(self.spans, self.self_times()):
            name, attrs = span[0], span[5] or {}
            calls[name] += 1
            self_s[name] += own
            for key in ("order", "irreps", "classes", "candidates", "homs", "structures"):
                if key in attrs:
                    totals[(name, key)] = totals.get((name, key), 0) + attrs[key]
            if "theory" in attrs:
                theories.add(attrs["theory"])

        def total(name, key):
            return totals.get((name, key), 0)

        decomposed = calls["superalg.decompose_regular"]
        candidates = total("gauge.enumerate_homs", "candidates")
        out = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out.update({
            "superalg.decompose_regular.order_sum": total("superalg.decompose_regular", "order"),
            "superalg.decompose_regular.irreps": total("superalg.decompose_regular", "irreps"),
            "superalg.decompose_per_theory": decomposed / len(theories) if theories else 0.0,
            "twists.h2_representatives.classes": total("twists.h2_representatives", "classes"),
            "gauge.enumerate_homs.candidates": candidates,
            "gauge.enumerate_homs.homs": total("gauge.enumerate_homs", "homs"),
            "gauge.enumerate_homs.hit_ratio":
                total("gauge.enumerate_homs", "homs") / candidates if candidates else 0.0,
            "surfaces.enumerate_structures.structures":
                total("surfaces.enumerate_structures", "structures"),
        })
        return out

    def root_durations(self) -> dict:
        """Duration of each command's root span, keyed by command id."""
        return {cmd: end - start for name, start, end, parent, cmd, _ in self.spans
                if parent < 0}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans}, f)
            f.write("\n")
