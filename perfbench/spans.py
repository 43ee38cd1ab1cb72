"""Spans and counts around the public functions of each quadrings layer.

`Tracer.install` wraps each public function named below and rebinds the
wrapper under every name that refers to the original in every quadrings
module, so calls made inside the package through module globals are seen
too.  Methods are wrapped on their class.  A span records name, start, end,
parent span and op id; spans stay in memory until `metrics` runs.  Functions
called millions of times are counted, not spanned.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

# Layer -> (module, qualified name) of each spanned function.
SPANNED = {
    "rings": [
        ("rings", "Ring.units"), ("rings", "Ring.is_unit"), ("rings", "IntegerRing.is_unit"),
        ("rings", "Ring.inverse_of_unit"), ("rings", "IntegerRing.inverse_of_unit"),
        ("rings", "Ring.is_nonzerodivisor"), ("rings", "IntegerRing.is_nonzerodivisor"),
        ("rings", "Ring.in_principal_ideal"), ("rings", "IntegerRing.in_principal_ideal"),
        ("rings", "ModRing.elements"), ("rings", "QuotientPolyRing.elements"),
        ("rings", "parse_ring"),
    ],
    "quadratic": [
        ("quadratic", "classify"), ("quadratic", "quad_monoid"),
        ("quadratic", "is_isomorphic"), ("quadratic", "basis_change_group"),
        ("quadratic", "star_product"), ("quadratic", "integer_algebra_for_disc"),
        ("quadratic", "separable_square_check"),
    ],
    "discriminants": [
        ("discriminants", "disc_classes"), ("discriminants", "DiscClassification.__init__"),
        ("discriminants", "disc_class_of"), ("discriminants", "disc_hom_check"),
        ("discriminants", "is_discriminant"),
    ],
    "artin_schreier": [
        ("artin_schreier", "as_group"), ("artin_schreier", "ASGroup.__init__"),
        ("artin_schreier", "fiber_report"), ("artin_schreier", "check_freeness"),
        ("artin_schreier", "is_sec_element"), ("artin_schreier", "is_sec_algebra"),
        ("artin_schreier", "as_act"), ("artin_schreier", "four_torsion"),
        ("artin_schreier", "wp4_subgroup"), ("artin_schreier", "annihilator_four_torsion"),
    ],
    "monoids": [
        ("monoids", "validate_monoid"), ("monoids", "require_valid_monoid"),
        ("monoids", "grothendieck_group"), ("monoids", "find_absorbing"),
    ],
    "identities": [
        ("identities", "verify_all"), ("identities", "verify_named_identity"),
    ],
    "cli": [("cli", "main")],
}

# Counted only: (module, qualified name) -> counter name.
COUNTED = {
    ("rings", "RingElement.__mul__"): "rings.mul_calls",
    ("rings", "RingElement.__rmul__"): "rings.mul_calls",
    ("quadratic", "apply_basis_change"): "quadratic.basis_changes",
}

SCANS = {"Ring.units", "Ring.is_unit", "IntegerRing.is_unit", "Ring.inverse_of_unit",
         "IntegerRing.inverse_of_unit", "Ring.is_nonzerodivisor",
         "IntegerRing.is_nonzerodivisor", "Ring.in_principal_ideal",
         "IntegerRing.in_principal_ideal", "ModRing.elements", "QuotientPolyRing.elements"}

# Per-layer time metric -> the spans it covers.  A span nested in another
# span of the same group is not counted twice.
TIME_GROUPS = {
    "rings.scan_s": SCANS,
    "quadratic.classify_s": {"classify"},
    "quadratic.is_isomorphic_s": {"is_isomorphic"},
    "quadratic.quad_monoid_s": {"quad_monoid"},
    "discriminants.disc_classes_s": {"disc_classes", "DiscClassification.__init__"},
    "discriminants.disc_hom_check_s": {"disc_hom_check"},
    "artin_schreier.fiber_report_s": {"fiber_report"},
    "artin_schreier.as_group_s": {"as_group", "ASGroup.__init__"},
    "artin_schreier.sec_s": {"is_sec_element", "is_sec_algebra"},
    "artin_schreier.check_freeness_s": {"check_freeness"},
    "monoids.validate_s": {"validate_monoid", "require_valid_monoid"},
    "monoids.grothendieck_s": {"grothendieck_group"},
    "identities.verify_s": {"verify_all", "verify_named_identity"},
    "cli.main_s": {"main"},
}

LAYER_OF = {name: layer for layer, items in SPANNED.items() for _, name in items}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.op_id = -1
        self.boxes: dict[str, list[int]] = {}
        self.classify_pairs = 0       # sum of |R|^2 over classify calls
        self.classify_apps = 0        # basis changes applied inside them
        self._undo: list[tuple[object, str, object]] = []

    # -- recording

    def _nid(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.span_name.append(self._nid(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def span(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
        return wrapper

    def counted(self, name: str, fn):
        box = self.boxes.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args):
            box[0] += 1
            return fn(*args)
        return wrapper

    def _classify(self, fn):
        """classify also records |R|^2 and the basis changes it applied."""
        tracer = self
        apps = self.boxes.setdefault("quadratic.basis_changes", [0])

        @functools.wraps(fn)
        def wrapper(ring, *args, **kwargs):
            outer = tracer.classify_depth == 0
            before = apps[0]
            tracer.classify_depth += 1
            try:
                return fn(ring, *args, **kwargs)
            finally:
                tracer.classify_depth -= 1
                if outer:
                    tracer.classify_pairs += ring.size ** 2
                    tracer.classify_apps += apps[0] - before
        return wrapper

    # -- installing

    def install(self, package) -> None:
        self.classify_depth = 0
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == package.__name__ or n.startswith(package.__name__ + "."))]
        for items in SPANNED.values():
            for mod, qual in items:
                self._rebind(modules, package, mod, qual,
                             lambda fn, qual=qual: self._wrap_span(qual, fn))
        for (mod, qual), counter in COUNTED.items():
            self._rebind(modules, package, mod, qual,
                         lambda fn, counter=counter: self.counted(counter, fn))

    def _wrap_span(self, qual, fn):
        wrapped = self.span(qual, fn)
        return self._classify(wrapped) if qual == "classify" else wrapped

    def _rebind(self, modules, package, mod, qual, make) -> None:
        home = sys.modules[f"{package.__name__}.{mod}"]
        if "." in qual:
            cls_name, attr = qual.split(".")
            cls = getattr(home, cls_name)
            orig = cls.__dict__[attr]
            self._undo.append((cls, attr, orig))
            setattr(cls, attr, make(orig))
            return
        orig = getattr(home, qual)
        wrapper = make(orig)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    self._undo.append((m, key, orig))
                    setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._undo):
            setattr(target, attr, orig)
        self._undo.clear()

    # -- aggregating

    def metrics(self) -> dict[str, float]:
        n = len(self.start)
        names = self.names
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        groups = list(TIME_GROUPS)
        bits_of_name = [sum(1 << g for g, k in enumerate(groups) if nm in TIME_GROUPS[k])
                        for nm in names]
        mask = [0] * n
        incl = [0.0] * len(groups)
        self_time = Counter()
        span_count = Counter()
        for i in range(n):
            p = self.parent[i]
            above = mask[p] if p >= 0 else 0
            nid = self.span_name[i]
            bits = bits_of_name[nid]
            mask[i] = above | bits
            fresh = bits & ~above
            g = 0
            while fresh:
                if fresh & 1:
                    incl[g] += dur[i]
                fresh >>= 1
                g += 1
            self_time[LAYER_OF[names[nid]]] += dur[i] - child[i]
            span_count[names[nid]] += 1
        out = {k: incl[g] for g, k in enumerate(groups)}
        out["rings.scan_calls"] = sum(span_count[s] for s in SCANS)
        for counter in set(COUNTED.values()):
            out[counter] = self.boxes.get(counter, [0])[0]
        out["quadratic.pairs_per_basis_change"] = (
            self.classify_pairs / self.classify_apps if self.classify_apps else 0.0)
        out["discriminants.disc_classifications_built"] = span_count["DiscClassification.__init__"]
        for layer in SPANNED:
            out[f"{layer}.self_s"] = self_time[layer]
        out["trace.spans"] = n
        return out

    def call_counts(self) -> dict[str, int]:
        """Calls per spanned or counted name: the deterministic op counts."""
        counts = Counter(self.names[i] for i in self.span_name)
        for name, box in self.boxes.items():
            counts[name] = box[0]
        return dict(sorted(counts.items()))
