"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the ``psicert`` modules from outside
the package.  A module that did ``from .tensors import magnus_expand`` holds
its own binding of the function, so rebinding the name only in its home
module would miss those callers.  ``install`` therefore rebinds every name,
in every loaded ``psicert.*`` module, that refers to the same object, and
``restore`` puts each original object back.  Two methods are wrapped on
their classes instead: ``TruncatedTensor.__post_init__`` (tensor
validation) and ``CertificationReport.to_json``.

A span is ``(name, start, end, parent index, case id)``; spans stay in a
list in memory and are written out when the run ends.  Size counters are
taken from the arguments and results at the same boundaries.
"""
from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time


def _max_bits(values) -> int:
    return max((abs(v).bit_length() for v in values), default=0)


def _cochain_support(rec, args, result):
    rec.add("johnson.cochain.support", sum(len(img.terms) for img in result.images))


def _magnus(rec, args, result):
    rec.add("tensors.magnus_expand.letters_in", len(args[0].letters))
    rec.add("tensors.magnus_expand.terms_out", len(result.terms))


def _psi(rec, args, result):
    rec.peak("contract.psi.dim", result.dimension)
    rec.peak("contract.psi.max_bits", _max_bits(x for row in result.rows for x in row))


def _factor_z(rec, args, result):
    rec.add("polylab.factors.count", len(result.factors))
    rec.add("polylab.factor_z.certified", len(result.certificates))


# (module, attribute, span name, counter or None); "Class.method" wraps on the class
TARGETS = (
    ("psicert.jobs", "parse_job", "jobs.parse_job", None),
    ("psicert.jobs", "build_endomorphism", "jobs.build_endomorphism", None),
    ("psicert.jobs", "run_job", "jobs.run_job", None),
    ("psicert.jobs", "CertificationReport.to_json", "jobs.to_json",
     lambda rec, args, result: rec.add("jobs.report_bytes", len(result.encode()))),
    ("psicert.words", "apply_endo", "words.apply_endo",
     lambda rec, args, result: rec.peak("words.image_letters.max", len(result.letters))),
    ("psicert.words", "compose_endos", "words.compose_endos", None),
    ("psicert.tensors", "magnus_expand", "tensors.magnus_expand", _magnus),
    ("psicert.tensors", "dynkin_is_lie", "tensors.dynkin_is_lie",
     lambda rec, args, result: rec.add("tensors.dynkin_is_lie.terms_in", len(args[0].terms))),
    ("psicert.tensors", "TruncatedTensor.__post_init__", "tensors.validate", None),
    ("psicert.johnson", "filtration_depth", "johnson.filtration_depth", None),
    ("psicert.johnson", "tau_on_H", "johnson.tau_on_H", _cochain_support),
    ("psicert.johnson", "tau_squared", "johnson.tau_squared", _cochain_support),
    ("psicert.johnson", "derivation_apply", "johnson.derivation_apply",
     lambda rec, args, result: rec.add("johnson.derivation_apply.terms_out", len(result.terms))),
    ("psicert.johnson", "cochain_from_wedge3", "johnson.cochain_from_wedge3", _cochain_support),
    ("psicert.contract", "psi_matrix", "contract.psi_matrix", _psi),
    ("psicert.contract", "phi_contract", "contract.phi_contract",
     lambda rec, args, result: rec.add("contract.phi_contract.terms_in", len(args[0].terms))),
    ("psicert.homology", "conjugate", "homology.conjugate", None),
    ("psicert.homology", "sp_check", "homology.sp_check", None),
    ("psicert.homology", "char_coeffs", "homology.char_coeffs",
     lambda rec, args, result: rec.peak("homology.char_coeffs.dim", args[0].dimension)),
    ("psicert.polylab", "charpoly", "polylab.charpoly",
     lambda rec, args, result: rec.peak("polylab.charpoly.max_bits", _max_bits(result.coeffs))),
    ("psicert.polylab", "criterion", "polylab.criterion", None),
    ("psicert.polylab", "factor_z", "polylab.factor_z", _factor_z),
    ("psicert.polylab", "squarefree_decomposition", "polylab.squarefree_decomposition", None),
    ("psicert.polylab", "irreducible_mod_p", "polylab.irreducible_mod_p", None),
    ("psicert.polylab", "find_certificate", "polylab.find_certificate", None),
)

# metric suffixes read from the spans, per span name
SPAN_METRICS = {
    "jobs.parse_job": ("self_s",),
    "jobs.build_endomorphism": ("self_s",),
    "jobs.to_json": ("self_s",),
    "words.apply_endo": ("calls", "self_s"),
    "words.compose_endos": ("self_s",),
    "tensors.magnus_expand": ("calls", "self_s"),
    "tensors.dynkin_is_lie": ("calls", "self_s"),
    "tensors.validate": ("calls", "self_s"),
    "johnson.filtration_depth": ("self_s",),
    "johnson.tau_on_H": ("self_s",),
    "johnson.tau_squared": ("self_s",),
    "johnson.derivation_apply": ("calls", "self_s"),
    "johnson.cochain_from_wedge3": ("self_s",),
    "contract.psi_matrix": ("self_s",),
    "contract.phi_contract": ("calls", "self_s"),
    "homology.conjugate": ("self_s",),
    "homology.sp_check": ("self_s",),
    "homology.char_coeffs": ("self_s",),
    "polylab.factor_z": ("calls", "self_s"),
    "polylab.squarefree_decomposition": ("self_s",),
    "polylab.irreducible_mod_p": ("calls", "self_s"),
    "polylab.find_certificate": ("calls", "self_s"),
    "polylab.criterion": ("self_s",),
}

COUNTERS = ("jobs.report_bytes", "words.image_letters.max", "tensors.magnus_expand.letters_in",
            "tensors.magnus_expand.terms_out", "tensors.dynkin_is_lie.terms_in",
            "johnson.derivation_apply.terms_out", "johnson.cochain.support",
            "contract.phi_contract.terms_in", "contract.psi.dim", "contract.psi.max_bits",
            "homology.char_coeffs.dim", "polylab.charpoly.max_bits", "polylab.factors.count")


class Recorder:
    """Spans and counters of one traced run; use as a context manager."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict[str, int] = {}
        self.case = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # ---- counters ------------------------------------------------------
    def add(self, name: str, value: int):
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: int):
        self.counters[name] = max(self.counters.get(name, 0), value)

    # ---- spans ---------------------------------------------------------
    def span(self, name: str, fn, counter=None):
        """Return `fn` wrapped so that each call records one span."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.case)
            if counter is not None:
                counter(self, args, result)
            return result

        return wrapper

    # ---- installation ----------------------------------------------------
    def install(self):
        if self._restore:
            raise RuntimeError("recorder already installed")
        try:
            for module_name, attr, name, counter in TARGETS:
                self._wrap(importlib.import_module(module_name), attr, name, counter)
        except BaseException:
            self.restore()
            raise
        return self

    def _wrap(self, module, attr: str, name: str, counter):
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            self._restore.append((cls, method, original))
            setattr(cls, method, self.span(name, original, counter))
            return
        original = getattr(module, attr)
        wrapper = self.span(name, original, counter)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "psicert" and not mod_name.startswith("psicert."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def restore(self):
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    # ---- results ---------------------------------------------------------
    def self_times(self, first: int = 0, last: int | None = None) -> dict[str, list[float]]:
        """Per span name: [self seconds, calls] over spans[first:last]."""
        spans = self.spans[first:last]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= first:
                child[parent - first] += end - start
        out: dict[str, list[float]] = {}
        for (name, start, end, _, _), covered in zip(spans, child):
            entry = out.setdefault(name, [0.0, 0])
            entry[0] += end - start - covered
            entry[1] += 1
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def layer_metrics(recorder: Recorder, windows, counters, overhead_ratio: float) -> dict:
    """Per-layer metrics, each the median over traced passes.

    `windows` holds one (first span, end span) pair per traced pass and
    `counters` one counter dict per traced pass.
    """
    per_pass = [recorder.self_times(a, b) for a, b in windows]
    metrics = {}
    for name, kinds in SPAN_METRICS.items():
        for kind in kinds:
            values = [p.get(name, [0.0, 0])[0 if kind == "self_s" else 1] for p in per_pass]
            unit = "s" if kind == "self_s" else "count"
            metrics[f"{name}.{kind}"] = {"value": statistics.median(values), "unit": unit}
    for name in COUNTERS:
        values = [c.get(name, 0) for c in counters]
        unit = "bytes" if name == "jobs.report_bytes" else ("bits" if name.endswith("bits") else "count")
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    ratios = [c.get("polylab.factor_z.certified", 0) / c["polylab.factors.count"]
              if c.get("polylab.factors.count") else 0.0 for c in counters]
    metrics["polylab.fast_path_ratio"] = {"value": statistics.median(ratios), "unit": "ratio"}
    metrics["trace.overhead_ratio"] = {"value": overhead_ratio, "unit": "ratio"}
    return metrics
