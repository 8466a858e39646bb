"""Per-layer tracing from outside the library.

`Tracer.install` replaces the public functions of the seven geproci
modules, in every module namespace that binds them, with wrappers that
record a span (name, start, end, parent, job).  Element-level hot
methods get an aggregated call counter instead of spans.  `metrics`
turns the spans into the per-layer metrics named in BENCHMARK.json.
"""
from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict

MODULES = ("fields", "projgeom", "multipoly", "spreads", "core", "fatpoints", "cli")

# Layer boundaries that get a span.  Hot helpers called from inside these
# (scalar_is_zero, evaluate, line_through, ...) are left unwrapped: their
# time is the self time of the span that calls them.
SPANS = {
    "fields": ["extend_field", "smallest_irreducible", "make_field", "parse_field_spec",
               "mp_gcd", "mp_gcd_list"],
    "projgeom": ["matrix_rank", "all_lines", "collinear_subsets",
                 "enumerate_projective_space", "is_coplanar", "read_point_set"],
    "multipoly": ["kernel_of_conditions", "coprime_certificate", "hilbert_value",
                  "point_evaluation_matrix"],
    "spreads": ["search_maximal_partial_spreads", "spread_fingerprint",
                "partition_into_lines", "build_regular_spread", "verify_spread",
                "complement_points", "read_spread"],
    "core": ["GeneralPoint.random", "GeneralPoint.generic", "project", "interpolate_curve",
             "certify_complete_intersection", "geproci_check", "unexpected_cone_dim",
             "frobenius_cone", "frobenius_membership_check", "cone_line_transversality",
             "classify", "skew_line_cover", "line_product_candidates",
             "frobenius_curve_candidate"],
    "fatpoints": ["scheme_geproci_check", "read_scheme", "concurrent_tangents_check"],
    "cli": ["main"],
}

# element-level methods: counted, never spanned
COUNTERS = {
    "fields.FieldTower.mul_rep.calls": ("fields", "FieldTower.mul_rep"),
    "fields.FieldTower.inv_rep.calls": ("fields", "FieldTower.inv_rep"),
    "fields.RationalFunction.created": ("fields", "RationalFunction.__init__"),
}

# spans whose results also feed counters (see Tracer._observe)
_OBSERVED = {"multipoly.kernel_of_conditions", "multipoly.coprime_certificate",
             "spreads.search_maximal_partial_spreads", "cli.main"}

_NAME, _START, _END, _PARENT, _JOB = range(5)


def _entry_size(c):
    """(terms, total degree) of one kernel entry, for any scalar type."""
    num, den = getattr(c, "num", None), getattr(c, "den", None)
    if num is not None and den is not None:
        terms = len(num.terms) + (0 if den.is_constant() else len(den.terms))
        return terms, max(num.degree(), den.degree())
    if hasattr(c, "terms") and hasattr(c, "degree"):
        return len(c.terms), c.degree()
    return 1, 0


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = None
        self.missing = []
        self.kernel = Counter()
        self.kernel_shapes = defaultdict(Counter)  # job -> "rowsxcols" -> calls
        self.coprime_witnesses = 0
        self.search_nodes = 0
        self.report_bytes = 0
        self._stack = []
        self._counters = {}

    # -- installation ------------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module(f"geproci.{m}") for m in MODULES}
        namespaces = list(mods.values()) + [importlib.import_module("geproci")]
        for mod_name, names in SPANS.items():
            for attr in names:
                self._patch(mods[mod_name], attr, namespaces,
                            lambda fn, n=f"{mod_name}.{attr}": self._span_wrapper(n, fn))
        for metric, (mod_name, attr) in COUNTERS.items():
            self._patch(mods[mod_name], attr, namespaces,
                        lambda fn, m=metric: self._count_wrapper(m, fn))

    def _patch(self, mod, dotted, namespaces, make):
        owner_name, _, attr = dotted.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        raw = owner.__dict__.get(attr) if owner is not None else None
        if raw is None:
            self.missing.append(f"{mod.__name__}.{dotted}")
            return
        if owner_name:  # a method or classmethod: patch the class only
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            setattr(owner, attr, new)
            return
        new = make(raw)
        for ns in namespaces:
            for name, value in list(vars(ns).items()):
                if value is raw:
                    setattr(ns, name, new)

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = self._observe if name in _OBSERVED else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            rec[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = clock()
                stack.pop()
            if observe is not None:
                observe(name, args, result)
            return result

        return wrapper

    def _count_wrapper(self, metric, fn):
        cell = self._counters[metric] = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, name, args, result):
        if name == "multipoly.kernel_of_conditions":
            mat = args[0]
            rows, cols = len(mat.rows), mat.ncols
            k = self.kernel
            k["cells"] += rows * cols
            k["rank_sum"] += result.rank
            k["dim_sum"] += result.dimension
            for form in result.forms:
                for c in form.coeffs.values():
                    terms, degree = _entry_size(c)
                    k["max_entry_terms"] = max(k["max_entry_terms"], terms)
                    k["max_entry_degree"] = max(k["max_entry_degree"], degree)
            self.kernel_shapes[self.job][f"{rows}x{cols} rank {result.rank}"] += 1
        elif name == "multipoly.coprime_certificate":
            if type(result).__name__ == "CoprimalityWitness":
                self.coprime_witnesses += 1
        elif name == "spreads.search_maximal_partial_spreads":
            self.search_nodes += result.nodes
        elif name == "cli.main":
            argv = list(args[0]) if args and args[0] is not None else []
            if "--out" in argv:
                path = argv[argv.index("--out") + 1]
                if os.path.exists(path):
                    self.report_bytes += os.path.getsize(path)

    # -- metrics -----------------------------------------------------------

    def metrics(self) -> dict:
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[_PARENT] >= 0:
                child[s[_PARENT]] += s[_END] - s[_START]
        calls, total, self_s = Counter(), defaultdict(float), defaultdict(float)
        certs, certs_interpolating = set(), set()
        for i, s in enumerate(spans):
            name, dur = s[_NAME], s[_END] - s[_START]
            calls[name] += 1
            self_s[name.split(".", 1)[0]] += dur - child[i]
            # inclusive time counts only the outermost of recursive calls
            p, nested = s[_PARENT], False
            while p >= 0:
                if spans[p][_NAME] == name:
                    nested = True
                if name == "core.interpolate_curve" and \
                        spans[p][_NAME] == "core.certify_complete_intersection":
                    certs_interpolating.add(p)
                p = spans[p][_PARENT]
            if not nested:
                total[name] += dur
            if name == "core.certify_complete_intersection":
                certs.add(i)

        def ratio(num, den):
            return num / den if den else 0.0

        m = {f"{mod}.self_s": (self_s[mod], "s") for mod in MODULES}
        for name in ("fields.mp_gcd", "fields.extend_field", "projgeom.matrix_rank",
                     "multipoly.kernel_of_conditions", "multipoly.coprime_certificate",
                     "core.project", "core.interpolate_curve", "spreads.spread_fingerprint"):
            m[f"{name}.calls"] = (calls[name], "count")
            m[f"{name}.s"] = (total[name], "s")
        for name in ("projgeom.all_lines", "projgeom.collinear_subsets",
                     "multipoly.hilbert_value", "core.certify_complete_intersection",
                     "core.GeneralPoint.random", "core.unexpected_cone_dim",
                     "core.frobenius_membership_check", "core.cone_line_transversality",
                     "core.classify", "spreads.search_maximal_partial_spreads",
                     "spreads.partition_into_lines", "fatpoints.scheme_geproci_check"):
            m[f"{name}.s"] = (total[name], "s")
        for metric in COUNTERS:
            m[metric] = (self._counters.get(metric, [0])[0], "count")
        m["multipoly.kernel.cells"] = (self.kernel["cells"], "count")
        m["multipoly.kernel.rank_sum"] = (self.kernel["rank_sum"], "count")
        m["multipoly.kernel.dim_sum"] = (self.kernel["dim_sum"], "count")
        m["multipoly.kernel.max_entry_terms"] = (self.kernel["max_entry_terms"], "terms")
        m["multipoly.kernel.max_entry_degree"] = (self.kernel["max_entry_degree"], "degree")
        m["multipoly.coprime_certificate.witness_ratio"] = (
            ratio(self.coprime_witnesses, calls["multipoly.coprime_certificate"]), "ratio")
        m["core.hint_only_ratio"] = (
            ratio(len(certs - certs_interpolating), len(certs)), "ratio")
        m["spreads.search.nodes"] = (self.search_nodes, "count")
        m["spreads.search.nodes_per_s"] = (
            ratio(self.search_nodes, total["spreads.search_maximal_partial_spreads"]), "1/s")
        m["cli.report_bytes"] = (self.report_bytes, "bytes")
        return {k: {"value": v, "unit": u} for k, (v, u) in sorted(m.items())}

    def job_shapes(self, job) -> dict:
        return dict(sorted(self.kernel_shapes.get(job, {}).items()))
