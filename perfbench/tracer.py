"""Layer tracer installed from outside the package.

``Tracer.install`` replaces every public function of the traced modules,
in every crseifert namespace that bound it (``from .x import y`` makes
several), by one timing wrapper, and wraps the PiLaurent arithmetic
dunders; ``uninstall`` puts the originals back.  Each call becomes a span
``[id, parent id, operation id, name, start, end, info]`` kept in memory;
``layer_metrics`` turns the spans into the per-layer metrics.  A span's
self time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict

MODULES = ("dedekind", "invariants", "obstruct", "rrketa", "seifert",
           "exactq", "spectrum", "verify", "cli")
PILAURENT_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__neg__")

SAWTOOTH = "dedekind.dedekind_rademacher"
FAST = "dedekind.dedekind_fast"
REDUCE = "dedekind.reduce_to_classical"
ORACLE = "dedekind.dedekind_float_oracle"
LENS_REPORT = "obstruct.lens_report"
REGULARIZED = "rrketa.regularized_eta_difference"
SPECTRA = ("spectrum.virtual_spectrum", "spectrum.dstar_limit_spectrum")
RRK_COMMAND = "cli.cmd_rrk_eta"
SEIFERT_BUILD = ("seifert.lens_space", "seifert.from_genus", "seifert.load",
                 "seifert.validate")

# What a span records about its call, by traced name; the arguments are
# bound by name, so keyword calls work too.
INFO = {
    SAWTOOTH: lambda a, r: (a["alpha"], a["rho"], a["beta"]),
    FAST: lambda a, r: (a["alpha"], 1, a["c"]),
    REDUCE: lambda a, r: (a["alpha"], a["rho"], a["beta"]),
    REGULARIZED: lambda a, r: sum(c.alpha for c in a["data"].cone_points),
    "spectrum.lambda_pm": lambda a, r: not isinstance(r[0], float),
    SPECTRA[0]: lambda a, r: (len(a["modes"]), _removals(a["holo"]), len(r)),
    SPECTRA[1]: lambda a, r: (len(a["modes"]), _removals(a["holo"]), len(r)),
}

# Per-layer metrics of a traced run: (name, unit, better).
PER_LAYER = (
    ("trace.ops", "count", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("share.alpha_ge_512", "ratio", "higher"),
    ("share.exact_lines", "ratio", "higher"),
    ("import.crseifert_ms", "ms", "lower"),
    ("import.numpy_ms", "ms", "lower"),
    ("cli.main_ms", "ms", "lower"),
    ("cli.interp_ms", "ms", "lower"),
    ("dedekind.sawtooth.calls", "count", "lower"),
    ("dedekind.sawtooth.busy_s", "s", "lower"),
    ("dedekind.sawtooth.terms", "count", "lower"),
    ("dedekind.fast.calls", "count", "lower"),
    ("dedekind.fast.busy_s", "s", "lower"),
    ("dedekind.reduce.calls", "count", "lower"),
    ("dedekind.alpha_max", "count", "higher"),
    ("dedekind.oracle.calls", "count", "lower"),
    ("dedekind.distinct_ratio", "ratio", "higher"),
    ("invariants.cone_sum.calls", "count", "lower"),
    ("invariants.cone_sum.self_s", "s", "lower"),
    ("invariants.eta_dstar.self_s", "s", "lower"),
    ("invariants.check_cor15.self_s", "s", "lower"),
    ("exactq.pilaurent.ops", "count", "lower"),
    ("exactq.pilaurent.busy_s", "s", "lower"),
    ("exactq.mod_inverse.calls", "count", "lower"),
    ("exactq.hurwitz_zeta_at_zero.calls", "count", "lower"),
    ("obstruct.lens_report.calls", "count", "lower"),
    ("obstruct.lens_report.busy_s", "s", "lower"),
    ("obstruct.lens_report.self_s", "s", "lower"),
    ("obstruct.sawtooth_per_report", "ratio", "lower"),
    ("obstruct.lens_report.dedekind_distinct_ratio", "ratio", "higher"),
    ("rrketa.regularized_eta_difference.calls", "count", "lower"),
    ("rrketa.regularized_eta_difference.busy_s", "s", "lower"),
    ("rrketa.regularized_eta_difference.self_s", "s", "lower"),
    ("rrketa.periodic_terms", "count", "lower"),
    ("rrketa.series_per_rrk_command", "ratio", "lower"),
    ("seifert.build.busy_s", "s", "lower"),
    ("seifert.geom_integrals_const.busy_s", "s", "lower"),
    ("spectrum.modes_in", "count", "higher"),
    ("spectrum.lines_out", "count", "higher"),
    ("spectrum.removals", "count", "higher"),
    ("spectrum.lambda_pm.calls", "count", "lower"),
    ("spectrum.lambda_pm.busy_s", "s", "lower"),
    ("spectrum.lambda_pm.exact_share", "ratio", "higher"),
    ("spectrum.virtual_spectrum.self_s", "s", "lower"),
    ("spectrum.dstar_limit_spectrum.self_s", "s", "lower"),
    ("spectrum.lines_csv.busy_s", "s", "lower"),
    ("verify.run.busy_s", "s", "lower"),
)


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def _removals(holo) -> int:
    return sum(1 for n, m in holo.h0.items() if m > 0 and n >= 1)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op_id = None
        self.import_ms = defaultdict(list)   # module -> -X importtime samples
        self._stack = []
        self._next_id = 0
        self._restore = []

    def _wrap(self, name: str, fn):
        info = INFO.get(name)
        signature = inspect.signature(fn) if info else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span = [sid, parent, self.op_id, name, t0, t1, None]
                spans.append(span)
            if info:
                span[6] = info(signature.bind(*args, **kwargs).arguments, result)
            return result
        return traced

    def install(self) -> None:
        package = importlib.import_module("crseifert")
        names = {}
        for short in MODULES:
            module = importlib.import_module(f"crseifert.{short}")
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    names[obj] = f"{short}.{attr}"
        wrappers = {fn: self._wrap(name, fn) for fn, name in names.items()}
        namespaces = [m for n, m in sys.modules.items()
                      if n == package.__name__ or n.startswith("crseifert.")]
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((namespace, attr, obj))
                    setattr(namespace, attr, wrappers[obj])
        cls = importlib.import_module("crseifert.exactq").PiLaurent
        for op in PILAURENT_OPS:
            original = cls.__dict__[op]
            self._restore.append((cls, op, original))
            setattr(cls, op, self._wrap(f"exactq.PiLaurent.{op}", original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)

    def absorb_child(self, spans: list, stderr: str) -> None:
        """Take in the spans a child interpreter dumped, renumbered, and
        its ``-X importtime`` report."""
        offset = self._next_id
        for sid, parent, _, name, t0, t1, info in spans:
            if isinstance(info, list):
                info = tuple(info)
            self.spans.append([sid + offset, None if parent is None else
                               parent + offset, self.op_id, name, t0, t1, info])
        self._next_id += len(spans) + 1
        for module, ms in importtime(stderr).items():
            self.import_ms[module].append(ms)


def importtime(stderr: str) -> dict:
    """Cumulative import time in ms of crseifert and numpy from an
    ``-X importtime`` report."""
    found = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, module = line.split("|")
        module = module.strip()
        if module in ("crseifert", "numpy") and cumulative.strip().isdigit():
            found[module] = int(cumulative) / 1000.0
    return found


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics from spans (``trace.*``, ``share.*``, ``import.*``
    and ``cli.interp_ms`` are filled in by the caller).

    ``dedekind.oracle.calls`` counts float-oracle calls on production
    paths, outside the ``verify`` battery whose job is to call it."""
    by_id = {s[0]: s for s in spans}
    calls, selfs, covered = defaultdict(int), defaultdict(float), defaultdict(float)
    for sid, parent, _, name, t0, t1, _ in spans:
        calls[name] += 1
        if parent is not None:
            covered[parent] += t1 - t0
    for sid, _, _, name, t0, t1, _ in spans:
        selfs[name] += t1 - t0 - covered[sid]

    def ancestor(span, names):
        parent = span[1]
        while parent is not None:
            up = by_id[parent]
            if up[3] in names:
                return up
            parent = up[1]
        return None

    def busy(*names):
        """Wall time inside any of ``names``, nested calls counted once."""
        return sum(s[5] - s[4] for s in spans
                   if s[3] in names and ancestor(s, names) is None)

    def under(name, outer):
        """Calls of ``name`` made inside a call of ``outer``."""
        return sum(1 for s in spans
                   if s[3] == name and ancestor(s, (outer,)) is not None)

    def distinct_ratio(groups):
        return _ratio(sum(len(set(g)) for g in groups.values()),
                      sum(len(g) for g in groups.values()))

    dedekind_spans = [s for s in spans if s[3] in (SAWTOOTH, FAST)]
    per_op, per_report = defaultdict(list), defaultdict(list)
    for s in dedekind_spans:
        per_op[s[2]].append(s[6])
        report = ancestor(s, (LENS_REPORT,))
        if report is not None:
            per_report[report[0]].append(s[6])
    lambdas = [s[6] for s in spans if s[3] == "spectrum.lambda_pm"]
    spectra = [s[6] for s in spans if s[3] in SPECTRA]
    main_ms = [(s[5] - s[4]) * 1000 for s in spans if s[3] == "cli.main"]
    pilaurent = tuple(f"exactq.PiLaurent.{op}" for op in PILAURENT_OPS)
    return {
        "cli.main_ms": statistics.median(main_ms) if main_ms else 0.0,
        "dedekind.sawtooth.calls": calls[SAWTOOTH],
        "dedekind.sawtooth.busy_s": busy(SAWTOOTH),
        "dedekind.sawtooth.terms": sum(max(s[6][0] - 1, 0) for s in spans
                                       if s[3] == SAWTOOTH),
        "dedekind.fast.calls": calls[FAST],
        "dedekind.fast.busy_s": busy(FAST),
        "dedekind.reduce.calls": calls[REDUCE],
        "dedekind.alpha_max": max((s[6][0] for s in spans
                                   if s[3] in (SAWTOOTH, FAST, REDUCE)), default=0),
        "dedekind.oracle.calls": (calls[ORACLE]
                                  - under(ORACLE, "verify.run")),
        "dedekind.distinct_ratio": distinct_ratio(per_op),
        "invariants.cone_sum.calls": calls["invariants.cone_sum"],
        "invariants.cone_sum.self_s": selfs["invariants.cone_sum"],
        "invariants.eta_dstar.self_s": selfs["invariants.eta_dstar"],
        "invariants.check_cor15.self_s": selfs["invariants.check_cor15"],
        "exactq.pilaurent.ops": sum(calls[n] for n in pilaurent),
        "exactq.pilaurent.busy_s": busy(*pilaurent),
        "exactq.mod_inverse.calls": calls["exactq.mod_inverse"],
        "exactq.hurwitz_zeta_at_zero.calls": calls["exactq.hurwitz_zeta_at_zero"],
        "obstruct.lens_report.calls": calls[LENS_REPORT],
        "obstruct.lens_report.busy_s": busy(LENS_REPORT),
        "obstruct.lens_report.self_s": selfs[LENS_REPORT],
        "obstruct.sawtooth_per_report": _ratio(under(SAWTOOTH, LENS_REPORT),
                                               calls[LENS_REPORT]),
        "obstruct.lens_report.dedekind_distinct_ratio": distinct_ratio(per_report),
        "rrketa.regularized_eta_difference.calls": calls[REGULARIZED],
        "rrketa.regularized_eta_difference.busy_s": busy(REGULARIZED),
        "rrketa.regularized_eta_difference.self_s": selfs[REGULARIZED],
        "rrketa.periodic_terms": sum(s[6] for s in spans if s[3] == REGULARIZED),
        "rrketa.series_per_rrk_command": _ratio(under(REGULARIZED, RRK_COMMAND),
                                                calls[RRK_COMMAND]),
        "seifert.build.busy_s": busy(*SEIFERT_BUILD),
        "seifert.geom_integrals_const.busy_s": busy("seifert.geom_integrals_const"),
        "spectrum.modes_in": sum(i[0] for i in spectra),
        "spectrum.lines_out": sum(i[2] for i in spectra),
        "spectrum.removals": sum(i[1] for i in spectra),
        "spectrum.lambda_pm.calls": len(lambdas),
        "spectrum.lambda_pm.busy_s": busy("spectrum.lambda_pm"),
        "spectrum.lambda_pm.exact_share": _ratio(sum(lambdas), len(lambdas)),
        "spectrum.virtual_spectrum.self_s": selfs[SPECTRA[0]],
        "spectrum.dstar_limit_spectrum.self_s": selfs[SPECTRA[1]],
        "spectrum.lines_csv.busy_s": busy("spectrum.lines_csv"),
        "verify.run.busy_s": busy("verify.run"),
    }
