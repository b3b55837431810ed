"""Spans around the public functions and methods of ar1fpt's modules.

``Tracer.install`` wraps every public function and every public method of
the classes defined in each module named in ``LAYERS``, and
``scipy.integrate.quad``, and points every module namespace that imported
one of them (``from .x import f``) at the wrapper.  ``uninstall`` puts the
originals back.  The program itself is not changed; the end-to-end runs
never install the wrappers.

A span is ``[name, start_ns, end_ns, parent, op]``: ``parent`` is the index
of the enclosing span (-1 at top level) and ``op`` the ``(round, kind)`` of
the benchmark op it ran in.  Spans stay in memory until ``write``.  A few
wrapped calls also record what their arguments or results say (the
subcommand, the number of u-values or draws, whether a quadrature
converged); those go in ``attrs`` under the span's index.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import statistics
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "passage", "transforms", "quadrature", "cumulant", "innovations", "montecarlo")
QUAD = "quadrature.scipy_quad"
#: Op kind of the traced run's node-free replay of the flagship simulation.
PAIRED = "mgf-pair"


class Tracer:
    """Installs the wrappers and keeps the spans they record."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.attrs: dict[int, object] = {}
        self.op = None
        self._stack = [-1]
        self._installed: list[tuple[object, str, object]] = []

    # -- installing --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn, observe=None, prepare=None):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            if prepare is not None:
                args, kwargs = prepare(idx, args, kwargs)
            rec = [nid, clock(), 0, stack[-1], self.op]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if observe is not None:
                observe(idx, args, kwargs, result)
            return result

        return wrapper

    def _observer(self, name: str, fn):
        """What to record from a call's arguments or result, if anything."""
        attrs = self.attrs
        short = name.rsplit(".", 1)[-1]
        if name == "cli.main":
            return lambda i, a, k, r: attrs.__setitem__(i, (a[0] if a else k["argv"])[0])
        if name in ("montecarlo.simulate_passage", "passage.identity_e_tau"):
            sig = inspect.signature(fn)

            def bound(i, a, k, r):
                call = sig.bind(*a, **k)
                call.apply_defaults()
                attrs[i] = (call.arguments, r)

            return bound
        if name.startswith("transforms.eval_"):
            return lambda i, a, k, r: attrs.__setitem__(i, bool(r.converged))
        if name.startswith("innovations.") and short == "psi":
            # method psi(self, u) and function psi(spec, u) both take u second
            return lambda i, a, k, r: attrs.__setitem__(i, int(np.size(a[1] if len(a) > 1 else k["u"])))
        if name.startswith("innovations.") and short == "sample":
            # sample(self, rng, n) and sample(spec, rng, n)
            return lambda i, a, k, r: attrs.__setitem__(i, int(a[2] if len(a) > 2 else k["n"]))
        return None

    def _count_integrand(self, idx, args, kwargs):
        """Hand quad a counting wrapper of its integrand."""
        attrs = self.attrs
        attrs[idx] = 0
        func = args[0] if args else kwargs.pop("func")

        def counted(*a):
            attrs[idx] += 1
            return func(*a)

        return (counted, *args[1:]), kwargs

    def _patch(self, owner, attr, value):
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import scipy.integrate

        import ar1fpt

        modules = [importlib.import_module(f"ar1fpt.{layer}") for layer in LAYERS]
        replaced: dict[int, object] = {}
        for layer, mod in zip(LAYERS, modules):
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    full = f"{layer}.{name}"
                    replaced[id(obj)] = self._wrap(full, obj, self._observer(full, obj))
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if inspect.isfunction(member) and not attr.startswith("_"):
                            full = f"{layer}.{obj.__name__}.{attr}"
                            wrapped = self._wrap(full, member, self._observer(full, member))
                            self._patch(obj, attr, wrapped)
        for mod in [ar1fpt, *modules]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    self._patch(mod, name, replaced[id(obj)])
        quad = scipy.integrate.quad
        self._patch(scipy.integrate, "quad", self._wrap(QUAD, quad, prepare=self._count_integrand))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- writing -------------------------------------------------------------

    def write(self, path) -> None:
        """All spans as gzipped CSV: name,start_ns,end_ns,parent,round,op."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start_ns,end_ns,parent,round,op\n")
            for nid, start, end, parent, (rnd, kind) in self.spans:
                fh.write(f"{self.names[nid]},{start},{end},{parent},{rnd},{kind}\n")


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans
# ---------------------------------------------------------------------------


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class SpanTable:
    """Column view of a tracer's spans with inclusive and self times."""

    def __init__(self, tracer: Tracer):
        spans = tracer.spans
        n = len(spans)
        self.name = [tracer.names[s[0]] for s in spans]
        self.parent = [s[3] for s in spans]
        self.op = [s[4] for s in spans]
        self.dur_ms = [(s[2] - s[1]) / 1e6 for s in spans]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.dur_ms[i]
        # a layer's self time is its span time minus what its child spans cover
        self.self_ms = [d - c for d, c in zip(self.dur_ms, child)]
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for i, nm in enumerate(self.name):
            self.by_name[nm].append(i)

    def where(self, pred) -> list[int]:
        return [i for i, nm in enumerate(self.name) if pred(nm)]

    def outermost(self, idx: list[int]) -> list[int]:
        """The spans of idx not nested in another span of idx."""
        members = set(idx)
        out = []
        for i in idx:
            p = self.parent[i]
            while p >= 0 and p not in members:
                p = self.parent[p]
            if p < 0:
                out.append(i)
        return out

    def ancestor(self, i: int, name: str) -> int:
        p = self.parent[i]
        while p >= 0 and self.name[p] != name:
            p = self.parent[p]
        return p


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer: Tracer, rounds: int, overhead_ms: float) -> dict[str, float]:
    """Per-layer metrics of a traced run made of ``rounds`` identical rounds.

    Spans carry op ids ``(round, kind)``.  Counts are those of round 0, so
    they repeat exactly for a given seed; times are medians over rounds of
    the per-round total, or, for the per-call figures, over every call.
    """
    tab = SpanTable(tracer)
    attrs = tracer.attrs
    rnd = [op[0] for op in tab.op]

    def per_round(idx, value) -> list[float]:
        totals = [0.0] * rounds
        for i in idx:
            totals[rnd[i]] += value(i)
        return totals

    def count0(idx, value=lambda i: 1) -> int:
        return int(sum(value(i) for i in idx if rnd[i] == 0))

    def round_median(idx, value) -> float:
        return _median(per_round(idx, value))

    m: dict[str, float] = {}
    dur, self_ms = tab.dur_ms.__getitem__, tab.self_ms.__getitem__

    def layer_spans(layer):
        return tab.where(lambda nm: _layer(nm) == layer)

    # cli
    mains = tab.by_name["cli.main"]
    m["cli.self_ms"] = round_median(layer_spans("cli"), self_ms)
    # cli.simulate_ms is the long-paths op; the flagship replay is not a workload op
    ops = [i for i in mains if tab.op[i][1] != PAIRED]
    for sub in ("phi", "bounds", "certificate", "validate", "identity-check", "simulate"):
        key = f"cli.{sub.replace('-', '_')}_ms"
        m[key] = _median([dur(i) for i in ops if attrs.get(i) == sub])

    # passage
    for fn in ("identity_nodes", "identity_e_tau"):
        m[f"passage.{fn}_ms"] = _median([dur(i) for i in tab.by_name[f"passage.{fn}"]])
    passage = tab.outermost(layer_spans("passage"))
    bounds_mains = [i for i in mains if attrs.get(i) == "bounds"]
    in_bounds = defaultdict(float)
    for i in passage:
        top = tab.ancestor(i, "cli.main")
        if top in bounds_mains:
            in_bounds[top] += dur(i)
    m["passage.bounds_ms"] = _median([in_bounds[i] for i in bounds_mains])
    certs = tab.by_name["passage.exponential_certificate"]
    m["passage.certificate_ms"] = _median([dur(i) for i in certs])
    certs0 = [i for i in certs if rnd[i] == 0]
    w_in_cert = [
        i
        for i in tab.by_name["transforms.eval_W"]
        if tab.ancestor(i, "passage.exponential_certificate") in certs0
    ]
    m["passage.certificate_w_evals"] = len(w_in_cert) / max(len(certs0), 1)
    clip = importlib.import_module("ar1fpt.passage").MGF_REL_SE_CLIP

    def clipped(i):
        args = attrs[i][0]
        mgf = np.abs(np.asarray(args["mgf_value"], dtype=float))
        se = np.asarray(args["mgf_std_err"], dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return int(np.sum(~(se / mgf <= clip)))

    m["passage.clipped_nodes"] = count0(tab.by_name["passage.identity_e_tau"], clipped)

    # transforms
    evals = tab.where(lambda nm: nm.startswith("transforms.eval_"))
    m["transforms.evals"] = count0(evals)
    m["transforms.self_ms"] = round_median(layer_spans("transforms"), self_ms)
    cond19 = tab.by_name["transforms.check_condition_19"]
    m["transforms.cond19_calls"] = count0(cond19)
    m["transforms.cond19_ms"] = round_median(tab.outermost(cond19), dur)
    m["transforms.unconverged"] = count0(evals, lambda i: attrs.get(i) is False)

    # quadrature
    quads = tab.by_name[QUAD]
    m["quadrature.integrals"] = count0(tab.by_name["quadrature.improper_integral"])
    m["quadrature.quad_calls"] = count0(quads)
    m["quadrature.self_ms"] = round_median(layer_spans("quadrature"), self_ms)
    m["quadrature.integrand_evals"] = count0(quads, lambda i: attrs.get(i, 0))

    # cumulant
    phis = tab.by_name["cumulant.LimitCumulant.phi"]
    m["cumulant.phi_calls"] = count0(phis)
    m["cumulant.phi_ms"] = round_median(tab.outermost(phis), dur)
    m["cumulant.phi_self_ms"] = round_median(phis, self_ms)

    # innovations
    def outer_named(short):
        """Outermost innovations spans of the function or method ``short``."""
        return tab.outermost(
            tab.where(lambda nm: _layer(nm) == "innovations" and nm.rsplit(".", 1)[-1] == short)
        )

    psis = outer_named("psi")
    m["innovations.psi_calls"] = count0(psis)
    m["innovations.psi_points"] = count0(psis, lambda i: attrs.get(i, 0))
    m["innovations.psi_ms"] = round_median(psis, dur)
    partial = outer_named("log_partial_mgf_below")
    m["innovations.partial_mgf_calls"] = count0(partial)
    m["innovations.partial_mgf_ms"] = round_median(partial, dur)
    samples = outer_named("sample")
    m["innovations.draws"] = count0(samples, lambda i: attrs.get(i, 0))
    m["innovations.sample_ms"] = round_median(samples, dur)

    # montecarlo: kernel figures from the calls without MGF nodes
    sims = tab.by_name["montecarlo.simulate_passage"]
    plain = [i for i in sims if attrs[i][0]["mgf_u_nodes"] is None]

    def path_steps(i):
        args, summary = attrs[i]
        return summary.n_crossed * summary.e_tau_hat + summary.n_censored * args["max_steps"]

    def blocks(i):
        args = attrs[i][0]
        return -(-args["n_paths"] // args["block_size"])

    m["montecarlo.path_steps"] = int(round(sum(path_steps(i) for i in plain if rnd[i] == 0)))
    m["montecarlo.blocks"] = count0(plain, blocks)
    m["montecarlo.kernel_self_ms"] = round_median(plain, self_ms)
    steps = per_round(plain, path_steps)
    kernel = per_round(plain, self_ms)
    m["montecarlo.ns_per_path_step"] = _median([k * 1e6 / s for k, s in zip(kernel, steps) if s])
    # the same flagship simulation with and without its MGF nodes
    plain_set = set(plain)
    with_nodes = per_round([i for i in sims if i not in plain_set], dur)
    paired = per_round([i for i in plain if tab.op[i][1] == PAIRED], dur)
    m["montecarlo.mgf_ms"] = _median([a - b for a, b in zip(with_nodes, paired)])

    m["trace.overhead_ms"] = overhead_ms
    return m
