"""The traced run (``--trace 1``): per-layer metrics.

Calls eqbench's public functions in-process on the inputs of all three
workloads, whichever ``--workload`` names, and records a span around each
call: name, start, end, parent and a few attributes (outcomes, counts).
Spans stay in memory and are written to
``.perfbench_out/trace-<workload>-<seed>.json`` at the end; the per-layer
metrics are derived from them.  Nothing inside eqbench is instrumented.

``trace.overhead_pct`` is the share of the traced run's time that the
tracer itself adds: the cost of an empty span, measured in the same run,
times the number of spans.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import statistics
import sys
import time
from pathlib import Path

import checks
from algebra import System, parse_equation
from questions import make_questions
from run import C1_PREFIX, SETUP_SAMPLES, _cli_probe, _import_eqbench

OUT = Path(__file__).resolve().parent.parent / ".perfbench_out"
POWER_SYSTEMS = ("C0", "C1", "C2", "C3", "Mx_as_printed", "Mx_neutral")


class Tracer:
    def __init__(self):
        self.spans = []     # [id, name, start, end, parent, attrs]
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, **attrs):
        sid = len(self.spans)
        rec = [sid, name, 0.0, 0.0, self._stack[-1] if self._stack else None, attrs]
        self.spans.append(rec)
        self._stack.append(sid)
        rec[2] = time.perf_counter()
        try:
            yield attrs
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def durations(self, name, **where):
        """Seconds of every span called ``name`` whose attributes include ``where``."""
        return [s[3] - s[2] for s in self.spans
                if s[1] == name and all(s[5].get(k) == v for k, v in where.items())]

    def attr(self, name, key, **where):
        return [s[5][key] for s in self.spans
                if s[1] == name and all(s[5].get(k) == v for k, v in where.items())]

    def span_cost(self, n=20_000):
        """Seconds one empty span costs, measured on a throwaway tracer."""
        probe = Tracer()
        t0 = time.perf_counter()
        for _ in range(n):
            with probe.span("x"):
                pass
        return (time.perf_counter() - t0) / n

    def dump(self, path):
        path.parent.mkdir(exist_ok=True)
        keys = ("id", "name", "start", "end", "parent", "attrs")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]), encoding="utf-8")


def _median_us(values):
    return statistics.median(values) * 1e6


# ---------------------------------------------------------------------------
# per workload: each returns {metric: (value, unit)}

def _ask(tr, eqbench, system, cand, max_size):
    """Trace one identity asked as prove and refute; the two verdict records."""
    with tr.span("consequence.derive") as a:
        proof = eqbench.derive(system, cand)
        a["proved"] = isinstance(proof, eqbench.Proved)
    if a["proved"]:
        a["steps"] = len(proof.derivation)
        with tr.span("consequence.validate_derivation"):
            eqbench.validate_derivation(system, proof.derivation, cand)
    with tr.span("consequence.semantic_consequence") as b:
        refutation = eqbench.semantic_consequence(system, cand, max_size)
        b["held"] = isinstance(refutation, eqbench.HoldsUpTo)
    b["proved"] = a["proved"]
    record = eqbench.consequence.verdict_record
    return record(proof), record(refutation)


def _consequence_metrics(tr):
    held = tr.durations("consequence.semantic_consequence", held=True)
    proved_held = tr.durations("consequence.semantic_consequence", held=True, proved=True)
    return {
        "consequence.search_held_ms": (sum(held) * 1e3, "ms"),
        "consequence.search_held_count": (len(held), "count"),
        "consequence.search_refuted_ms": (
            sum(tr.durations("consequence.semantic_consequence", held=False)) * 1e3, "ms"),
        "consequence.search_refuted_count": (
            len(tr.durations("consequence.semantic_consequence", held=False)), "count"),
        "consequence.provable_held_ratio": (len(proved_held) / max(len(held), 1), "ratio"),
        "consequence.derive_ms.proved": (
            sum(tr.durations("consequence.derive", proved=True)) * 1e3, "ms"),
        "consequence.derive_ms.unknown": (
            sum(tr.durations("consequence.derive", proved=False)) * 1e3, "ms"),
        "consequence.derivation_steps": (
            sum(tr.attr("consequence.derive", "steps", proved=True)), "count"),
        "consequence.validate_us": (
            _median_us(tr.durations("consequence.validate_derivation")), "us"),
    }


def _build_systems(tr, eqbench, names):
    with tr.span("axioms.build"):
        systems = {name: eqbench.builtin_system(name) for name in names}
        merged = eqbench.merge([systems[n] for n in names])
        for s in (*systems.values(), merged):
            eqbench.axioms.system_content_key(s)
    return systems


def _cli_startup(h):
    launches = [b - a for a, b in (h.launch(_cli_probe())[0] for _ in range(SETUP_SAMPLES))]
    return {"cli.startup_ms": (statistics.median(launches) * 1e3, "ms")}


def trace_power(tr, eqbench, seed, h):
    systems = _build_systems(tr, eqbench, POWER_SYSTEMS)
    space = eqbench.CandidateSpace()
    with tr.span("terms.candidate_identities"):
        cands = eqbench.consequence.candidate_identities(space)
    problems = []
    for name, system in systems.items():
        with tr.span("consequence.consequence_set", system=name):
            held = eqbench.consequence_set(system, space, 3)
        own, members = System.builtin(name), set()
        for cand in cands:
            text = eqbench.format_equation(cand)
            verdict = checks.certify(own, parse_equation(text),
                                     *_ask(tr, eqbench, system, cand, 3), 3)
            if verdict is None:
                problems.append(f"{name}: {text} has no certificate")
            elif verdict == "member":
                members.add(text)
        if members != {eqbench.format_equation(eq) for eq in held}:
            problems.append(f"{name}: consequence_set differs from the certified set")
    rank_args = ([systems[n] for n in POWER_SYSTEMS[:4]], space, 3)
    cmp_args = (systems["Mx_as_printed"], systems["Mx_neutral"], space, 3)
    for warm in (False, True):
        with tr.span("power.rank_all", warm=warm):
            eqbench.rank_all(*rank_args)
        with tr.span("power.compare", warm=warm):
            eqbench.compare(*cmp_args)
    return problems, {
        "terms.candidates_ms": (sum(tr.durations("terms.candidate_identities")) * 1e3, "ms"),
        **{f"consequence.cset_s.{n}": (
            sum(tr.durations("consequence.consequence_set", system=n)), "s")
           for n in POWER_SYSTEMS},
        "power.relation_ms": ((sum(tr.durations("power.rank_all", warm=True))
                               + sum(tr.durations("power.compare", warm=True))) * 1e3, "ms"),
    }


def trace_models(tr, eqbench, seed, h):
    from eqbench import cli, models as m
    systems = _build_systems(tr, eqbench, ("C0", "C1", "Mx_neutral"))
    c0 = systems["C0"]
    inputs = {  # name: (system, models taken from the stream)
        "c0": (c0, None),
        "c0_mx_neutral": (eqbench.merge([c0, systems["Mx_neutral"]]), None),
        "c1_prefix": (systems["C1"], C1_PREFIX),
    }
    rates = {}
    for name, (system, limit) in inputs.items():
        with tr.span("models.enumerate_models", input=name) as a:
            algebras = list(itertools.islice(m.enumerate_models(system, 3), limit))
        a["count"] = len(algebras)
        rates[name] = len(algebras) / tr.durations("models.enumerate_models", input=name)[0]
        if name == "c0":
            c0_models = algebras
    with tr.span("models.iso_filter"):
        for alg in c0_models:
            with tr.span("models.is_canonical") as a:
                a["least"] = m.is_canonical(alg)
    lines = []
    for alg in c0_models:
        with tr.span("models.record_line"):
            lines.append(m.record_line(alg))
    records = [json.loads(line) for line in lines]
    for rec in records:
        with tr.span("models.from_record"):
            m.from_record(rec)
    for alg in c0_models:
        with tr.span("models.satisfies_all"):
            m.satisfies_all(alg, c0)
    for alg in c0_models:
        with tr.span("structure.classify_structure"):
            eqbench.classify_structure(alg)

    scratch = h.scratch
    (scratch / "c0.jsonl").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    enum = ["enumerate", "--size", "3", "--format", "records"]
    argvs = [
        [*enum, "--system", "C0"],
        [*enum, "--system", "C0", "--system", "Mx_neutral"],
        [*enum, "--system", "C1", "--max-results", str(C1_PREFIX)],
        [*enum, "--system", "C0", "--up-to-iso"],
        [*enum, "--system", "C0", "--cache-dir", str(scratch / "cache")],
        [*enum, "--system", "C0", "--cache-dir", str(scratch / "cache")],
        ["classify", "--algebra", str(scratch / "c0.jsonl"), "--format", "records"],
        ["check", "--system", "C0", "--algebra", str(scratch / "c0.jsonl"), "--format", "records"],
    ]
    stdout_bytes = 0
    for argv in argvs:
        buf = io.StringIO()
        with tr.span("cli.main", command=argv[0]), contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)
        stdout_bytes += len(buf.getvalue().encode())
    cache_bytes = sum(p.stat().st_size for p in (scratch / "cache").iterdir())

    counts = {"c0": 3 ** 9, "c0_mx_neutral": 3 * 3 ** 4, "c1_prefix": C1_PREFIX,
              "iso": 3330}
    got = dict(zip(inputs, tr.attr("models.enumerate_models", "count")))
    got["iso"] = sum(tr.attr("models.is_canonical", "least"))
    problems = [f"{k}: {got.get(k)} models, expected {v}" for k, v in counts.items()
                if got.get(k) != v]
    return problems, {
        "cli.stdout_bytes": (stdout_bytes, "count"),
        "cli.cache_file_bytes": (cache_bytes, "count"),
        **{f"models.enum_models_per_s.{k}": (v, "models/s") for k, v in rates.items()},
        "models.iso_filter_ms": (sum(tr.durations("models.iso_filter")) * 1e3, "ms"),
        "models.record_line_us": (_median_us(tr.durations("models.record_line")), "us"),
        "models.from_record_us": (_median_us(tr.durations("models.from_record")), "us"),
        "models.satisfies_us": (_median_us(tr.durations("models.satisfies_all")), "us"),
        "structure.classify_us": (
            _median_us(tr.durations("structure.classify_structure")), "us"),
    }


def trace_query(tr, eqbench, seed, h):
    questions = make_questions(seed)
    systems = _build_systems(tr, eqbench, sorted({q["system"] for q in questions}))
    problems = []
    for q in questions:
        with tr.span("terms.parse_equation"):
            cand = eqbench.parse_equation(q["text"])
        prove, refute = _ask(tr, eqbench, systems[q["system"]], cand, q["bound"])
        p_bad, r_bad = checks.check_answer(System.builtin(q["system"]), q, prove, refute)
        problems += [f"question {q['id']} ({q['text']}): {p}" for p in p_bad + r_bad]
    return problems, {
        "terms.parse_us": (_median_us(tr.durations("terms.parse_equation")), "us"),
    }


TRACES = {"power": trace_power, "models": trace_models, "query": trace_query}


def run(workload, seed, h):
    """The result object of a traced run.  It is the same for every
    workload: every per-layer metric is reported on each, so the run traces
    the inputs of all three workloads (``seed`` picks the query questions),
    and metrics shared by several layers' callers are taken over all spans."""
    eqbench = _import_eqbench()
    tr = Tracer()
    t0 = time.perf_counter()
    problems, metrics = [], {}
    for part, trace in TRACES.items():
        part_problems, part_metrics = trace(tr, eqbench, seed, h)
        problems += [f"[trace {part}] {p}" for p in part_problems]
        metrics.update(part_metrics)
    elapsed = time.perf_counter() - t0
    for p in problems:
        print(p, file=sys.stderr)
    metrics.update(_cli_startup(h))
    metrics["axioms.build_ms"] = (sum(tr.durations("axioms.build")) * 1e3, "ms")
    metrics.update(_consequence_metrics(tr))
    metrics["trace.span_count"] = (len(tr.spans), "count")
    metrics["trace.overhead_pct"] = (100 * len(tr.spans) * tr.span_cost() / elapsed, "%")
    tr.dump(OUT / f"trace-{workload}-{seed}.json")
    # every traced call is an operation; a call whose result fails a check failed
    return {"correct": not problems, "attempted": len(tr.spans), "failed": len(problems),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
