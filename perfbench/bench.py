"""Orchestration of one benchmark run: passes, gates, metrics, report.

Imported by ``run.py`` once the package in ``src/`` is on the path.
"""

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import scipy

import robustpriors as rp
import workloads
from metrics import REFERENCE_NOMINAL_MS, HostSpeed, latency_summary, work_rate
from tracer import SpanTable, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "model.grad_logpdf.calls": "count",
    "model.grad_logpdf.rows_per_call": "rows",
    "model.grad_logpdf.self_pct": "%",
    "model.logpdf.calls": "count",
    "model.logpdf.rows_per_call": "rows",
    "model.logpdf.self_pct": "%",
    "priors.log_density.calls": "count",
    "priors.log_density.elems": "count",
    "priors.log_density.self_pct": "%",
    "priors.grad_log_density.calls": "count",
    "priors.grad_log_density.elems": "count",
    "priors.grad_log_density.self_pct": "%",
    "sampler.sample.self_pct": "%",
    "sampler.leapfrog.calls": "count",
    "sampler.leapfrog.self_pct": "%",
    "sampler.iterations": "count",
    "sampler.grad_rows": "count",
    "sampler.accept_rate": "ratio",
    "sampler.divergences": "count",
    "sampler.ess_per_grad": "1/row",
    "sampler.summarize.pct": "%",
    "sampler.ess_imse.calls": "count",
    "sampler.ess_imse.pct": "%",
    "sampler.save_chains.pct": "%",
    "sampler.save_chains.bytes": "bytes",
    "oracle.quadrature_moments.calls": "count",
    "oracle.quadrature_moments.pct": "%",
    "oracle.quadrature_moments.self_pct": "%",
    "oracle.panels_evaluated": "count",
    "oracle.panels_final": "count",
    "oracle.panel_yield": "ratio",
    "oracle.mode_search_calls": "count",
    "oracle.mode_search_pct": "%",
    "oracle.numerical_errors": "count",
    "asymptotics.marginal_ratio_convergence.pct": "%",
    "asymptotics.pointwise.pct": "%",
    "specfun.calls": "count",
    "specfun.pct": "%",
    "model.reduced_target.pct": "%",
    "model.load_csv.pct": "%",
    "model.standardize.pct": "%",
    "cli.main.self_pct": "%",
    "cli.output_bytes": "bytes",
    "trace.window_s": "s",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
    "probe.lptn_lambda10.failed": "count",
    "probe.fit_default_step.failed": "count",
    "repo.source_lines": "lines",
    "repo.public_names": "count",
}

FAMILIES = ("Normal", "Student", "LPTN", "CTN")
POINTWISE = ("prior_ratio_student", "prior_ratio_lptn", "lptn_scaling_trace",
             "prior_limit_ctn")
PANEL_ROWS = 225        # one 15 x 15 Gauss-Kronrod panel per logpdf batch


def run_ops(ops, errors, host):
    """Time each operation; the listed exceptions mark it failed.

    Returns outputs, measured seconds, the same seconds scaled to the
    nominal host by the reference samples nearest each operation, and the
    error of each operation that raised.
    """
    outputs, seconds, midpoints, raised = [], [], [], []
    for op in ops:
        host.sample()
        t = time.perf_counter()
        try:
            out, err = op.run(), None
        except errors as exc:
            out, err = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        seconds.append(end - t)
        midpoints.append(0.5 * (t + end))
        outputs.append(out)
        raised.append(err)
    host.sample()
    nominal = [s * host.scale(at) for s, at in zip(seconds, midpoints)]
    return outputs, seconds, nominal, raised


def gate(ops, outputs, raised):
    """Failure reason per operation (None when it passed); never timed."""
    return [err if err is not None else op.check(out)
            for op, out, err in zip(ops, outputs, raised)]


def work_done(ops, outputs, reasons):
    """Work yielded by each operation; None where it failed."""
    return [None if r is not None else op.work(out)
            for op, out, r in zip(ops, outputs, reasons)]


def primary_figures(workload, ops, work, seconds):
    """Latency, work rate and total work over the primary operations."""
    idx = [i for i, op in enumerate(ops) if op.kind == workload.primary]
    secs = [seconds[i] for i in idx]
    bad = [work[i] is None for i in idx]
    done = [work[i] or 0.0 for i in idx]
    return latency_summary(secs, bad), work_rate(done, secs, bad), sum(done)


def environment(seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    lines = sum(len(p.read_text().splitlines())
                for p in sorted((SRC / "robustpriors").rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "seed": seed,
        "source_lines": lines,
        "public_names": len(rp.__all__),
    }


def issue_report(workload, measured):
    """End-to-end figures as measured, under the names the issues use."""
    ops, seconds, reasons = measured["ops"], measured["seconds"], measured["reasons"]
    lat, rate, _ = primary_figures(workload, ops, measured["work"], seconds)
    rep = {
        "setup_s": (measured["setup_s"], "s"),
        "failed_ratio": (sum(r is not None for r in reasons) / len(ops),
                         f"of {len(ops)} operations"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "host_ref_ms": (measured["host"].median_ms(),
                        f"ms reference kernel ({REFERENCE_NOMINAL_MS:g} nominal)"),
    }
    if workload.name == "quad_sweeps":
        rep["quad_point_p50_ms"] = (lat["p50_ms"], f"ms, n={lat['n']}")
        if lat["tail"]:
            rep[f"quad_point_{lat['tail']}_ms"] = (lat["tail_ms"], f"ms, n={lat['n']}")
        rep["quad_points_per_s"] = (rate, "1/s")
        rep["check_s"] = (sum(s for s, op in zip(seconds, ops)
                              if op.kind == "check"), "s")
    else:
        rep["ess_per_s"] = (rate, "1/s")
        label = "fit_s" if workload.name == "fit_regression" else "posterior_p50_s"
        rep[label] = (lat["p50_ms"] / 1e3, f"s, median of {lat['n']}")
    return rep


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(table, window_s, ess_total, kept):
    """Per-layer figures of the traced pass.  Times are shares of its wall."""
    def pct(seconds):
        return 100.0 * seconds / window_s

    def names(prefix):
        return [n for n in table.names if n.startswith(prefix)]

    m = {}
    for key, spans in (("model.grad_logpdf", ["model.PosteriorTarget.grad_logpdf"]),
                       ("model.logpdf", ["model.PosteriorTarget.logpdf"])):
        mk = table.mask(spans)
        calls = table.calls(mk)
        m[f"{key}.calls"] = calls
        m[f"{key}.rows_per_call"] = table.total_size(mk) / calls if calls else 0.0
        m[f"{key}.self_pct"] = pct(table.self_seconds(mk))
    for method in ("log_density", "grad_log_density"):
        mk = table.mask([f"priors.{f}.{method}" for f in FAMILIES])
        m[f"priors.{method}.calls"] = table.calls(mk)
        m[f"priors.{method}.elems"] = table.total_size(mk)
        m[f"priors.{method}.self_pct"] = pct(table.self_seconds(mk))

    sample = table.mask(["sampler.sample"])
    leap = table.mask(["sampler.leapfrog"])
    grad_rows = table.total_size(table.mask(["model.PosteriorTarget.grad_logpdf"]))
    chains = [c for run in kept["sampler.sample"] for c in run]
    m["sampler.sample.self_pct"] = pct(table.self_seconds(sample))
    m["sampler.leapfrog.calls"] = table.calls(leap)
    m["sampler.leapfrog.self_pct"] = pct(table.self_seconds(leap))
    m["sampler.iterations"] = table.total_size(sample)
    m["sampler.grad_rows"] = grad_rows
    m["sampler.accept_rate"] = (sum(a for a, _ in chains) / len(chains)
                                if chains else 0.0)
    m["sampler.divergences"] = sum(d for _, d in chains)
    m["sampler.ess_per_grad"] = ess_total / grad_rows if grad_rows else 0.0
    m["sampler.summarize.pct"] = pct(table.seconds(table.mask(["sampler.summarize"])))
    ess = table.mask(["sampler.ess_imse"])
    m["sampler.ess_imse.calls"] = table.calls(ess)
    m["sampler.ess_imse.pct"] = pct(table.seconds(ess))
    save = table.mask(["sampler.save_chains"])
    m["sampler.save_chains.pct"] = pct(table.seconds(save))
    m["sampler.save_chains.bytes"] = table.total_size(save)

    quad = table.mask(["oracle.quadrature_moments"])
    under_quad = ["oracle.quadrature_moments"]
    logpdf = ["model.PosteriorTarget.logpdf"]
    batches = table.mask(logpdf, under_quad) & (table.size >= PANEL_ROWS)
    mode = table.mask(logpdf, under_quad) & (table.size == 1)
    evaluated = table.total_size(batches) / PANEL_ROWS
    final = table.total_size(quad)
    m["oracle.quadrature_moments.calls"] = table.calls(quad)
    m["oracle.quadrature_moments.pct"] = pct(table.seconds(quad))
    m["oracle.quadrature_moments.self_pct"] = pct(table.self_seconds(quad))
    m["oracle.panels_evaluated"] = evaluated
    m["oracle.panels_final"] = final
    m["oracle.panel_yield"] = final / evaluated if evaluated else 0.0
    m["oracle.mode_search_calls"] = table.calls(mode)
    m["oracle.mode_search_pct"] = pct(table.seconds(mode))
    m["oracle.numerical_errors"] = table.raised_count(quad)

    m["asymptotics.marginal_ratio_convergence.pct"] = pct(table.seconds(
        table.mask(["asymptotics.marginal_ratio_convergence"])))
    m["asymptotics.pointwise.pct"] = pct(table.seconds(
        table.mask([f"asymptotics.{n}" for n in POINTWISE])))
    spec = table.mask(names("specfun."))
    m["specfun.calls"] = table.calls(spec)
    m["specfun.pct"] = pct(table.seconds(spec))
    for fn in ("reduced_target", "load_csv", "standardize"):
        m[f"model.{fn}.pct"] = pct(table.seconds(table.mask([f"model.{fn}"])))
    cli = table.mask(names("cli."))
    m["cli.main.self_pct"] = pct(table.self_seconds(cli))
    m["cli.output_bytes"] = table.total_size(table.mask(["cli.main"]))
    return m


def layer_detail(table, window_s):
    """Absolute per-call costs, for the readable report."""
    out = {}
    for key, spans, unit in (
            ("model.grad_logpdf", ["model.PosteriorTarget.grad_logpdf"], "rows"),
            ("model.logpdf", ["model.PosteriorTarget.logpdf"], "rows"),
            ("priors.log_density", [f"priors.{f}.log_density" for f in FAMILIES], "elems"),
            ("priors.grad_log_density",
             [f"priors.{f}.grad_log_density" for f in FAMILIES], "elems"),
            ("sampler.leapfrog", ["sampler.leapfrog"], None),
            ("oracle.quadrature_moments", ["oracle.quadrature_moments"], None)):
        mk = table.mask(spans)
        calls = table.calls(mk)
        if not calls:
            continue
        self_s = table.self_seconds(mk)
        out[f"{key}.self_s"] = self_s
        out[f"{key}.us_per_call"] = 1e6 * table.seconds(mk) / calls
        if unit == "elems":
            out[f"{key}.ns_per_elem"] = 1e9 * self_s / max(1, table.total_size(mk))
    sample = table.mask(["sampler.sample"])
    if table.calls(sample):
        out["sampler.sample.s"] = table.seconds(sample)
        out["sampler.iters_per_s"] = table.total_size(sample) / table.seconds(sample)
        # Self time of every span under sample() adds up to its wall time;
        # list the layers it splits into.
        inside = table.subtree(["sampler.sample"])
        for nid, name in enumerate(table.names):
            share = float(table.self_ns[inside & (table.name_id == nid)].sum()) * 1e-9
            if share > 0:
                out[f"sample.self.{name}"] = share
    return out


def untraced_pass(workload, errors, import_s):
    """Set up SETUP_REPEATS times, then time every operation and gate it."""
    builds = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        ops = workload.build()
        builds.append(time.perf_counter() - t)
    host = HostSpeed()
    outputs, seconds, nominal, raised = run_ops(ops, errors, host)
    reasons = gate(ops, outputs, raised)
    return {"ops": ops, "work": work_done(ops, outputs, reasons), "seconds": seconds,
            "nominal": nominal, "reasons": reasons, "host": host,
            "setup_s": import_s + statistics.median(builds)}


def traced_pass(workload, errors, untraced, workdir, seed, env):
    """Build and run the operations again with every public call traced."""
    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    t = time.perf_counter()
    ops = workload.build()
    build_s = time.perf_counter() - t
    outputs, seconds, nominal, raised = run_ops(ops, errors, HostSpeed())
    tracer.enabled = False
    reasons = gate(ops, outputs, raised)
    _, _, work = primary_figures(workload, ops, work_done(ops, outputs, reasons),
                                 nominal)
    table = SpanTable(tracer)
    window_s = build_s + sum(seconds)

    metrics = layer_metrics(table, window_s, work, tracer.kept)
    metrics["probe.lptn_lambda10.failed"] = int(workloads.probe_lptn_scaling())
    metrics["probe.fit_default_step.failed"] = int(
        workloads.probe_fit_default_step(workdir, seed))
    metrics["trace.window_s"] = window_s
    metrics["trace.overhead_pct"] = 100.0 * (sum(nominal) / sum(untraced["nominal"]) - 1.0)
    metrics["trace.spans"] = len(table.dur)
    metrics["repo.source_lines"] = env["source_lines"]
    metrics["repo.public_names"] = env["public_names"]
    tracer.save(OUT / f"{workload.name}-seed{seed}-spans.npz")
    return metrics, reasons, layer_detail(table, window_s)


def run(args, import_s):
    """One benchmark run; returns the process exit code."""
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore", UserWarning)
    errors = (rp.NumericalError, rp.DivergenceError)
    env = environment(args.seed)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{stem}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds, workdir)
        measured = untraced_pass(workload, errors, import_s)
        ops, reasons = measured["ops"], measured["reasons"]
        report = issue_report(workload, measured)
        if args.trace:
            metrics, t_reasons, detail = traced_pass(
                workload, errors, measured, workdir, args.seed, env)
            reasons = [a or b for a, b in zip(reasons, t_reasons)]
            units = PER_LAYER
        else:
            lat, rate, _ = primary_figures(workload, ops, measured["work"],
                                           measured["nominal"])
            metrics = {"setup_s": measured["setup_s"], "op_p50_ms": lat["p50_ms"],
                       "work_per_s": rate, "peak_rss_mb": peak_rss_mb()}
            units, detail = END_TO_END, {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(r is not None for r in reasons)
    line = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    result = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "env": env, "result": line,
        "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
        "layer_detail": detail,
        "ops": [{"kind": op.kind, "label": op.label, "s": s, "nominal_s": n,
                 "failed": r, "work": w}
                for op, w, s, n, r in zip(ops, measured["work"], measured["seconds"],
                                          measured["nominal"], reasons)],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for key, (value, unit) in report.items():
        print(f"  {key:<28} {value:>14.6g} {unit}")
    for key, value in detail.items():
        print(f"  {key:<44} {value:>14.6g}")
    for op, r in zip(ops, reasons):
        if r is not None:
            print(f"  FAILED {op.label}: {r}")
    print(json.dumps(line))
    return 0

