"""Benchmark of cvloc training, evaluation and orientation.

Run from the repository root:

    python3 perfbench/run.py --workload train-dense --seed 1 --seconds 20 --trace 0

Workloads are train-dense, train-cvr and infer-orient (see perfbench/README.md).
With --trace 0 the run repeats the workload's round until --seconds have
passed, sets up several times along the way, and reports the end-to-end
metrics. With --trace 1 it alternates untraced and traced rounds and reports
the per-layer metrics of the traced ones. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics. A fuller
record of the run (metadata, ungated detail metrics, quality guards, checks)
goes to .perfbench/<workload>-seed<n>-trace<t>.json; a traced run also writes
its last round's spans next to it.
"""

import os
import sys

# One BLAS thread, pinned before numpy loads: two threads are slower on this
# model's small matrices and collapse when another process shares the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True  # leave no caches in the checkout

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from hooks import Clock, Patches, SpanSummary, Tracer, write_spans  # noqa: E402
from layers import per_layer_spec, per_layer_values  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("train-dense", "train-cvr", "infer-orient")
SETUPS = 5  # set-ups per untraced run, spread over the run; setup_s is their median
DEADLINE_S = 150.0  # no round starts that would end past this (the limit is 180 s)
# On a shared cloud VM, other tenants slow the CPU by up to 1.7x, in episodes
# that mostly come and go within a second. Per-sample timings are therefore grouped into
# windows of this length, and the run reports its fastest window.
WINDOW_MS = 50.0

# Per-sample figures of the ROADMAP "State" section (2-core VM, one BLAS
# thread), printed next to this run's for comparison.
ROADMAP_STATE = {
    "train-dense": ("dense forward+backward, ms/sample", 14.4),
    "train-cvr": ("CVR forward+backward, ms/sample", 3.65),
    "infer-orient": ("dense no_grad forward, ms/sample", 3.3),
    "gen": ("gen of 2,700 samples, s", 4.4),
}
E2E_UNITS = {"setup_s": "s", "samples_per_s": "1/s", "sample_ms": "ms", "peak_rss_mb": "MB"}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--geometry", choices=("desk", "mini"), default="desk")
    return p.parse_args(argv)


def _percentile(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def _tail(values):
    """(q, value) of the highest of p99/p95/p90/p75 with ten samples beyond it."""
    for q in (99, 95, 90, 75):
        if len(values) * (100 - q) / 100 >= 10:
            return q, _percentile(values, q)
    return None


def _median(values):
    return statistics.median(values) if values else 0.0


def _windows(stretches):
    """Split each stretch of consecutive per-sample times (ms) into windows
    spanning at least WINDOW_MS; partial windows are dropped unless there is
    no full one."""
    out = []
    for values in stretches:
        window, span = [], 0.0
        for v in values:
            window.append(v)
            span += v
            if span >= WINDOW_MS:
                out.append(window)
                window, span = [], 0.0
    return out or [[v for values in stretches for v in values]]


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _metadata(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "seconds": args.seconds,
        "geometry": args.geometry,
        "blas_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }


def _cpus():
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []


def _probe_s(a=np.full((64, 64), 0.5)):
    """Time a fixed run of small numpy ops driven from Python, the kind of
    work set-up does."""
    t0 = perf_counter()
    for _ in range(100):
        a = a * 0.999 + 0.001
    return perf_counter() - t0


def _pin_quiet_cpu(cpus, best):
    """Pin the process to a CPU whose probe reads within 10% of the fastest
    probe of the run (`best[0]`), trying the CPUs in turn for up to a second."""
    deadline = perf_counter() + 1.0
    for i in itertools.count():
        if len(cpus) > 1:
            os.sched_setaffinity(0, {cpus[i % len(cpus)]})
        t = _probe_s()
        best[0] = min(best[0], t)
        if t <= 1.1 * best[0] or perf_counter() > deadline:
            return


def _measure(seconds, t_process, step):
    """Call `step` until `seconds` have passed (at least once).

    Successive steps run on the process's CPUs in turn. Slow episodes on a
    shared VM hit one vCPU at a time, so a run that visits every CPU is far
    less likely to see no fast stretch at all.
    """
    cpus = _cpus()
    t0 = perf_counter()
    try:
        for i in itertools.count():
            if len(cpus) > 1:
                os.sched_setaffinity(0, {cpus[i % len(cpus)]})
            t_step = perf_counter()
            step()
            now = perf_counter()
            if now - t0 >= seconds or (now - t_process) + (now - t_step) > DEADLINE_S:
                return
    finally:
        if len(cpus) > 1:
            os.sched_setaffinity(0, cpus)


def _guard_checks(rounds, label):
    done = [r for r in rounds if r.guards]
    if not done:
        return [(f"{label}: no round completed", False)]
    return [
        (
            f"{label}: quality guards repeat bit for bit over {len(done)} rounds",
            all(repr(r.guards) == repr(done[0].guards) for r in done),
        )
    ]


def _detail_metrics(workload, done):
    """Ungated detail metrics for the report: medians over rounds, and
    timings as median and tail with their sample count."""
    if workload == "infer-orient":
        detail = {
            "eval_samples_per_s": _median([r.detail["eval_samples_per_s"] for r in done]),
            "orient_s": _median([r.detail["orient_s"] for r in done]),
        }
        series = {"forward_ms": [x for r in done for x in r.detail["forward_ms"]]}
    else:
        detail = {
            "epoch_s": _median([r.detail["epoch_s"] for r in done]),
            "train_samples_per_s": _median([r.detail["train_samples_per_s"] for r in done]),
        }
        series = {
            "step_ms": [x for r in done for x in r.detail["step_ms"]],
            "fb_ms": [x for r in done for x in r.detail["fb_ms"]],
        }
    lines = [f"{k}: {v:.6g}" for k, v in detail.items()]
    for name, values in series.items():
        detail[f"{name}_p50"] = _percentile(values, 50)
        detail[f"{name}_n"] = len(values)
        text = f"{name}: p50 {detail[f'{name}_p50']:.4f}"
        tail = _tail(values)
        if tail:
            detail[f"{name}_p{tail[0]}"] = tail[1]
            text += f", p{tail[0]} {tail[1]:.4f}"
        lines.append(f"{text} ms (n={len(values)})")
    return detail, lines


def _untraced_run(args, wl, work, t_process):
    setups = []
    cpus, best_probe = _cpus(), [min(_probe_s() for _ in range(20))]

    def set_up():
        # Each set-up starts on a CPU that the probe finds uncontended, so
        # that setup_s does not follow the other tenants' load.
        _pin_quiet_cpu(cpus, best_probe)
        d = os.path.join(work, f"setup{len(setups)}")
        setups.append(wl.setup(d))
        if len(setups) > 1:
            shutil.rmtree(d, ignore_errors=True)  # rounds use the first set-up

    rounds = []

    def step():
        # Set-ups are spread over the run so that their median does not hang
        # on one moment's CPU speed.
        if len(setups) < SETUPS and perf_counter() - t0 >= len(setups) * args.seconds / SETUPS:
            set_up()
        rounds.append(wl.run_round(setups[0], os.path.join(work, "round")))

    t0 = perf_counter()
    set_up()
    _measure(args.seconds, t_process, step)
    while len(setups) < SETUPS:
        set_up()

    checks = [("every set-up writes the same dataset and checkpoint", len({s.fingerprint for s in setups}) == 1)]
    checks += _guard_checks(rounds, "untraced")
    for r in rounds:
        checks += r.checks
    done = [r for r in rounds if r.guards]

    metrics = {
        "setup_s": _median([s.setup_s for s in setups]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if done:
        per_sample = _windows([r.per_sample_ms for r in done])
        intervals = _windows([iv for r in done for iv in r.intervals_ms])
        metrics["samples_per_s"] = max(len(w) / sum(w) * 1e3 for w in intervals)
        metrics["sample_ms"] = min(statistics.median(w) for w in per_sample)
        detail, lines = _detail_metrics(args.workload, done)
    else:
        detail, lines = {}, []
    metrics = {k: (metrics.get(k, 0.0), unit) for k, unit in E2E_UNITS.items()}
    lines = [f"{k}: {v:.6g} {u}" for k, (v, u) in metrics.items()] + [
        f"rounds: {len(rounds)}, set-ups: {len(setups)}"
    ] + lines
    guards = done[0].guards if done else {}
    lines += [f"guard {k}: {v!r}" for k, v in guards.items()]

    ref_name, ref = ROADMAP_STATE[args.workload]
    gen_name, gen_ref = ROADMAP_STATE["gen"]
    comparison = {
        ref_name: (ref, _percentile([x for r in done for x in r.per_sample_ms], 50)),
        gen_name: (gen_ref, _median([s.gen_s / s.n_generated for s in setups]) * 2700),
    }
    for name, (theirs, ours) in comparison.items():
        lines.append(f"vs ROADMAP state: {name}: {ours:.4g} here (median), {theirs} there ({ours / theirs:.2f}x)")

    return {
        "metrics": metrics,
        "detail": detail,
        "guards": guards,
        "roadmap_comparison": {k: {"roadmap": t, "here": o} for k, (t, o) in comparison.items()},
        "attempted": max(1, sum(r.attempted for r in rounds)),
        "failed": sum(r.failed for r in rounds),
        "checks": checks,
        "lines": lines,
    }


def _traced_run(args, wl, work, t_process, stem):
    setup = wl.setup(os.path.join(work, "setup"))
    setup_tracer = Tracer()
    with Patches() as p:
        setup_tracer.install(p)
        traced_setup = wl.setup(os.path.join(work, "setup-traced"))
    setup_summary = SpanSummary(setup_tracer, traced_setup.setup_s, wl.stages)
    checks = [("traced set-up writes the same dataset and checkpoint", traced_setup.fingerprint == setup.fingerprint)]
    del setup_tracer

    untraced, traced, values, last = [], [], [], {}
    round_dir = os.path.join(work, "round")

    def pair():
        t0 = perf_counter()
        untraced.append((wl.run_round(setup, round_dir), perf_counter() - t0))
        tracer = Tracer()
        with Patches() as p:
            tracer.install(p)
            t0 = perf_counter()
            r = wl.run_round(setup, round_dir)
            wall = perf_counter() - t0
        traced.append((r, wall))
        if r.guards:
            summary = SpanSummary(tracer, wall, wl.stages)
            values.append(per_layer_values(summary, setup_summary, r))
            last.update(tracer=tracer, t_ref=t0, summary=summary)

    _measure(args.seconds, t_process, pair)
    rounds = [r for r, _ in untraced + traced]
    checks += _guard_checks(rounds, "untraced and traced")
    for r in rounds:
        checks += r.checks

    # Counts repeat exactly from round to round; times are medians over rounds.
    metrics = {}
    for name in values[0] if values else ():
        series = [v[name] for v in values]
        if isinstance(series[0], int):
            checks.append((f"{name} repeats over traced rounds", len(set(series)) == 1))
            metrics[name] = series[0]
        else:
            metrics[name] = _median(series)
    walls_u = [wall for r, wall in untraced if r.guards]
    walls_t = [wall for r, wall in traced if r.guards]
    metrics["trace.overhead_ms"] = (_median(walls_t) - _median(walls_u)) * 1e3

    spec = per_layer_spec(wl.stages)
    checks += [
        (f"{name} is non-zero on {args.workload}", metrics.get(name, 0) > 0)
        for name, _, on in spec
        if args.workload in on
    ]
    lines = [f"{name}: {metrics.get(name, 0.0):.6g} {unit}" for name, unit, _ in spec]
    if traced:
        lines.append(f"samples per round (base of the per-sample metrics): {traced[-1][0].samples}")
    if last:
        write_spans(stem + ".spans.json.gz", last["tracer"].spans, last["t_ref"])
        s = last["summary"]
        lines.append(
            f"layer self times {sum(s.self_s.values()) * 1e3:.3f} ms + untraced remainder"
            f" {s.untraced_s * 1e3:.3f} ms = traced round wall {s.wall_s * 1e3:.3f} ms"
        )
    lines.append(
        f"tracing overhead: {metrics['trace.overhead_ms']:.3f} ms per round (median traced"
        f" {_median(walls_t):.4f} s vs untraced {_median(walls_u):.4f} s over {len(walls_t)} pairs)"
    )
    guards = next((r.guards for r in rounds if r.guards), {})
    lines += [f"guard {k}: {v!r}" for k, v in guards.items()]
    return {
        "metrics": {name: (metrics.get(name, 0.0), unit) for name, unit, _ in spec},
        "guards": guards,
        "attempted": max(1, sum(r.attempted for r in rounds)),
        "failed": sum(r.failed for r in rounds),
        "checks": checks,
        "lines": lines,
    }


def main(argv=None) -> int:
    t_process = perf_counter()
    args = _parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import cvloc  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import cvloc from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(ROOT, "configs")):
        print(f"perfbench: no configs/ directory under {ROOT}", file=sys.stderr)
        return 2
    from workloads import Workload

    os.makedirs(OUT_DIR, exist_ok=True)
    work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    clock = Clock()
    try:
        with Patches() as patches:
            clock.install(patches)
            wl = Workload(args.workload, ROOT, args.seed, args.geometry, clock)
            if args.trace:
                record = _traced_run(args, wl, work, t_process, stem)
            else:
                record = _untraced_run(args, wl, work, t_process)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record["meta"] = _metadata(args)
    record["checks"] += clock.checks
    failed_checks = [what for what, ok in record["checks"] if not ok]
    correct = not failed_checks and record["failed"] == 0
    for what in failed_checks:
        print(f"CHECK FAILED: {what}")
    print(f"meta: {json.dumps(record['meta'])}")
    for line in record["lines"]:
        print(line)
    print(
        f"fail_frac: {record['failed'] / record['attempted']:.6g}"
        f" ({record['failed']} of {record['attempted']} operations)"
    )
    with open(stem + ".json", "w") as fh:
        json.dump({**record, "correct": correct}, fh, indent=1)
    result = {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
