"""ardnet benchmark: one seeded workload, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from the repository root; the package is imported from ./src.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.  Lines before it
are a readable report.  Reports and spans are written under
./.perfbench_out.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import dataclasses
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# one BLAS thread, set in main() before numpy is first imported: on a small
# shared machine one thread keeps the run-to-run spread low
BLAS_THREADS = 1
# the set-up is repeated for this long before the first sample and after
# every sample, and the median of all repetitions is reported: it then spans
# the whole run, like the samples
SETUP_BURST_S = 0.25

ROADMAP_LENET5_MS = {  # layer index -> (fwd, bwd) ms at batch 64
    0: (12.5, 22.3), 1: (15.3, 19.3), 2: (19.7, 40.5), 3: (4.4, 4.2), 5: (1.4, 3.8)}
ROADMAP_LENET5_DIAG_MS = 740.0  # whole diag curvature pass at batch 256

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "train_samples_per_s": "samples/s",
             "peak_rss_mb": "MB", "test_error": "fraction or MSE",
             "support_errors": "count", "param_ratio": "fraction",
             "fail_ratio": "fraction"}
# the end-to-end metrics every workload reports in the result line; the
# others are not defined on every workload or can be 0
RESULT_METRICS = ("setup_s", "wall_s", "train_samples_per_s", "peak_rss_mb")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    if not (SRC / "ardnet" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'ardnet'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import ardnet
    if not Path(ardnet.__file__).resolve().is_relative_to(SRC):
        fail(f"imported ardnet from {ardnet.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# environment


def git_commit():
    """HEAD of the checkout, or "unknown" when the checkout itself is not a
    git repository (the ceiling keeps git from finding an enclosing one)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        vendor = "unknown"
    return {"numpy": np.__version__, "blas": vendor, "blas_threads": BLAS_THREADS,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": git_commit(), "seed": seed}


# ---------------------------------------------------------------------------
# statistics


def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def per_task(samples):
    """task seed -> ok samples of that task, in run order."""
    out = {}
    for s in samples:
        if s.ok:
            out.setdefault(s.task, []).append(s)
    return out


def check_digests(samples):
    """Mark every sample whose digest differs from the first one of its
    task as a failed, wrong output."""
    first = {}
    for s in samples:
        if not s.ok:
            continue
        ref = first.setdefault(s.task, s.digest)
        if s.digest != ref:
            s.error = f"digest {s.digest} != {ref} for the same task"
            s.wrong_output = True


def outcome(samples):
    """(correct, attempted, failed, failure lines) of a run's samples."""
    return (not any(s.wrong_output for s in samples), len(samples),
            sum(not s.ok for s in samples),
            [f"task {s.task}: {s.error}" for s in samples if not s.ok])


# ---------------------------------------------------------------------------
# runs


def closed_loop(workload, tasks, seconds, between, gauge=None):
    """One caller: each sample starts when the last ends, cycling through the
    tasks, and ``between()`` runs after each sample.  Every task runs once
    and the first one twice, whatever ``seconds`` says, so that a digest is
    always checked against a repeat; after that no sample starts that is
    expected to end past ``seconds``."""
    from workloads import run_sample
    samples = []
    t_start = time.perf_counter()
    while True:
        task = tasks[len(samples) % len(tasks)]
        if len(samples) > len(tasks):
            own = [s.raw_s for s in samples if s.ok and s.task == task.seed]
            guess = own[-1] if own else 0.0
            if time.perf_counter() - t_start + guess > seconds:
                break
        samples.append(run_sample(workload, task, gauge))
        between()
    return samples


def end_to_end(workload, seed, seconds, workdir):
    from gauge import Gauge
    raw = workload.prepare(seed)
    setup_times, setup_raw, input_digests = [], [], set()

    def setup_burst():
        """Repeat the program-side set-up for SETUP_BURST_S; returns the
        tasks it built."""
        t_end = time.perf_counter() + SETUP_BURST_S
        while True:
            tasks, timing = gauge.measure(lambda: workload.setup(raw, workdir))
            setup_times.append(timing["wall_s"])
            setup_raw.append(timing["raw_s"])
            input_digests.add(workload.input_digest(tasks))
            if time.perf_counter() >= t_end:
                return tasks

    with Gauge(workload.gauge_kernel) as gauge:
        tasks = setup_burst()
        samples = closed_loop(workload, tasks, seconds, setup_burst, gauge)
    same_inputs = len(input_digests) == 1
    check_digests(samples)
    correct, attempted, failed, failures = outcome(samples)
    by_task = per_task(samples)
    if not by_task:
        fail(f"{workload.name}: every sample failed: {samples[0].error}")
    medians = {t: statistics.median(s.wall_s for s in ss) for t, ss in by_task.items()}
    firsts = [ss[0] for ss in by_task.values()]
    ok = [s for s in samples if s.ok]
    ok_walls = [s.wall_s for s in ok]
    metrics = {
        "setup_s": statistics.median(setup_times),
        # each task's median sample, averaged over the run's tasks
        "wall_s": statistics.fmean(medians.values()),
        "train_samples_per_s": (sum(s.train_samples for s in firsts)
                                / sum(medians.values())),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_error": statistics.median(s.test_error for s in firsts),
        "support_errors": (sum(s.support_errors for s in firsts)
                           if firsts[0].support_errors is not None else None),
        "param_ratio": (statistics.median(s.param_ratio for s in firsts)
                        if firsts[0].param_ratio is not None else None),
        "fail_ratio": failed / attempted,
    }
    detail = {
        "tasks": [t.seed for t in tasks], "setup_reps": len(setup_times),
        "setup_raw_s": statistics.median(setup_raw),
        "ok_samples": len(ok),
        "wall_s_sample_median": statistics.median(ok_walls),
        "wall_s_tail": tail(ok_walls),
        "raw_s_sample_median": statistics.median(s.raw_s for s in ok),
        "gauge_speed_s": statistics.median(s.speed_s for s in ok),
        "gauge_ticks": len(gauge.ticks),
        "cpu_per_wall": statistics.median(s.cpu_s / s.raw_s for s in ok),
        "run_delay_s": sum(s.run_delay_s for s in ok),
        "task_wall_s": medians,
        "task_samples": {t: len(ss) for t, ss in by_task.items()},
        "digests": {t: ss[0].digest for t, ss in by_task.items()},
        "failures": failures,
        "samples": [dataclasses.asdict(s) for s in samples],
    }
    if not same_inputs:
        failures.append("set-up built different inputs on repetition")
    return correct and same_inputs, attempted, failed, metrics, detail


def traced(workload, seed, workdir, spans_path):
    """Traced set-up and one traced sample, bracketed by untraced samples of
    the same task for the tracing overhead, then the layer-kind probes.
    The three samples are gauged, so that the overhead is not the host's
    change of speed; the spans are not rescaled."""
    from gauge import Gauge
    from spans import Tracer
    from workloads import PROBE_METRICS, run_sample
    tracer = Tracer()
    raw = workload.prepare(seed)
    with tracer:
        tasks = workload.setup(raw, workdir)
    samples, chosen = [], None
    overhead, probe = 0.0, {}
    with Gauge(workload.gauge_kernel) as gauge:
        for task in tasks:  # the first task whose untraced sample succeeds
            samples.append(run_sample(workload, task, gauge))
            if samples[-1].ok:
                chosen = task
                break
        if chosen is not None:
            with tracer:
                traced_sample = run_sample(workload, chosen, gauge)
            samples.append(traced_sample)
            samples.append(run_sample(workload, chosen, gauge))
    if chosen is not None:
        base = [s.wall_s for s in samples if s.ok and s is not traced_sample]
        if traced_sample.ok:
            overhead = traced_sample.wall_s / statistics.fmean(base) - 1.0
        probe = workload.probe(chosen)
    check_digests(samples)
    correct, attempted, failed, failures = outcome(samples)
    metrics = tracer.summary()
    for name in PROBE_METRICS:
        metrics[name] = probe.get(name, 0.0)
    metrics["trace.overhead"] = overhead
    tracer.save(spans_path)
    detail = {"traced_task": chosen.seed if chosen else None, "probe": probe,
              "spans": len(tracer.start), "spans_file": str(spans_path.relative_to(ROOT)),
              "failures": failures}
    return correct, attempted, failed, metrics, detail


def per_layer_units():
    """name -> unit of every per-layer metric, in report order."""
    from spans import COUNTERS, STATS, span_names
    from workloads import PROBE_METRICS
    units = {f"{name}.{stat}": unit for name in span_names() for stat, unit in STATS}
    units.update(dict.fromkeys(COUNTERS, "count"))
    units.update(dict.fromkeys(PROBE_METRICS, "ms"))
    units["trace.overhead"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# report


def fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_end_to_end(name, metrics, detail):
    print(f"# {name}: tasks {detail['tasks']}, {len(detail['samples'])} samples "
          f"({detail['ok_samples']} ok), set-up repeated {detail['setup_reps']}x")
    for key, unit in E2E_UNITS.items():
        print(f"{name:18s} {key:20s} {fmt(metrics[key]):>12s} {unit}")
    t = detail["wall_s_tail"]
    tail_txt = (f"p{t[0]:.0f} {t[1]:.6g} s" if t else
                "no percentile has 10 samples beyond it")
    print(f"{name:18s} wall_s over all samples: median "
          f"{detail['wall_s_sample_median']:.6g} s, {tail_txt}, n={detail['ok_samples']}; "
          f"CPU/wall {detail['cpu_per_wall']:.4f}, run delay {detail['run_delay_s']:.4g} s")
    print(f"{name:18s} not rescaled: sample median {detail['raw_s_sample_median']:.6g} s, "
          f"set-up median {detail['setup_raw_s']:.6g} s; gauge tick median "
          f"{1e6 * detail['gauge_speed_s']:.4g} us over {detail['gauge_ticks']} ticks")
    for task, digest in detail["digests"].items():
        print(f"{name:18s} task {task}: median {detail['task_wall_s'][task]:.6g} s of "
              f"{detail['task_samples'][task]} samples, digest {digest}")
    for line in detail["failures"]:
        print(f"{name:18s} FAILED {line}")


def print_traced(name, metrics, detail, units):
    probe = detail["probe"]
    rows = probe.get("rows", [])
    if rows:
        print(f"# {name}: layer-kind probe (median ms; ROADMAP baseline in brackets)")
        for idx, kind, fwd, bwd in rows:
            base = ROADMAP_LENET5_MS.get(idx) if name == "compress-lenet5" else None
            if base:
                ratio = (fwd + bwd) / sum(base)
                verdict = "holds" if 2 / 3 <= ratio <= 1.5 else (
                    "faster" if ratio < 1 else "slower")
                print(f"  layer {idx} {kind:9s} fwd {fwd:8.3f} [{base[0]}]  bwd "
                      f"{bwd:8.3f} [{base[1]}]  x{ratio:.2f} baseline {verdict}")
            else:
                print(f"  layer {idx} {kind:9s} fwd {fwd:8.3f}  bwd {bwd:8.3f}")
    for mode in ("diag", "exact"):
        if f"{mode}_total_ms" in probe:
            extra = (f" [ROADMAP {ROADMAP_LENET5_DIAG_MS:.0f}]"
                     if name == "compress-lenet5" and mode == "diag" else "")
            print(f"  whole {mode} curvature pass {probe[f'{mode}_total_ms']:.1f} ms{extra}")
    print(f"# {name}: traced task {detail['traced_task']}, {detail['spans']} spans "
          f"-> {detail['spans_file']}; trace.overhead {metrics['trace.overhead']:.4f}")
    for key, unit in units.items():
        if metrics[key]:
            print(f"{name:18s} {key:52s} {fmt(metrics[key]):>12s} {unit}")
    for line in detail["failures"]:
        print(f"{name:18s} FAILED {line}")


def run_one(name, seed, seconds, trace):
    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    env = environment(seed)
    print("# environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        if trace:
            units = per_layer_units()
            correct, attempted, failed, metrics, detail = traced(
                workload, seed, workdir, OUT / f"{stem}-spans.npz")
            print_traced(name, metrics, detail, units)
            result = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
        else:
            correct, attempted, failed, metrics, detail = end_to_end(
                workload, seed, seconds, workdir)
            print_end_to_end(name, metrics, detail)
            result = {k: {"value": metrics[k], "unit": E2E_UNITS[k]} for k in RESULT_METRICS}
    report = {"workload": name, "environment": env, "correct": correct,
              "attempted": attempted, "failed": failed, "metrics": metrics,
              "detail": detail}
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))


def run_all(seed, seconds, trace):
    """Each workload in its own process, so peak memory stays per workload;
    then one table of the end-to-end metrics."""
    from workloads import WORKLOADS
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, check=False)
        status = status or proc.returncode
    if trace or status:
        return status
    print("# end-to-end metrics, seed", seed)
    reports = {n: json.loads((OUT / f"{n}-seed{seed}-trace0.json").read_text())
               for n in WORKLOADS}
    print(f"{'metric':22s} {'unit':16s}" + "".join(f"{n:>20s}" for n in WORKLOADS))
    for key, unit in E2E_UNITS.items():
        print(f"{key:22s} {unit:16s}"
              + "".join(f"{fmt(reports[n]['metrics'][key]):>20s}" for n in WORKLOADS))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="graph-search, compress-lenet5, compress-fc-exact or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0 or math.isinf(args.seconds):
        parser.error("--seed must be >= 0 and --seconds a positive number")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    import_package()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS and args.workload != "all":
        parser.error(f"unknown workload {args.workload!r}")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    run_one(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
