#!/usr/bin/env python3
"""magflow benchmark: seeded CLI job lists, timed in one process.

    python3 perfbench/run.py --workload orbits --seed 1 --seconds 30 --trace 0

One client runs the workload's jobs through `magflow.cli` with `--threads 1`,
one after another, and checks each job's output against a closed-form
oracle.  It repeats the whole list until `--seconds` is used up.  With
`--trace 0` it reports the end-to-end metrics; with `--trace 1` it
alternates untraced and traced passes and reports per-layer metrics.  The
last line of standard output is the JSON result; the lines before it repeat
the metrics with their units, the failures and the machine's state.
See perfbench/README.md.
"""
import os

# One BLAS/OpenMP thread, set before anything imports numpy.
PINNED = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(PINNED)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import jobs as workloads  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
# Seconds `reference_work` takes at the reference speed (a 2-vCPU x86-64
# sandbox, Python 3.11, numpy 2.4).  Times are reported at this speed.
REFERENCE_S = 0.038

END_TO_END = {"wall_s": "s", "job_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

SUBCOMMANDS = ("integrate", "transport", "holonomy", "sec", "anosov-report", "curvature",
               "lyapunov", "conjugate-scan", "angle", "volume", "regimes", "cartan-probe")

PER_LAYER = {
    "geometry.metric.calls": "count",
    "geometry.chart_guard.calls": "count",
    "geometry.christoffel.calls": "count",
    "geometry.christoffel.self_s": "s",
    "forms.sigma.calls": "count",
    "forms.sigma.self_s": "s",
    "system.lorentz.calls": "count",
    "system.lorentz.self_s": "s",
    "flow.generator.calls": "count",
    "flow.generator.self_s": "s",
    "flow.integrate.self_s": "s",
    "flow.rhs_per_step": "rhs/step",
    "flow.metric_evals_per_rhs": "evals/rhs",
    "flow.guard_calls_per_rhs": "calls/rhs",
    "transport.frame_flow.self_s": "s",
    "transport.parallel_transport.self_s": "s",
    "transport.holonomy.return_evals": "evals/holonomy",
    "cli.output.bytes": "bytes",
    "cli.output.self_s": "s",
    "geometry.riemann.self_s": "s",
    "system.nabla_lorentz.calls": "count",
    "system.nabla_lorentz.self_s": "s",
    "curvature.op_A.self_s": "s",
    "curvature.op_R.self_s": "s",
    "curvature.magnetic_sectional.self_s": "s",
    "curvature.anosov_report.self_s": "s",
    "curvature.nabla_per_sectional": "calls/sectional",
    "scenario.load_scenario.self_s": "s",
    "scenario.build_system.self_s": "s",
    "geometry.dchristoffel.self_s": "s",
    "system.dlorentz.self_s": "s",
    "flow.generator_jacobian.calls": "count",
    "flow.generator_jacobian.self_s": "s",
    "flow.variational_flow.calls": "count",
    "flow.variational_flow.self_s": "s",
    "flow.variational_floats_per_step": "floats/step",
    "diagnostics.lyapunov_spectrum.self_s": "s",
    "diagnostics.conjugate_point_scan.self_s": "s",
    "diagnostics.transversality_angle.self_s": "s",
    "diagnostics.qr_segments": "count",
    "submanifold.hessian.calls": "count",
    "submanifold.hessian.self_s": "s",
    "submanifold.variational_per_hessian": "calls/hessian",
    "submanifold.cartan.plane_yield": "ratio",
    **{f"cli.{cmd}.p50_s": "s" for cmd in SUBCOMMANDS},
    "trace.overhead_s": "s",
}


def reference_work() -> float:
    """Seconds taken by a fixed piece of small-array numpy and Python work,
    the same mix as magflow's inner loops but independent of magflow.

    A shared machine's speed drifts by a quarter within seconds; this work
    slows down with it, so a job time scaled by REFERENCE_S / reference_work()
    measured next to it keeps the job's own cost and drops the drift."""
    t0 = perf_counter()
    a = np.eye(3) * 4.0 + np.arange(9.0).reshape(3, 3) * 0.01
    t = np.arange(27.0).reshape(3, 3, 3) * 0.01
    y = np.ones(3)
    for _ in range(1000):
        g = a + 0.01 * np.outer(y, y)
        c = 0.5 * np.einsum("il,ljk->ijk", np.linalg.inv(g), t)
        y = y + 1e-3 * (np.linalg.solve(g, y) - np.einsum("ijk,j,k->i", c, y, y))
    return perf_counter() - t0


def environment() -> dict:
    return {"nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "pinned_threads": PINNED}


def measure_setup(samples: int) -> tuple:
    """Median wall time of a fresh interpreter importing magflow.cli, after
    one untimed import that fills the bytecode cache: (scaled, raw)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    cmd = [sys.executable, "-c", "import magflow.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True, timeout=120)
    raw, ref = [], [reference_work()]
    for _ in range(samples):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True, timeout=120)
        raw.append(perf_counter() - t0)
        ref.append(reference_work())
    return statistics.median(_scaled(raw, ref)), statistics.median(raw)


def _scaled(times, ref):
    """times[i] at the reference speed, from the reference work timed just
    before (ref[i]) and just after (ref[i + 1]) it."""
    return [t * 2 * REFERENCE_S / (ref[i] + ref[i + 1]) for i, t in enumerate(times)]


class Client:
    """Runs jobs through the CLI in this process and checks their outputs."""

    def __init__(self, cli_main):
        self.cli_main = cli_main

    def run_job(self, job, out: Path) -> dict:
        args = [job.command, str(job.scenario_path), "--out", str(out), "--threads", "1"]
        sink = io.StringIO()
        crash = None
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                self.cli_main.main(args=args, prog_name="magflow", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a traceback fails the job, not the benchmark
            code, crash = None, traceback.format_exc(limit=4)
        seconds = perf_counter() - t0
        problems, partial = [], False
        if code != 0:
            problems.append(f"exit code {code}: {(crash or sink.getvalue()).strip()[-300:]}")
        else:
            try:
                problems, partial = job.check(out)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        return {"job": job.name, "command": job.command, "raw_seconds": seconds,
                "ok": not problems, "partial": bool(partial), "problems": problems}

    def run_pass(self, jobs, out: Path, tracer=None, job_base=0) -> list:
        """One pass over the job list; each result gets `raw_seconds` and
        `seconds`, the time at the reference speed."""
        shutil.rmtree(out, ignore_errors=True)
        results, ref = [], [reference_work()]
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = job_base + i
            results.append(self.run_job(job, out / job.name))
            ref.append(reference_work())
        scaled = _scaled([r["raw_seconds"] for r in results], ref)
        for i, r in enumerate(results):
            r.update(seconds=scaled[i], speed=scaled[i] / r["raw_seconds"],
                     reference_s=ref[i:i + 2])
        return results


def repeat_for(seconds: float, step) -> None:
    """Call `step` until the next call would end after `seconds`; at least once."""
    start = perf_counter()
    took = []
    while True:
        t0 = perf_counter()
        step()
        took.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(took) > seconds:
            return


def wall(results) -> float:
    """Time to finish one pass: the sum of its job times (oracle checks run
    between jobs and are not counted)."""
    return sum(r["seconds"] for r in results)


def same_payloads(a: Path, b: Path) -> list:
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if files_a != files_b:
        return [f"traced run wrote {files_b}, untraced {files_a}"]
    return [f"payload {f} differs under tracing" for f in files_a
            if (a / f).read_bytes() != (b / f).read_bytes()]


def end_to_end(client, jobs, seconds, work):
    setup_s, setup_raw = measure_setup(SETUP_SAMPLES)
    passes = []
    repeat_for(seconds, lambda: passes.append(client.run_pass(jobs, work / "payloads")))
    results = [r for p in passes for r in p]
    metrics = {
        "wall_s": statistics.median(wall(p) for p in passes),
        "job_p50_s": statistics.median(r["seconds"] for r in results),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {"wall_raw_s": statistics.median(sum(r["raw_seconds"] for r in p) for p in passes),
           "setup_raw_s": setup_raw}
    return metrics, END_TO_END, results, [], {"passes": len(passes), **raw}


def per_layer(client, jobs, seconds, work):
    tracer = tracing.Tracer()
    untraced, traced, layers, spans, problems = [], [], [], [], []

    def pair():
        untraced.append(client.run_pass(jobs, work / "untraced"))
        tracer.install()
        try:
            traced.append(client.run_pass(jobs, work / "traced", tracer,
                                          job_base=len(traced) * len(jobs)))
        finally:
            left = tracer.remove()
        if left:
            problems.append(f"wrappers left after tracing: {left}")
        problems.extend(same_payloads(work / "untraced", work / "traced"))
        pass_spans, probes = tracer.take()
        spans.append(pass_spans)
        speed = statistics.median(r["speed"] for r in traced[-1])
        layers.append({k: v * speed if k.endswith("_s") else v
                       for k, v in tracing.layer_metrics(pass_spans, probes).items()})

    repeat_for(seconds, pair)
    metrics = {}
    for key in layers[0]:
        values = [layer[key] for layer in layers]
        if key.endswith("_s"):
            metrics[key] = statistics.median(values)
            continue
        if len(set(values)) > 1:
            problems.append(f"counter {key} differs between traced passes: {values}")
        metrics[key] = values[0]
    job_times = [r for p in untraced for r in p]
    for cmd in SUBCOMMANDS:
        times = [r["seconds"] for r in job_times if r["command"] == cmd]
        metrics[f"cli.{cmd}.p50_s"] = statistics.median(times) if times else 0.0
    metrics["trace.overhead_s"] = (statistics.median(wall(p) for p in traced)
                                   - statistics.median(wall(p) for p in untraced))
    np.savez(work / "spans.npz", names=np.array(tracing.NAMES),
             jobs=np.array([j.name for j in jobs]),
             **{k: np.concatenate([s[k] for s in spans]) for k in spans[0]})
    results = job_times + [r for p in traced for r in p]
    return metrics, PER_LAYER, results, problems, {"pairs": len(layers), "layers": layers}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="job size factor; below 1 only for the smoke self-test")
    args = ap.parse_args(argv)

    if not (SRC / "magflow" / "__init__.py").is_file():
        print(f"magflow sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from magflow.cli import main as cli_main
    import magflow
    if Path(magflow.__file__).resolve().parent != SRC / "magflow":
        print(f"imported magflow from {magflow.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # one directory per workload and mode, replaced by the next such run
    work = OUT / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    jobs = workloads.build(args.workload, args.seed, work / "scenarios", args.scale)
    client = Client(cli_main)
    client.run_job(jobs[0], work / "warmup")  # untimed warm-up

    measure = per_layer if args.trace else end_to_end
    metrics, units, results, problems, detail = measure(client, jobs, args.seconds, work)

    failed = [r for r in results if not r["ok"]]
    env = environment()
    print(f"# magflow benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"jobs/pass={len(jobs)} " + " ".join(f"{k}={v}" for k, v in detail.items()
                                               if k != "layers"))
    print("# env: " + json.dumps(env, sort_keys=True))
    for r in failed:
        print(f"# FAILED {r['job']}: {'; '.join(r['problems'])}")
    for p in problems:
        print(f"# PROBLEM {p}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    print(f"fail_ratio {len(failed) / len(results)!r} ratio ({len(failed)}/{len(results)} jobs)")
    print(f"partial_orbits {sum(r['partial'] for r in results)} count "
          f"(orbits that left the chart, flagged, not failures)")
    print(f"jobs {len(results)} count (job runs timed and checked)")

    result = {"correct": not failed and not problems, "attempted": len(results),
              "failed": len(failed),
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    (work / "result.json").write_text(json.dumps(
        {**result, "env": env, "args": vars(args), "detail": detail,
         "all_metrics": metrics, "problems": problems, "jobs": results}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
