#!/usr/bin/env python3
"""mkg benchmark: times whole `mkg` commands end to end, checks every
output, and with --trace 1 times each layer in a traced in-process pass.

    python3 perfbench/run.py --workload diag_1d --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from anywhere: the package is imported from ``src/`` next to this
directory, and outputs go to ``.perfbench_out/`` there.  The last line of
standard output is one JSON object (correct, attempted, failed, metrics);
the lines before it name every metric with its unit and sample count.

Load model: a closed loop with one client.  Each sample is a separate
`mkg` process, started only after the previous one has ended, with the
BLAS/OpenMP thread pools capped at the number of usable CPUs.

End-to-end metrics (untraced runs, measured on the child from outside;
each the median over the run's samples).  On a shared machine CPU speed
drifts by tens of percent over minutes, so the bounded times are relative:
each `mkg` process is divided by the mean of the reference program runs
(fixed numpy and Python work shaped like the workload, workloads.py) made
right before and after it.
  throughput_rel    work items per reference-program duration: lattice
                    site-steps (diag_1d, evolve_3d) or trace records
                    (audit_replay)
  wall_rel, cpu_rel wall time, and user+sys time, of the child over those
                    of the reference program
  peak_rss_mb       maximum resident set of the child
  setup_s           wall time of a separate child that imports mkg and,
                    for the run workloads, runs load_config and build,
                    over the mean of bare `python3 -c "import numpy"`
                    children run right before and after it, times
                    BARE_NOMINAL_S: set-up seconds at the speed at which a
                    bare child takes BARE_NOMINAL_S
The raw throughput_per_s, wall_s, cpu_s and setup_raw_s are printed and
kept in the result file.  Every `mkg` process and in-process pass, and the
3D probe, count as attempted; a failed exit code or output check counts as
failed (fail_frac).  A set-up, bare or reference child that fails stops
the benchmark with an error.

Per-layer metrics (--trace 1) come from spans around the public functions
of each mkg module (see tracing.py).  layer_baseline.json holds, per workload,
the spans called and the exact counts measured when the benchmark was
written.  A boundary that later gets no calls is reported by name, so a
bypassed or renamed layer shows as missing rather than as a speed-up; a
count that differs is reported with its baseline value.  How many of each
there are is in the result line too, as the per-layer metrics
boundaries_missing and exact_counts_changed.  Regenerate the file from the
`boundaries_called` and `exact_counts_per_pass` fields of the result files
only when a layer is renamed on purpose.

Metric names and units come from BENCHMARK.json; a name there that the
benchmark does not produce is an error.
"""

from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(NPROC)

import argparse                                       # noqa: E402
import contextlib                                     # noqa: E402
import hashlib                                        # noqa: E402
import importlib                                      # noqa: E402
import io                                             # noqa: E402
import json                                           # noqa: E402
import platform                                       # noqa: E402
import shutil                                         # noqa: E402
import statistics                                     # noqa: E402
import subprocess                                     # noqa: E402
import sys                                            # noqa: E402
import threading                                      # noqa: E402
import traceback                                      # noqa: E402
import types                                          # noqa: E402
from dataclasses import dataclass                     # noqa: E402
from time import perf_counter                         # noqa: E402

import numpy as np                                    # noqa: E402

import tracing                                        # noqa: E402
import workloads as wl                                # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
LAYER_BASELINE = os.path.join(HERE, "layer_baseline.json")

MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0

# set-up: SETUP_PAIRS set-up children, each between two bare children.  The
# time a child takes to start and import drifts with the machine by tens of
# percent between runs; the median of its ratio to the bare child's moved
# by about 5% over the same runs.
SETUP_PAIRS = 9
BARE_CODE = "import numpy"
# median wall time of a bare child on a 2-core Xeon with numpy 2.4.6, the
# machine the benchmark was written on
BARE_NOMINAL_S = 0.15

# raw times: printed and kept in the result file, but too exposed to the
# machine's speed drift to carry a regression bound
RAW_UNITS = {"throughput_per_s": "1/s", "wall_s": "s", "cpu_s": "s",
             "reference_wall_s": "s", "setup_raw_s": "s", "bare_python_s": "s"}
# counts that must repeat exactly across runs and seeds
EXACT_COUNTS = ("couplings.matrix_bytes_per_rhs",
                "lattice.central_diff.calls_per_step",
                "bounds.eval_monomial.calls_per_record",
                "scenarios.build.calls_per_run", "lattice.snapshot_bytes")

DEFECTS_SEEN = [
    "(i) a trace of 3-5 records makes the half-trace audit fit call _ddt on 2 "
    "points (IndexError) and `run` prints 'audit skipped'; evolve_3d keeps 6 "
    "records to stay clear of it",
    "(ii) --threads / MKG_THREADS is validated and then ignored; the "
    "benchmark does not pass it",
    "(iii) interacting_demo varies only along x; the 3D probe supplies data "
    "that varies along x, y and z",
]


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_mb: float
    returncode: int
    stdout: str


def run_child(args: list[str], env: dict, cwd: str) -> Sample:
    """Run `python3 <args>` to completion and measure it from outside."""
    out_path = os.path.join(cwd, "child.out")
    with open(out_path, "w") as out, open(os.path.join(cwd, "child.err"), "w") as err:
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out,
                                stderr=err, env=env, cwd=cwd)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        stdout = fh.read()
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  proc.returncode, stdout)


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def provenance(workload: str, why: str, seed: int) -> dict:
    caches = []
    cache_root = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(cache_root):
        for index in sorted(os.listdir(cache_root)):
            if not index.startswith("index"):
                continue
            info = {}
            for key in ("level", "type", "size"):
                path = os.path.join(cache_root, index, key)
                if os.path.exists(path):
                    with open(path) as fh:
                        info[key] = fh.read().strip()
            caches.append(info)
    cpu_model = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        with contextlib.suppress(OSError):
            res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True)
            commit = res.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "mkg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    blas = {}
    with contextlib.suppress(TypeError, KeyError):    # numpy < 1.25 has no dicts
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit, "source_sha256": digest.hexdigest(),
        "nproc": NPROC, "cpu_model": cpu_model, "caches": caches,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
        "load_model": "closed loop, 1 client, one mkg process at a time",
        "workload": workload, "why": why, "seed": seed,
        "defects_seen_not_fixed": DEFECTS_SEEN,
        "not_measured": [
            "waiting time: no layer has a queue or a second process",
            "spherical, the Kahler Hessian oracle, check-geometry and "
            "kirchhoff-verify: verification tools, off the traffic path",
            "memory bandwidth: no workload array reaches 4x the last-level "
            "cache; byte figures are computed from array and file sizes",
        ],
    }


def in_process(mkg, argv: list[str]) -> tuple[int, str, float]:
    """Run `mkg <argv>` inside this process; returns (code, stdout, wall).
    An exception the CLI lets through is a failed run, as it would be for
    the `mkg` process, and its traceback goes into the captured output."""
    buf = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            code = mkg.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc(file=buf)
            code = 1
    return code, buf.getvalue(), perf_counter() - t0


def run_workload(mkg, workload: str, why: str, seed: int, seconds: float,
                 trace: bool, units: dict) -> dict:
    """One workload: set-up children, then untraced `mkg` processes
    (trace=False) or traced in-process passes (trace=True).  `units` names
    the metrics to report, as BENCHMARK.json lists them."""
    work = os.path.join(OUT_ROOT, workload, f"seed{seed}-trace{int(trace)}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    columns = list(mkg.run.CSV_COLUMNS)
    inputs = wl.make_inputs(workload, seed, os.path.join(work, "input"), columns)
    env = dict(os.environ, PYTHONPATH=SRC)
    sample_dir = os.path.join(work, "sample")
    os.makedirs(sample_dir)
    out_dir = os.path.join(sample_dir, "out")
    attempted = failed = 0
    fail_log = []

    def record(fails: list[str], where: str):
        """Count one attempted mkg run or probe, failed if `fails` is not
        empty."""
        nonlocal attempted, failed
        attempted += 1
        failed += bool(fails)
        fail_log.extend(f"{where}: {f}" for f in fails)

    def check(returncode: int, stdout: str, where: str):
        record(wl.check_output(inputs, returncode, stdout, out_dir, columns,
                               mkg.lattice), where)

    def helper(code: str, *args) -> Sample:
        """A set-up, bare or reference child; the benchmark cannot measure
        without it, so a failure is an error, not a failed run."""
        sample = run_child(["-c", code, *args], env, sample_dir)
        if sample.returncode:
            with open(os.path.join(sample_dir, "child.err")) as fh:
                err = fh.read()[-2000:]
            raise RuntimeError(f"{workload}: helper child {code.splitlines()[0]!r} "
                               f"exited with {sample.returncode}\n{err}")
        return sample

    def one_child() -> Sample:
        shutil.rmtree(out_dir, ignore_errors=True)
        sample = run_child(wl.command(inputs, out_dir), env, sample_dir)
        check(sample.returncode, sample.stdout, "mkg process")
        return sample

    bare = [helper(BARE_CODE)]
    setup = []
    for _ in range(SETUP_PAIRS):
        setup.append(helper(wl.setup_code(workload), inputs.path))
        bare.append(helper(BARE_CODE))
    setup_rel = [s.wall / ((a.wall + b.wall) / 2)
                 for s, a, b in zip(setup, bare, bare[1:])]
    setup_s = BARE_NOMINAL_S * median(setup_rel)
    setup_raw_s = median([s.wall for s in setup])

    probe = None
    if workload == "evolve_3d":
        probe_fails, probe = wl.run_probe(mkg, seed)
        record(probe_fails, "3D probe")

    result = {"provenance": provenance(workload, why, seed), "inputs": vars(inputs)}
    if not trace:
        samples: list[Sample] = []
        refs = [helper(wl.REFERENCE_CODE[workload])]
        t_start = perf_counter()
        while True:
            samples.append(one_child())
            refs.append(helper(wl.REFERENCE_CODE[workload]))
            elapsed = perf_counter() - t_start
            if len(samples) >= MIN_SAMPLES and elapsed + samples[-1].wall > seconds:
                break
        work_items = (inputs.records if workload == "audit_replay"
                      else inputs.sites * inputs.steps)
        # each sample against the mean of the reference runs around it
        ref_wall = [(a.wall + b.wall) / 2 for a, b in zip(refs, refs[1:])]
        ref_cpu = [(a.cpu + b.cpu) / 2 for a, b in zip(refs, refs[1:])]
        per_sample = {
            "throughput_rel": [work_items * r / s.wall for s, r in zip(samples, ref_wall)],
            "wall_rel": [s.wall / r for s, r in zip(samples, ref_wall)],
            "cpu_rel": [s.cpu / r for s, r in zip(samples, ref_cpu)],
            "peak_rss_mb": [s.rss_mb for s in samples],
            "throughput_per_s": [work_items / s.wall for s in samples],
            "wall_s": [s.wall for s in samples],
            "cpu_s": [s.cpu for s in samples],
            "reference_wall_s": [r.wall for r in refs],
            "setup_raw_s": [s.wall for s in setup],
            "bare_python_s": [b.wall for b in bare],
        }
        metrics = {k: median(v) for k, v in per_sample.items()}
        metrics["setup_s"] = setup_s
        result["samples"] = {**per_sample,
                             "setup_s": [BARE_NOMINAL_S * r for r in setup_rel]}
        counts = {k: len(v) for k, v in per_sample.items()}
        counts["setup_s"] = len(setup)
        units = {**units, **RAW_UNITS}
    else:
        ref = one_child()
        metrics, counts, extra = traced_passes(mkg, inputs, seconds, out_dir,
                                               check, work)
        # not applicable on the workloads without the probe: 0
        metrics["probe3d.eom_rhs.ms"] = probe["eom_rhs"] if probe else 0.0
        metrics["probe3d.collect.ms"] = probe["collect"] if probe else 0.0
        counts["probe3d.eom_rhs.ms"] = counts["probe3d.collect.ms"] = 2 if probe else 0
        extra["untraced_child_wall_s"] = ref.wall
        extra["setup_raw_s"] = setup_raw_s
        extra["accounted_frac"] = (extra["cold_top_level_s"] + setup_raw_s) / ref.wall - 1.0
        result.update(extra)
    metrics = {k: metrics[k] for k in units}
    result.update(attempted=attempted, failed=failed, failures=fail_log,
                  probe3d_ms=probe, metrics=metrics, sample_counts=counts)
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1, default=str)
    shutil.rmtree(out_dir, ignore_errors=True)
    report(workload, seed, trace, result, units)
    return result


def traced_passes(mkg, inputs, seconds, out_dir, check, work):
    """A cold traced pass, the first run in this process as in a fresh `mkg`
    process, then warm pairs of untraced and traced passes, alternating which
    runs first.  Per-layer metrics are medians over every traced pass; the
    tracing overhead comes from the warm pairs."""
    argv = wl.command(inputs, out_dir)[2:]
    per_pass, top_level, called = [], [], set()

    def one_pass(traced: bool) -> float:
        tracer = tracing.Tracer(run_id=len(per_pass))
        shutil.rmtree(out_dir, ignore_errors=True)
        if traced:
            tracer.install()
        try:
            code, stdout, wall = in_process(mkg, argv)
        finally:
            tracer.uninstall()
        check(code, stdout, "traced pass" if traced else "untraced pass")
        if traced:
            spans = tracer.spans()
            tracer.save(os.path.join(work, f"spans_{tracer.run_id}.npz"), spans)
            per_pass.append(tracing.layer_metrics(spans, tracer.def_names,
                                                  inputs.records))
            top_level.append(tracing.top_level_seconds(spans))
            called.update(tracing.called_boundaries(spans, tracer.call_names))
        return wall

    t_start = perf_counter()
    one_pass(True)
    overhead = []
    while True:
        t_pair = perf_counter()
        order = (False, True) if len(overhead) % 2 == 0 else (True, False)
        walls = {traced: one_pass(traced) for traced in order}
        overhead.append(walls[True] / walls[False] - 1.0)
        now = perf_counter()
        if now - t_start + (now - t_pair) > seconds:
            break
    metrics = {k: median([p[k] for p in per_pass]) for k in per_pass[0]}
    counts = {k: len(per_pass) for k in metrics}
    metrics["trace_overhead_frac"] = median(overhead)
    counts["trace_overhead_frac"] = len(overhead)
    with open(LAYER_BASELINE) as fh:
        baseline = json.load(fh)[inputs.workload]
    missing = sorted(set(baseline["boundaries"]) - called)
    per_pass_counts = {k: [p[k] for p in per_pass] for k in EXACT_COUNTS}
    changed = sorted(k for k, v in per_pass_counts.items()
                     if set(v) != {baseline["exact_counts"][k]})
    metrics["boundaries_missing"] = float(len(missing))
    metrics["exact_counts_changed"] = float(len(changed))
    counts["boundaries_missing"] = counts["exact_counts_changed"] = len(per_pass)
    extra = {
        "cold_top_level_s": top_level[0],
        "boundaries_called": sorted(called),
        "boundaries_missing": missing,
        "exact_counts_per_pass": per_pass_counts,
        "exact_counts_baseline": baseline["exact_counts"],
        "exact_counts_changed": changed,
    }
    return metrics, counts, extra


def report(workload, seed, trace, result, units):
    counts = result["sample_counts"]
    fails = result["failed"]
    prov = result["provenance"]
    print(f"== {workload}  seed={seed}  trace={int(trace)}  "
          f"({prov['load_model']}; threads capped at {NPROC})")
    print(f"  commit {prov['commit'] or 'unknown'}  source {prov['source_sha256'][:12]}  "
          f"{prov['cpu_model']}  python {prov['python']}  numpy {prov['numpy']}  "
          f"{prov['blas']['name']} {prov['blas']['version']}")
    for name, unit in units.items():
        label = name
        if name.startswith("throughput"):
            label += (" (records)" if workload == "audit_replay"
                      else " (site-steps)")
        print(f"  {label:44s} {result['metrics'][name]:>16.6g} {unit:6s} "
              f"n={counts.get(name, 0)}")
    print(f"  {'fail_frac':44s} {fails / max(result['attempted'], 1):>16.6g} "
          f"{'ratio':6s} n={result['attempted']}")
    for line in result["failures"]:
        print(f"  FAILED: {line}")
    if result.get("probe3d_ms"):
        p = result["probe3d_ms"]
        print(f"  3D probe at 32^3 (varies along x, y, z): eom_rhs "
              f"{p['eom_rhs']:.4g} ms, collect {p['collect']:.4g} ms")
    if trace:
        print(f"  cold traced pass: top-level spans {result['cold_top_level_s']:.4g} s "
              f"+ setup_raw_s {result['setup_raw_s']:.4g} s vs untraced wall "
              f"{result['untraced_child_wall_s']:.4g} s: "
              f"{100 * result['accounted_frac']:+.1f}% "
              f"(trace overhead {100 * result['metrics']['trace_overhead_frac']:+.1f}%)")
        for name in result["boundaries_missing"]:
            print(f"  MISSING LAYER: {name} had calls when the benchmark was "
                  f"written and has none now")
        for name in result["exact_counts_changed"]:
            print(f"  COUNT CHANGED: {name} = {result['exact_counts_per_pass'][name]}, "
                  f"{result['exact_counts_baseline'][name]} when the benchmark "
                  f"was written")
        print("  waiting time: not measured (no layer has a queue or a "
              "second process)")


def load_mkg():
    importlib.invalidate_caches()
    sys.path.insert(0, SRC)
    mods = {short: importlib.import_module(f"mkg.{short}") for short in
            ("cli", "run", "lattice", "dynamics", "diagnostics", "scenarios")}
    if not os.path.abspath(mods["cli"].__file__).startswith(SRC + os.sep):
        raise ImportError(f"mkg imported from {mods['cli'].__file__}, not {SRC}")
    return types.SimpleNamespace(**mods)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mkg", "cli.py")):
        print(f"error: mkg sources not found under {SRC}", file=sys.stderr)
        return 2
    mkg = load_mkg()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(mkg, w, whys[w], args.seed, args.seconds,
                               bool(args.trace), units) for w in names}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    metrics = {}
    for w, r in results.items():
        prefix = "" if len(results) == 1 else f"{w}."
        for name, unit in units.items():
            metrics[prefix + name] = {"value": r["metrics"][name], "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
