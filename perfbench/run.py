#!/usr/bin/env python3
"""End-to-end benchmark of cmarkovd and `cmarkov train` (see README.md).

    python3 perfbench/run.py --workload stream|runs|train --seed N \
        --seconds S --trace 0|1

Run from the root of a cmarkov checkout. The first run builds the system
under test and the generator from this checkout's sources into
.bench_build/ and trains the serve models once. Human-readable lines come
first; the last stdout line is one JSON object: with --trace 0 it holds the
end-to-end metrics of a run without benchmark spans, with --trace 1 the
per-layer metrics (from /proc and METRICS of that same kind of run, plus a
separate in-process traced replay).
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build"
BUILD = WORK / "cmake"
TOOL = BUILD / "perfbench_tool"
CLI = BUILD / "cmarkov" / "tools" / "cmarkov"
DAEMON = BUILD / "cmarkov" / "tools" / "cmarkovd"

WORKLOADS = ("stream", "runs", "train")
PROGRAMS = ("flex", "grep", "gzip", "sed", "bash", "vim", "proftpd", "nginx")
FILTERS = ("sys", "lib")
SERVE_MODELS = {
    "stream": [("nginx", "lib"), ("proftpd", "lib"), ("vim", "lib"),
               ("bash", "lib")],
    "runs": [("gzip", "sys"), ("grep", "sys"), ("sed", "sys"),
             ("flex", "sys")],
}
# Must match feeds.hpp: serve models use the first recorded training seed,
# the train workload maps its seed onto the recorded ones.
TRAIN_SEED_BASE = 1000
TRAIN_SEED_COUNT = 64
TRAIN_TRACES = 60
TRAIN_THREADS = 4
# Set-up is timed this many times per run; the median is reported.
SETUP_REPEATS = 25
# Per-layer metrics of layers that do no work on a workload: they read 0
# there (README.md). Any other metric a run does not produce is an error.
TRAIN_LAYERS = ("ir.parse_s", "core.build_s", "trace.collect_s", "hmm.fit_s",
                "hmm.ms_per_iteration", "hmm.em_iterations", "core.save_s")
SERVE_LAYERS = (
    "net.loop_cpu_share", "net.loop_us_per_event", "net.acceptor_cpu_share",
    "net.decode_ns_per_event", "net.frame_ns_per_event",
    "net.bytes_per_event", "serve.worker_cpu_share",
    "serve.worker_us_per_event", "serve.submit_ns_per_event",
    "serve.dispatch_ns_per_event", "serve.open_us", "serve.close_us",
    "serve.queue_wait_mean_us", "serve.shard_skew",
    "serve.overload_transitions", "serve.shed_traces", "serve.shed_hellos",
    "serve.kernel_build_us", "core.monitor_ns_per_event",
    "core.kernel_ns_per_window", "core.reference_ns_per_window",
    "core.kernel_window_share", "core.flagged_window_share",
    "core.model_load_ms", "obs.audit_records_per_kevent")
NOT_APPLICABLE = {"stream": TRAIN_LAYERS, "runs": TRAIN_LAYERS,
                  "train": SERVE_LAYERS}


def metric_units(kind):
    """{name: unit} of the "end_to_end" or "per_layer" list in BENCHMARK.json."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read BENCHMARK.json: {e}")
    return {m["name"]: m["unit"] for m in spec[kind]}


class BenchError(Exception):
    """The benchmark cannot measure (not a result)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_logged(cmd, log_path, what):
    with open(log_path, "a") as out:
        out.write("$ " + " ".join(str(c) for c in cmd) + "\n")
        out.flush()
        rc = subprocess.call([str(c) for c in cmd], stdout=out,
                             stderr=subprocess.STDOUT, cwd=ROOT)
    if rc != 0:
        tail = Path(log_path).read_text(errors="replace").splitlines()[-30:]
        raise BenchError(f"{what} failed (exit {rc}); last lines of "
                         f"{log_path}:\n" + "\n".join(tail))


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} is not a cmarkov checkout (no CMakeLists.txt"
                         " or src/ next to perfbench/)")
    WORK.mkdir(exist_ok=True)
    build_log = WORK / "build.log"
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_logged(["cmake", "-S", HERE, "-B", BUILD, *generator,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], build_log,
                   "configure")
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", BUILD, "-j", jobs, "--target",
                "perfbench_tool", "cmarkov_cli", "cmarkovd"], build_log,
               "build")


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def recorded_digests():
    return json.loads((HERE / "digests.json").read_text())


def train_seed(seed):
    return TRAIN_SEED_BASE + seed % TRAIN_SEED_COUNT


def train_cmd(program, filt, seed, out):
    return [CLI, "train", program, "--filter", filt, "--traces",
            str(TRAIN_TRACES), "--seed", str(seed), "--threads",
            str(TRAIN_THREADS), "--out", out]


def check_digests(model_dir, keys, seed, errors):
    want = recorded_digests()[str(seed)]
    for key in keys:
        got = sha256(Path(model_dir) / f"{key}.model")
        if got != want[key]:
            errors.append(f"model {key} (training seed {seed}) digest {got}"
                          f" != recorded {want[key]}")


def serve_model_dir(workload, errors):
    """The serve models, trained once per built cmarkov and cached."""
    cache = WORK / "models" / sha256(CLI)[:16]
    cache.mkdir(parents=True, exist_ok=True)
    keys = []
    for program, filt in SERVE_MODELS[workload]:
        key = f"{program}-{filt}"
        keys.append(key)
        path = cache / f"{key}.model"
        if not path.is_file():
            tmp = cache / f"{key}.model.tmp"
            run_logged(train_cmd(program, filt, TRAIN_SEED_BASE, tmp),
                       WORK / "models.log", f"training serve model {key}")
            tmp.rename(path)
    check_digests(cache, keys, TRAIN_SEED_BASE, errors)
    return cache


def host_cpu():
    """Aggregate CPU jiffies of the host as /proc/stat counts them."""
    with open("/proc/stat") as f:
        return [int(v) for v in f.readline().split()[1:9]]


def tool(args):
    proc = subprocess.run([str(TOOL), *[str(a) for a in args]], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        raise BenchError(f"perfbench_tool {args[0]} failed: "
                         + proc.stderr.strip()[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_serve(args):
    errors = []
    models = serve_model_dir(args.workload, errors)
    run_dir = WORK / "runs"
    run_dir.mkdir(exist_ok=True)
    result = tool(["serve", "--workload", args.workload, "--seed", args.seed,
                   "--seconds", args.seconds, "--daemon", DAEMON,
                   "--models", models, "--log", run_dir / "cmarkovd.log",
                   "--trace", args.trace, "--trace-out",
                   run_dir / f"{args.workload}-{args.seed}.trace.json"])
    result["errors"] = errors + result["errors"]
    if args.workload == "stream" and "phase.runs_per_event" in result["metrics"]:
        result["metrics"]["runs_per_s"] = stream_runs_per_s(result["metrics"])
    return result


def timed_process(cmd):
    """Runs cmd; returns (exit code, stdout, wall seconds, peak RSS MiB)."""
    start = time.perf_counter()
    proc = subprocess.Popen([str(c) for c in cmd], cwd=ROOT,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, wall, usage.ru_maxrss / 1024.0


ITERATIONS = re.compile(r"\((\d+) iterations\)")


def run_train(args):
    errors, failures = [], []
    metrics = {}
    tseed = train_seed(args.seed)
    out_dir = WORK / "train"
    out_dir.mkdir(exist_ok=True)
    keys = [f"{p}-{f}" for f in FILTERS for p in PROGRAMS]

    # Set-up: loading (parsing and lowering) the eight program modules, as
    # `cmarkov list` does before anything else can run.
    setups = []
    for _ in range(SETUP_REPEATS):
        rc, _, wall, _ = timed_process([CLI, "list"])
        if rc != 0:
            raise BenchError("cmarkov list failed")
        setups.append(wall)
    metrics["setup_s"] = (statistics.median(setups), "s", len(setups))

    corpus = tool(["corpus", "--seed", args.seed])["metrics"]

    # Whole passes over the 16 models until --seconds have been measured;
    # each model's wall time is its shortest over the passes. The passes
    # repeat identical work, so a longer one was slowed from outside (on a
    # shared host, mostly by the hypervisor running other guests); the
    # shortest is the least disturbed. Seeds differ in how many
    # EM iterations a model needs and how many unique segments its corpus
    # has, so the work unit is an event of a unique training segment, once
    # per EM iteration ("EM events").
    walls = {key: [] for key in keys}
    attempted = failed = passes = 0
    iterations, rss = {}, 0.0
    started = time.perf_counter()
    while passes == 0 or time.perf_counter() - started < args.seconds:
        passes += 1
        for key in keys:
            attempted += 1
            program, filt = key.split("-")
            rc, out, wall, peak = timed_process(
                train_cmd(program, filt, tseed, out_dir / f"{key}.model"))
            found = ITERATIONS.search(out)
            if rc != 0 or not found:
                failed += 1
                failures.append(f"cmarkov train {key} exited {rc}")
                continue
            iterations[key] = int(found.group(1))
            walls[key].append(wall)
            rss = max(rss, peak)
        if failed == 0:
            check_digests(out_dir, keys, tseed, errors)
    if failed:
        # Without every model there is no train_s to report.
        errors.append(f"{failed} of {attempted} model trainings failed; "
                      "no metrics")
        return {"correct": False, "attempted": attempted, "failed": failed,
                "errors": errors, "failures": failures, "metrics": {}}

    wall = {key: min(walls[key]) for key in keys}
    train_s = sum(wall.values())
    metrics["train_s"] = (train_s, "s", passes)
    metrics["rss_peak_mb"] = (rss, "MiB", attempted)
    for name, (value, unit) in train_rates(wall, iterations,
                                           corpus).items():
        metrics[name] = (value, unit, passes)

    if args.trace == 1:
        traced_dir = WORK / "train-traced"
        traced = tool(["train-traced", "--seed", args.seed, "--threads",
                       TRAIN_THREADS, "--models-out", traced_dir,
                       "--train-wall-s", train_s, "--trace-out",
                       WORK / f"train-{args.seed}.trace.json"])
        check_digests(traced_dir, keys, tseed, errors)
        for name, m in traced["metrics"].items():
            metrics[name] = (m["value"], m["unit"], m["samples"])
        if metrics["hmm.em_iterations"][0] != sum(iterations.values()):
            errors.append("traced run took %d EM iterations, cmarkov train %d"
                          % (metrics["hmm.em_iterations"][0],
                             sum(iterations.values())))

    return {
        "correct": not errors, "attempted": attempted, "failed": failed,
        "errors": errors, "failures": failures,
        "metrics": {name: {"value": v, "unit": u, "samples": n}
                    for name, (v, u, n) in metrics.items()},
    }


# -- Rescalings ---------------------------------------------------------
# Every end-to-end metric is reported on every workload, so some of them are
# another measurement of the same work in a different unit (README.md,
# "Rescalings"). They are derived here and nowhere else.


def stream_runs_per_s(metrics):
    """stream: a trace completes only as a share of the event flow."""
    per_event = metrics["phase.runs_per_event"]
    return {"value": metrics["events_per_s"]["value"] * per_event["value"],
            "unit": "1/s", "samples": per_event["samples"]}


def train_rates(wall, iterations, corpus):
    """train: events_per_s, runs_per_s, verdict_p50_ms and verdict_p99_ms.

    All four weigh the same 16 per-model wall times by EM work: an
    EM event is one event of a unique training segment, once per EM
    iteration; a run is one collected program run, once per EM iteration.
    """
    work = {k: corpus[f"corpus.{k}.segment_events"]["value"] * iterations[k]
            for k in wall}
    runs = {k: corpus[f"corpus.{k}.runs"]["value"] * iterations[k]
            for k in wall}
    train_s = sum(wall.values())
    per_kevent_ms = [wall[k] * 1e6 / work[k] for k in wall]
    return {"events_per_s": (sum(work.values()) / train_s, "1/s"),
            "runs_per_s": (sum(runs.values()) / train_s, "1/s"),
            "verdict_p50_ms": (quantile(per_kevent_ms, 0.50), "ms"),
            "verdict_p99_ms": (quantile(per_kevent_ms, 0.99), "ms")}


def quantile(samples, q):
    """Linear-interpolated quantile, as the generator computes it."""
    values = sorted(samples)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        wanted = metric_units("per_layer" if args.trace == 1 else
                              "end_to_end")
        build()
        cpu_before = host_cpu()
        result = (run_train if args.workload == "train" else run_serve)(args)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1

    # Time the hypervisor gave to other guests while this run wanted a CPU
    # (steal). Not a metric of the program: it tells a run slowed by the
    # host apart from one slowed by the code.
    cpu = [b - a for a, b in zip(cpu_before, host_cpu())]
    attempted, failed = result["attempted"], result["failed"]
    metrics = result["metrics"]
    metrics["failed_share"] = {"value": failed / max(1, attempted),
                               "unit": "ratio", "samples": attempted}
    out = {}
    for name, unit in wanted.items():
        if name in metrics:
            out[name] = {"value": metrics[name]["value"], "unit": unit}
        elif name in NOT_APPLICABLE[args.workload]:
            out[name] = {"value": 0.0, "unit": unit}
        else:
            # A renamed instrument or a metric the run left out must not
            # read as 0.
            result["errors"].append(f"run produced no '{name}'")

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}: "
          f"correct={not result['errors']} attempted={attempted} "
          f"failed={failed} host_steal_share="
          f"{cpu[7] / max(1, sum(cpu)):.3f}")
    for message in result["errors"]:
        print(f"  ERROR {message}")
    for message in result["failures"]:
        print(f"  FAILED {message}")
    for name in sorted(metrics):
        m = metrics[name]
        mark = "*" if name in wanted else " "
        print(f"  {mark} {name:32s} {m['value']:>16.6g} {m['unit']:9s} "
              f"n={m['samples']}")
    print(json.dumps({"correct": not result["errors"], "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
