#!/usr/bin/env python3
"""Repository benchmark for the DFCM reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload repro|stream-v3|sweep-v2 \
        --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --list

The first form builds `dfcm-repro` and the `perfbench` harness (into
$CARGO_TARGET_DIR, default `.bench_build`), sets the workload up from
`--seed`, times reps of its work for `--seconds`, checks every rep's
output, and prints one JSON line last:
`{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
end-to-end metrics of BENCHMARK.json; `--trace 1` reports its per-layer
metrics from a traced run and writes that run's spans (events.jsonl,
trace.json) under `.bench_work/<workload>/obs/`. `--list` prints every
metric with its unit and, for per-layer metrics, the layer call it times
and the end-to-end metric it should move (from `perfbench/layers.json`).

Workloads (one driver process; at most nproc threads at work at once):
  repro      `dfcm-repro all --scale 0.01 --threads 1` on in-memory
             synthetic traces; one rep is one run of the binary, and
             nproc reps run at once.
  stream-v3  the 8-benchmark suite at scale 0.1 as one DFCMTRC3 file,
             streamed by `stream_v3_file` into one dfcm:16:12 lane.
  sweep-v2   the same records as DFCMTRC2, streamed by `stream_v2_file`
             into the 16-configuration table-size sweep.
Set-ups, and the untraced reps, run on nproc threads at once, each thread
its own.

Times are the fastest of a run's samples, not their median: on a shared
host a core's speed swings by up to 1.8x for seconds at a time as
neighbours load it, and the share of a run spent slow varies from run to
run, so a run's median reads that share, not the program. Load only ever
slows a rep, and every rep is checked, so the fastest reads the program
when the host is least loaded; a run with two cores at work has the best
odds of catching such a stretch. A rep with two threads is fast only when
both cores are quiet at once, which is why repro runs single-thread
processes side by side: over five 30 s runs interleaved with runs of one
`--threads 2` process, its fastest rep spread 0.04 of the median against
0.12.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

STREAM_SCALE = "0.1"
REPRO_SCALE = "0.01"
# Each set-up thread makes at least SETUP_REPS set-ups, and more until
# SETUP_SECONDS have passed.
SETUP_REPS = 8
SETUP_SECONDS = 6
MIN_REPS = 3
CHILD_TIMEOUT_S = 150

# Every table `dfcm-repro all` writes.
REPRO_CSVS = [
    "table1", "table1_vm", "fig03", "fig04", "fig08", "fig06_09_li",
    "fig06_09_norm", "fig06_09_queens", "fig10a", "fig10b", "fig11a",
    "fig11b", "fig12", "fig13", "fig14", "fig16", "fig17", "sec4_4", "tags",
    "related", "ideal", "speedup", "vmbench", "phases", "specupdate",
]
# Tables whose values the set-up recomputes with stream lanes.
REPRO_CHECKED = ["fig10a", "fig10b"]

HERE = os.path.dirname(os.path.abspath(__file__))


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def percentile(xs, q):
    """The q-th percentile of xs, nearest rank."""
    v = sorted(xs)
    return v[max(1, math.ceil(q * len(v))) - 1]


def spawn(argv, log_path):
    """Runs argv to completion with stdout and stderr to log_path.
    Returns (exit code, wall seconds, peak RSS in MB)."""
    fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        actions = [(os.POSIX_SPAWN_DUP2, fd, 1), (os.POSIX_SPAWN_DUP2, fd, 2)]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        timer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
        timer.start()
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        timer.cancel()
    finally:
        os.close(fd)
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024


def run_checked(argv, log_path):
    code, wall, rss = spawn(argv, log_path)
    if code != 0:
        with open(log_path, errors="replace") as f:
            sys.stderr.write(f.read()[-4000:])
        fail(f"{os.path.basename(argv[0])} {argv[1]} exited with {code}")
    return wall, rss


def build(root):
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for extra in (["-p", "dfcm-repro"],
                  ["--manifest-path", os.path.join("perfbench", "Cargo.toml")]):
        cmd = ["cargo", "build", "--release", "--offline", "-q"] + extra
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode:
            fail(f"build failed: {' '.join(cmd)}")
    release = os.path.join(root, target, "release")
    return os.path.join(release, "dfcm-repro"), os.path.join(release, "perfbench")


def setup(harness, workload, seed, scale, work, threads):
    out = os.path.join(work, "setup.json")
    run_checked([harness, "setup", "--workload", workload, "--seed", str(seed),
                 "--scale", scale, "--dir", work, "--reps", str(SETUP_REPS),
                 "--seconds", str(SETUP_SECONDS), "--threads", str(threads),
                 "--out", out],
                os.path.join(work, "setup.log"))
    return load_json(out)


def read_bytes(path):
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return None


def repro_rep_ok(out_dir, expected_dir):
    for name in REPRO_CSVS:
        if not read_bytes(os.path.join(out_dir, name + ".csv")):
            print(f"perfbench: repro rep wrote no {name}.csv", file=sys.stderr)
            return False
    for name in REPRO_CHECKED:
        got = read_bytes(os.path.join(out_dir, name + ".csv"))
        if got != read_bytes(os.path.join(expected_dir, name + ".csv")):
            print(f"perfbench: repro {name}.csv differs from stream lanes",
                  file=sys.stderr)
            return False
    return True


def same_tables(a, b):
    for name in REPRO_CSVS:
        x = read_bytes(os.path.join(a, name + ".csv"))
        if x is None or x != read_bytes(os.path.join(b, name + ".csv")):
            print(f"perfbench: traced {name}.csv differs from untraced",
                  file=sys.stderr)
            return False
    return True


def run_repro(repro, harness, seed, seconds, traced, work, threads):
    """Untraced, each of `threads` loops runs `dfcm-repro all --threads 1`
    reps at once; traced, one loop does, and then the traced run."""
    set_up = setup(harness, "repro", seed, REPRO_SCALE, work, threads)
    expected = os.path.join(work, "expected")
    budget = seconds / 2 if traced else seconds
    loops = 1 if traced else threads
    reps = [[] for _ in range(loops)]
    start = time.perf_counter()

    def rep_loop(k):
        out_dir = os.path.join(work, f"out-{k}")
        while len(reps[k]) < MIN_REPS or time.perf_counter() - start < budget:
            shutil.rmtree(out_dir, ignore_errors=True)
            code, wall, peak = spawn(
                [repro, "all", "--seed", str(seed), "--scale", REPRO_SCALE,
                 "--threads", "1", "--out", out_dir],
                os.path.join(work, f"repro-{k}.log"))
            ok = code == 0 and repro_rep_ok(out_dir, expected)
            reps[k].append((wall, peak, ok))

    workers = [threading.Thread(target=rep_loop, args=(k,))
               for k in range(loops)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    done = [r for loop in reps for r in loop]
    run = {"wall_s": [r[0] for r in done],
           "failed": sum(1 for r in done if not r[2]),
           "records": set_up["records"], "lanes": 1,
           "peak_rss_mb": statistics.median(r[1] for r in done)}
    if traced:
        remaining = max(0.0, seconds - (time.perf_counter() - start))
        traced_dir = os.path.join(work, "traced")
        out = os.path.join(work, "trace.json")
        run_checked([harness, "repro-trace", "--seed", str(seed),
                     "--scale", REPRO_SCALE, "--threads", "1",
                     "--dir", traced_dir, "--seconds", f"{remaining:.3f}",
                     "--out", out, "--obs", os.path.join(work, "obs")],
                    os.path.join(work, "trace.log"))
        t = load_json(out)
        t["traced_failed"] = (
            0 if same_tables(os.path.join(work, "out-0"), traced_dir) else 1)
        run.update(t)
    return set_up, run


def run_stream(harness, workload, seed, seconds, traced, work, threads):
    set_up = setup(harness, workload, seed, STREAM_SCALE, work, threads)
    out = os.path.join(work, "run.json")
    _, rss = run_checked(
        [harness, "stream", "--workload", workload, "--dir", work,
         "--seconds", str(seconds), "--trace", "1" if traced else "0",
         "--threads", str(threads), "--out", out,
         "--obs", os.path.join(work, "obs")],
        os.path.join(work, "run.log"))
    run = load_json(out)
    run["peak_rss_mb"] = rss
    return set_up, run


def list_metrics(bench):
    layers = load_json(os.path.join(HERE, "layers.json"))
    for w in bench["workloads"]:
        print(f"workload {w['name']}: {w['why']}")
    for m in bench["end_to_end"]:
        print(f"end_to_end {m['name']} [{m['unit']}] {m['better']} is better, "
              f"bound {m['bound']}: {layers['end_to_end'][m['name']]}")
    print(layers["per_layer_note"])
    where = {}
    for row in layers["per_layer"]:
        for name in row["metrics"]:
            where[name] = row
    for m in bench["per_layer"]:
        row = where[m["name"]]
        print(f"per_layer {m['name']} [{m['unit']}] times {row['calls']}; "
              f"measured on {row['measured_on']}; should move "
              f"{row['should_move']}; flat on {row['flat_on']}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=["repro", "stream-v3", "sweep-v2"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--list", action="store_true")
    a = p.parse_args()

    root = os.getcwd()
    bench_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(bench_path):
        fail("run from the repository root (no BENCHMARK.json here)", 2)
    bench = load_json(bench_path)
    if a.list:
        list_metrics(bench)
        return
    if not a.workload:
        fail("--workload is required", 2)
    for need in ("Cargo.toml", "crates"):
        if not os.path.exists(os.path.join(root, need)):
            fail(f"no {need} here: the benchmark builds the repository it "
                 "runs in", 2)

    repro, harness = build(root)
    work = os.path.join(root, ".bench_work", a.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    threads = len(os.sched_getaffinity(0))
    traced = a.trace == 1
    if a.workload == "repro":
        set_up, run = run_repro(repro, harness, a.seed, a.seconds, traced,
                                work, threads)
    else:
        set_up, run = run_stream(harness, a.workload, a.seed, a.seconds,
                                 traced, work, threads)

    walls = run["wall_s"]
    wall = min(walls)
    median = statistics.median(walls)
    setup_s = min(set_up["setup_s"])
    failed = int(run["failed"]) + int(run.get("traced_failed", 0))
    attempted = len(walls) + len(run.get("traced_wall_s", []))
    print(f"{a.workload} seed {a.seed}: wall_s {wall:.6f} s (median "
          f"{median:.6f}, p90 {percentile(walls, 0.9):.6f}, n={len(walls)}); "
          f"setup_s {setup_s:.6f} s of {len(set_up['setup_s'])}; "
          f"{int(run['records'])} records x {int(run['lanes'])} lanes")

    if not traced:
        values = {
            "wall_s": wall,
            "pred_per_s": run["records"] * run["lanes"] / wall,
            "setup_s": setup_s,
            "peak_rss_mb": run["peak_rss_mb"],
        }
        specs = bench["end_to_end"]
    else:
        # The checks compare medians of one thread's reps, traced and not.
        values = {m["name"]: 0.0 for m in bench["per_layer"]}
        measured = dict(set_up["layers"])
        measured.update(run["layers"])
        residual = median - run["partition_s"]
        measured["reconcile.residual_s"] = residual
        measured["reconcile.residual_frac"] = residual / median
        measured["trace_overhead_frac"] = (
            statistics.median(run["traced_wall_s"]) / median - 1)
        unknown = sorted(set(measured) - set(values))
        if unknown:
            fail(f"metrics missing from BENCHMARK.json: {unknown}")
        values.update(measured)
        specs = bench["per_layer"]
        print(f"{a.workload}: traced reps {len(run['traced_wall_s'])}, "
              f"spans -> {os.path.relpath(os.path.join(work, 'obs'), root)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in specs}
    with open(os.path.join(work, "result.json"), "w") as f:
        json.dump({"setup": set_up, "run": run, "metrics": metrics}, f)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
