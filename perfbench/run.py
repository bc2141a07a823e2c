#!/usr/bin/env python3
"""The repository benchmark: unmodified libc I/O under libldplfs.so.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S]     # every workload

Builds the shim and the two benchmark programs from the checkout's sources
(perfbench/CMakeLists.txt, into $CARGO_TARGET_DIR or .bench_build), then runs
one workload. The driver is a plain-libc program that knows nothing of PLFS;
it runs under LD_PRELOAD=libldplfs.so with LDPLFS_MOUNTS as the only LDPLFS_*
variable, so library defaults are what get measured.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the traced variant and reports the per-layer metrics (see NOTES.md). The
last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Without --workload every workload runs in both modes, every metric is
printed with its unit, and the exit code is non-zero on any oracle failure.

Every run uses fresh directories under .bench_run/ and removes them.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tool_stream", "ckpt_restart", "meta_storm")
MIB = 1024 * 1024
# Logical bytes per container the space walk measures (see driver.cpp).
KEPT_LOGICAL_BYTES = {
    "tool_stream": 256 * MIB,
    "ckpt_restart": 64 * MIB,
    "meta_storm": 2 * 1024,
}
# Set-up repetitions per run; setup_s is their median.
SETUP_REPS = {"tool_stream": 11, "ckpt_restart": 15, "meta_storm": 15}
# A run must finish well inside the 180 s limit, whatever the system does.
DEADLINE_S = 170.0


class BenchError(Exception):
    """A run that cannot produce a result (build, launch or timeout)."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def build():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "perfbench_driver", "perfbench_tracer", "ldplfs"])
    with open(log_path, "w") as out:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                cwd=ROOT).returncode
            if rc != 0:
                raise BenchError(f"build failed ({' '.join(cmd[:2])}); "
                                 f"see {log_path}")
    bins = {
        "driver": os.path.join(build_dir, "perfbench_driver"),
        "tracer": os.path.join(build_dir, "perfbench_tracer"),
        "shim": os.path.join(build_dir, "ldplfs", "preload", "libldplfs.so"),
    }
    for path in bins.values():
        if not os.path.exists(path):
            raise BenchError(f"build produced no {path}")
    return bins


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

class Runner:
    """Runs the benchmark's processes with scrubbed environments inside one
    fresh run directory, and keeps the run's running totals."""

    def __init__(self, bins, workload, seed, run_dir):
        self.bins = bins
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.tmp = os.path.join(run_dir, "tmp")
        os.makedirs(self.tmp)
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.problems = []

    def env(self, mount=None, stats=None):
        # Only what the programs need: no inherited LDPLFS_*/PLFS_* knob can
        # leak in, and shadow files land inside the run directory.
        env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
               "LC_ALL": "C", "TMPDIR": self.tmp}
        if mount is not None:
            env["LD_PRELOAD"] = self.bins["shim"]
            env["LDPLFS_MOUNTS"] = mount
        if stats is not None:
            env["LDPLFS_STATS"] = stats
        return env

    def remaining(self):
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left <= 1:
            raise BenchError("out of time")
        return left

    def launch(self, argv, env):
        """Run one program to completion; return (parsed JSON, wall seconds)."""
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, env=env, cwd=self.run_dir,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=self.remaining())
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"timed out: {os.path.basename(argv[0])}") from exc
        wall = time.perf_counter() - t0
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"{os.path.basename(argv[0])} exited "
                             f"{proc.returncode} without a result")
        result = json.loads(lines[-1])
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.mismatches += result["mismatches"]
        if proc.returncode != 0:
            self.problems.append(f"{os.path.basename(argv[0])} "
                                 f"{' '.join(argv[1:3])} exited "
                                 f"{proc.returncode}")
        return result, wall

    def driver(self, phase, directory, mount, extra=(), stats=None):
        argv = [self.bins["driver"], self.workload, phase, "--dir", directory,
                "--seed", str(self.seed), *extra]
        return self.launch(argv, self.env(mount, stats))

    def fresh_dir(self, name):
        path = os.path.join(self.run_dir, name)
        os.makedirs(path)
        return path

    @property
    def correct(self):
        return self.failed == 0 and self.mismatches == 0 and not self.problems


def require_containers(backend):
    """Routing guard: every file the driver left on the mount must be a PLFS
    container on the backend (a directory holding hostdir.*), and there must
    be one. A shim that failed to load leaves plain files instead."""
    for entry in os.listdir(backend) or ["(nothing)"]:
        path = os.path.join(backend, entry)
        if not (os.path.isdir(path) and
                any(e.startswith("hostdir.") for e in os.listdir(path))):
            raise BenchError(f"routing guard: {path} is not a PLFS container "
                             "(shim not loaded?)")


def walk_containers(backend):
    """(bytes allocated, inode count, container count) over the containers
    in `backend`: st_blocks x 512 of every directory and file in each tree."""
    blocks = inodes = containers = 0
    for entry in sorted(os.listdir(backend)):
        root = os.path.join(backend, entry)
        containers += 1
        blocks += os.lstat(root).st_blocks
        inodes += 1
        for dirpath, dirnames, filenames in os.walk(root):
            for name in dirnames + filenames:
                blocks += os.lstat(os.path.join(dirpath, name)).st_blocks
                inodes += 1
    return blocks * 512, inodes, containers


def shm_entries():
    try:
        return {e for e in os.listdir("/dev/shm") if e.startswith("ldplfs")}
    except OSError:
        return set()


def median(values):
    return statistics.median(values) if values else 0.0


def window_figures(windows):
    """Throughput and latency of a run: medians over its windows. Per-file
    figures count the main loop's windows only, not tool_stream's stage-in."""
    r = [x for x in windows if x["read_s"] > 0]
    w = [x for x in windows if x["write_s"] > 0]
    t = [x for x in windows if not x["stage"]]
    us = 1e-3
    return {
        "read_MBps": median([x["read_bytes"] / MIB / x["read_s"] for x in r]),
        "read_p50_us": median([x["read_p50_ns"] for x in r]) * us,
        "read_p99_us": median([x["read_p99_ns"] for x in r]) * us,
        "write_MBps": median([x["write_bytes"] / MIB / x["write_s"] for x in w]),
        "write_p50_us": median([x["write_p50_ns"] for x in w]) * us,
        "write_p99_us": median([x["write_p99_ns"] for x in w]) * us,
        "files_per_s": median([x["files"] / x["total_s"] for x in t]),
        "file_p50_us": median([x["file_p50_ns"] for x in t]) * us,
        "file_p99_us": median([x["file_p99_ns"] for x in t]) * us,
        "iteration_s": median([x["total_s"] for x in t]),
    }


def ratio(num, den):
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def setup_reps(rn):
    """Run set-up SETUP_REPS times, each into a fresh backend; keep the last.
    Returns (backend, [wall seconds])."""
    walls = []
    backend = None
    for rep in range(SETUP_REPS[rn.workload]):
        if backend is not None:
            shutil.rmtree(backend)
        backend = rn.fresh_dir(f"mnt.{rep}")
        walls.append(rn.driver("setup", backend, backend)[1])
    return backend, walls


def paired(windows):
    """(measured, reference) window pairs of the same kind, in run order."""
    pairs, pending = [], {}
    for w in windows:
        if not w["ref"]:
            pending[w["stage"]] = w
        elif w["stage"] in pending:
            pairs.append((pending.pop(w["stage"]), w))
    return pairs


def slowdowns(pairs):
    """Measured / reference for each phase: the cost of going through the
    shim relative to plain I/O at the same moment, as the median ratio over
    every pair. Tails are measured p99 over the reference's median: a plain
    page-cache write's own p99 is allocator noise, too unsteady to divide
    by."""
    def med(phase, key, ref_key=None, subset=pairs):
        ref_key = ref_key or key
        return median([a[key] / b[ref_key] for a, b in subset
                       if a[phase] > 0 and b[phase] > 0 and b[ref_key] > 0])
    loop = [(a, b) for a, b in pairs if not a["stage"]]
    return {
        "read_cost_x": med("read_s", "read_s"),
        "read_p50_x": med("read_s", "read_p50_ns"),
        "read_p99_x": med("read_s", "read_p99_ns", "read_p50_ns"),
        "write_cost_x": med("write_s", "write_s"),
        "write_p50_x": med("write_s", "write_p50_ns"),
        "write_p99_x": med("write_s", "write_p99_ns", "write_p50_ns"),
        "file_cost_x": med("total_s", "total_s", subset=loop),
    }


def end_to_end(rn, seconds):
    backend, walls = setup_reps(rn)
    # The reference: the same iterations on a plain directory through raw
    # system calls, interleaved with the measured ones.
    ref = rn.fresh_dir("ref")
    rn.driver("setup", ref, None, ["--raw"])
    run, _ = rn.driver("run", backend, backend,
                       ["--seconds", str(seconds), "--keep", "--ref", ref])
    require_containers(backend)
    alloc, _, containers = walk_containers(backend)
    logical = KEPT_LOGICAL_BYTES[rn.workload] * max(containers, 1)
    out = {"setup_s": (median(walls), "s")}
    out.update({name: (value, "x")
                for name, value in slowdowns(paired(run["windows"])).items()})
    out["space_amp"] = (ratio(alloc, logical), "ratio")
    out["peak_rss_MiB"] = (run["maxrss_kib"] / 1024.0, "MiB")
    return out


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------

def read_dump(path):
    """Counters and histograms of one LDPLFS_STATS dump file."""
    with open(path) as f:
        dump = json.load(f)
    return dump["counters"], dump["histograms"]


def merge_dumps(paths):
    counters, hists = {}, {}
    for path in paths:
        c, h = read_dump(path)
        for k, v in c.items():
            counters[k] = counters.get(k, 0) + v
        for k, v in h.items():
            acc = hists.setdefault(k, {"count": 0, "sum_ns": 0})
            acc["count"] += v["count"]
            acc["sum_ns"] += v["sum_ns"]
    return counters, hists


def stats_ratios(counters, hists):
    c = counters.get
    flushes = c("wb.flush.async", 0) + c("wb.flush.sync", 0)
    routed_reads = c("router.read.routed", 0) + c("router.pread.routed", 0)
    delay = hists.get("pool.queue.delay", {"count": 0, "sum_ns": 0})
    return {
        "plfs.index.merges_per_open":
            (ratio(c("plfs.index.merges", 0), c("router.open.routed", 0)), "1/open"),
        "plfs.cache.index_hit_ratio":
            (ratio(c("cache.index.hit", 0),
                   c("cache.index.hit", 0) + c("cache.index.miss", 0)), "ratio"),
        "plfs.cache.fd_hit_ratio":
            (ratio(c("cache.fd.hit", 0),
                   c("cache.fd.hit", 0) + c("cache.fd.miss", 0)), "ratio"),
        "plfs.sieve.useful_ratio":
            (ratio(c("sieve.bytes.delivered", 0), c("sieve.bytes.read", 0)), "ratio"),
        "plfs.sieve.preads_per_read":
            (ratio(c("sieve.reads", 0) + c("sieve.reads.direct", 0), routed_reads),
             "1/read"),
        "plfs.wb.sync_flush_ratio": (ratio(c("wb.flush.sync", 0), flushes), "ratio"),
        "plfs.wb.flushes_per_MiB":
            (ratio(flushes, c("router.write.bytes", 0) / MIB), "1/MiB"),
        "plfs.wb.coalesce_merged_per_flush":
            (ratio(c("wb.coalesce.merged", 0), flushes), "1/flush"),
        "common.pool.queue_delay_us":
            (ratio(delay["sum_ns"], delay["count"]) * 1e-3, "us"),
        "common.pool.inline_ratio":
            (ratio(c("pool.tasks.inline", 0),
                   c("pool.tasks.inline", 0) + c("pool.tasks.submitted", 0)), "ratio"),
    }


def p50(layers, layer, op):
    return layers.get(layer, {}).get(op, {}).get("p50_ns", 0)


def traced(rn, seconds):
    wl = rn.workload
    # Untraced baseline under the shim: the driver's own per-call medians,
    # /proc/self/io deltas, and the per-iteration time trace.overhead
    # divides by. Each backend is removed as soon as it has been measured.
    backend = rn.fresh_dir("base")
    setup, _ = rn.driver("setup", backend, backend)
    base, _ = rn.driver("run", backend, backend,
                        ["--seconds", str(max(1.0, 0.3 * seconds)), "--keep"])
    require_containers(backend)
    _, inodes, containers = walk_containers(backend)
    shutil.rmtree(backend)
    iterations = sum(1 for w in base["windows"] if not w["stage"])

    # (a) the same work with LDPLFS_STATS: counters and ratios.
    stats_dir = rn.fresh_dir("stats")
    backend = rn.fresh_dir("mnt.stats")
    dumps = [os.path.join(stats_dir, "setup.json"), os.path.join(stats_dir, "run.json")]
    rn.driver("setup", backend, backend, stats=dumps[0])
    stats_run, _ = rn.driver("run", backend, backend,
                             ["--iterations", str(max(1, iterations))], stats=dumps[1])
    counters, hists = merge_dumps(dumps)
    shutil.rmtree(backend)

    # (b) in-process replay into core, plfs and posix, with spans.
    backend = rn.fresh_dir("mnt.replay")
    spans = os.path.join(rn.run_dir, "spans.csv")
    replay, _ = rn.launch([rn.bins["tracer"], wl, "--mount", backend,
                           "--seed", str(rn.seed), "--spans", spans],
                          rn.env())
    L = replay["layers"]
    shutil.rmtree(backend)

    # (c) the same driver on a plain directory, no shim.
    plain = rn.fresh_dir("plain")
    rn.driver("setup", plain, None)
    ref, _ = rn.driver("run", plain, None,
                       ["--seconds", str(max(1.0, 0.2 * seconds))])
    shutil.rmtree(plain)

    # The driver's own figures; preload.* subtracts the core replay from them.
    fig = window_figures(base["windows"])
    ref_fig = window_figures(ref["windows"])
    drv_read = fig["read_p50_us"] * 1e3
    drv_write = fig["write_p50_us"] * 1e3

    def data(layer, op):
        """A layer's per-op median for the workload's read or write calls
        (read(2)/write(2) or their positional forms; a workload uses one)."""
        return p50(L, layer, op) or p50(L, layer, "p" + op)

    io_procs = [setup, base]
    calls = sum(p["attempted"] for p in io_procs)
    io = {k: sum(p["io"][k] for p in io_procs) for k in ("rchar", "wchar", "syscr", "syscw")}
    read_bytes = sum(p["read_bytes"] for p in io_procs)
    write_bytes = sum(p["write_bytes"] for p in io_procs)

    metrics = {
        "preload.read_self_ns": (drv_read - data("core", "read"), "ns"),
        "preload.pwrite_self_ns": (drv_write - data("core", "write"), "ns"),
        "preload.open_self_ns": (base["open_ro"]["p50_ns"] - p50(L, "core", "open_ro"), "ns"),
        "preload.close_self_ns": (base["close_ro"]["p50_ns"] - p50(L, "core", "close_ro"), "ns"),
        "core.read_ns": (data("core", "read"), "ns"),
        "core.read_self_ns": (data("core", "read") - data("plfs", "read"), "ns"),
        "core.pwrite_self_ns": (data("core", "write") - data("plfs", "write"), "ns"),
        "core.pread_self_ns": (data("core", "read") - data("plfs", "read"), "ns"),
        "core.open_self_ns": (p50(L, "core", "open") - p50(L, "plfs", "open"), "ns"),
        "core.close_self_ns": (p50(L, "core", "close") - p50(L, "plfs", "close"), "ns"),
        "core.stat_self_ns": (p50(L, "core", "stat") - p50(L, "plfs", "stat"), "ns"),
        "core.unlink_self_ns": (p50(L, "core", "unlink") - p50(L, "plfs", "unlink"), "ns"),
        "plfs.read_ns": (data("plfs", "read"), "ns"),
        "plfs.read_self_ns": (data("plfs", "read") - p50(L, "posix", "pread"), "ns"),
        "plfs.write_self_ns": (data("plfs", "write") - p50(L, "posix", "pwrite"), "ns"),
        "plfs.close_ns": (p50(L, "plfs", "close_wr"), "ns"),
        "plfs.index_open_ns": (p50(L, "plfs", "index_open"), "ns"),
        "plfs.create_ns": (p50(L, "plfs", "create"), "ns"),
        "plfs.open_ro_ns": (p50(L, "plfs", "open_ro"), "ns"),
        "plfs.getattr_ns": (p50(L, "plfs", "stat"), "ns"),
        "plfs.unlink_ns": (p50(L, "plfs", "unlink"), "ns"),
        "plfs.backend_inodes_per_file": (ratio(inodes, containers), "inodes"),
        "posix.pread_ns": (p50(L, "posix", "pread"), "ns"),
        "posix.pwrite_ns": (p50(L, "posix", "pwrite"), "ns"),
        "posix.syscr_per_op": (ratio(io["syscr"], calls), "1/op"),
        "posix.syscw_per_op": (ratio(io["syscw"], calls), "1/op"),
        "posix.read_amp": (ratio(io["rchar"], read_bytes), "ratio"),
        "posix.write_amp": (ratio(io["wchar"], write_bytes), "ratio"),
        "ref.read_p50_us": (ref_fig["read_p50_us"], "us"),
        "ref.write_MBps": (ref_fig["write_MBps"], "MB/s"),
        "ref.files_per_s": (ref_fig["files_per_s"], "1/s"),
        "ref.read_slowdown": (ratio(fig["read_p50_us"], ref_fig["read_p50_us"]), "x"),
        "trace.overhead": (ratio(window_figures(stats_run["windows"])["iteration_s"],
                                 fig["iteration_s"]), "x"),
    }
    # The shim's absolute figures, as a user on this machine sees them now.
    units = {"MBps": "MB/s", "_us": "us", "_per_s": "1/s"}
    for name in ("read_MBps", "read_p50_us", "read_p99_us", "write_MBps",
                 "write_p50_us", "write_p99_us", "files_per_s", "file_p50_us",
                 "file_p99_us"):
        unit = next(u for k, u in units.items() if name.endswith(k))
        metrics[f"abs.{name}"] = (fig[name], unit)
    metrics.update(stats_ratios(counters, hists))
    return metrics


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def declared_metrics(trace):
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(bins, workload, seed, seconds, trace):
    """One run of one workload; returns the result object."""
    runs_root = os.path.join(ROOT, ".bench_run")
    os.makedirs(runs_root, exist_ok=True)
    run_dir = os.path.join(runs_root, f"{workload}.{os.getpid()}.{trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    shm_before = shm_entries()
    rn = Runner(bins, workload, seed, run_dir)
    try:
        metrics = (traced if trace else end_to_end)(rn, seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        for leaked in shm_entries() - shm_before:
            log(f"removing leaked shared segment /dev/shm/{leaked}")
            try:
                os.unlink(os.path.join("/dev/shm", leaked))
            except OSError:
                pass
    declared = declared_metrics(trace)
    produced = {k: u for k, (_, u) in metrics.items()}
    if produced != declared:
        raise BenchError("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(produced.items()) ^ set(declared.items()))}")
    for problem in rn.problems:
        log(problem)
    return {
        "correct": rn.correct,
        "attempted": max(1, rn.attempted),
        "failed": rn.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            seconds = json.load(f)["run_seconds"]

    try:
        bins = build()
        if args.workload:
            result = run_one(bins, args.workload, args.seed, seconds, args.trace)
            print(json.dumps(result))
            return 0 if result["correct"] else 1
        ok = True
        for workload in WORKLOADS:
            for trace in (0, 1):
                result = run_one(bins, workload, args.seed, seconds, trace)
                ok = ok and result["correct"]
                print(f"== {workload} (trace {trace}): correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}")
                for name, m in result["metrics"].items():
                    print(f"  {name:38s} {m['value']:>16.6g} {m['unit']}")
        return 0 if ok else 1
    except BenchError as exc:
        log(str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
