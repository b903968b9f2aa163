#!/usr/bin/env python3
"""End-to-end benchmark of tpdbt: figure suite cold / trace-warm / sampled,
and a mixed request load on tpdbt-sweepd.

Run from the repository root:

    python3 bench/e2e/run.py --workload suite-cold --seed 1 --seconds 12 --trace 0

It builds bench/e2e (the libraries, tools and the tpdbt-e2e worker) into
$CARGO_TARGET_DIR/e2e (default .bench_build/e2e), sets the workload up
several times, repeats it for --seconds, checks every output against the
golden files, and prints one JSON object as its last stdout line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones and
writes trace-<workload>.json. A full result file with quartiles, samples
and the run context goes to $CARGO_TARGET_DIR/e2e-results/. --smoke runs
every workload once at a small scale to check the benchmark itself.
See bench/e2e/README.md.
"""

import argparse
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
GOLDEN = os.path.join(HERE, "golden")
WORKLOADS = ("suite-cold", "suite-trace-warm", "suite-sampled", "daemon-mixed")

# The settings a --smoke run changes. The suites run at scale 0.05; the
# daemon serves a pre-recorded scale-0.02 cache plus sweeps at 0.01, which
# nothing records before the round. Settings no run changes (worker
# threads, sample seeds and budget, client connections, the recheck share)
# are constants of the tpdbt-e2e worker.
NORMAL = dict(suite_scale=0.05, daemon_scale=0.02, new_scale=0.01, setups=3,
              setup_seconds=1.0, requests=200, daemon_rounds=5)
SMOKE = dict(suite_scale=0.02, daemon_scale=0.02, new_scale=0.01, setups=1,
             setup_seconds=0.0, requests=40, daemon_rounds=1)
DAEMON_TIMEOUT_S = 30

# Refuse to start below these (measured peaks: about 1.2 GB RSS and one
# 0.8 GB trace cache at a time, plus the build tree).
MIN_FREE_DISK_GB = 4.0
MIN_FREE_RAM_GB = 3.0


class Failure(Exception):
    pass


def log(msg):
    print("e2e: " + msg, file=sys.stderr, flush=True)


def percentile(values, q):
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def summarize(values):
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else [values[0]] * 3)
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def free_ram_gb():
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) / 2**20
    return 0.0


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def preflight():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise Failure("tpdbt sources (src/) not found next to bench/e2e")
    os.makedirs(target_dir(), exist_ok=True)
    disk = shutil.disk_usage(target_dir()).free / 2**30
    ram = free_ram_gb()
    if disk < MIN_FREE_DISK_GB or ram < MIN_FREE_RAM_GB:
        raise Failure("needs %.0f GB free disk and %.0f GB available RAM; "
                      "have %.1f GB and %.1f GB"
                      % (MIN_FREE_DISK_GB, MIN_FREE_RAM_GB, disk, ram))
    return {"free_disk_gb": disk, "free_ram_gb": ram}


def build():
    out = os.path.join(target_dir(), "e2e")
    # The compiler's temporary files stay inside the build tree too.
    tmp = os.path.abspath(os.path.join(target_dir(), "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, env=env, check=True)
    subprocess.run(["cmake", "--build", out, "-j", "4"], stdout=sys.stderr,
                   env=env, check=True)
    return (os.path.join(out, "tpdbt-e2e"),
            os.path.join(out, "tpdbt-tools", "tpdbt-sweepd"))


def child_env(extra=None):
    # Library knobs come only from the benchmark, never from the caller.
    env = {k: v for k, v in os.environ.items() if not k.startswith("TPDBT_")}
    env.update(extra or {})
    return env


class Runner:
    def __init__(self, e2e, sweepd, workload, seed, seconds, trace, cfg):
        self.e2e, self.sweepd = e2e, sweepd
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.cfg = trace, cfg
        self.work = os.path.join(target_dir(), "e2e-work",
                                 "%s-%d" % (workload, os.getpid()))
        self.trace_out = os.path.join(target_dir(), "e2e-out",
                                      "trace-%s.json" % workload)
        self.attempted = self.failed = 0
        self.setup_s = []
        self.reps = []  # per repetition: {"traced": bool, "e2e": {...}, ...}
        self.hashes = set()
        self.daemon = None

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def child(self, *args):
        p = subprocess.run([self.e2e] + [str(a) for a in args],
                           stdout=subprocess.PIPE, env=child_env(),
                           text=True, timeout=150)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            raise Failure("tpdbt-e2e %s exited %d" % (args[0], p.returncode))
        r = json.loads(lines[-1])
        self.attempted += r.get("attempted", 0)
        self.failed += r.get("failed", 0)
        return r

    def golden(self, scale):
        return os.path.join(GOLDEN, "scale-%g" % scale)

    def oracle(self):
        self.child("oracle", "--root", ROOT, "--cache",
                   self.path("prof-cache"), "--golden", GOLDEN)

    def record(self, scale, cache):
        shutil.rmtree(cache, ignore_errors=True)
        self.child("record", "--scale", scale, "--cache", cache)

    def repeat(self, body, min_reps=1):
        """Runs body(k, traced) at least min_reps times and until --seconds
        have passed; a traced run alternates untraced and traced
        repetitions and needs one of each."""
        start = time.monotonic()
        k = 0
        need = 2 if self.trace else min_reps
        while k < need or time.monotonic() - start < self.seconds:
            body(k, self.trace and k % 2 == 1)
            k += 1

    def add_rep(self, r, traced, cpu_s=None, rss_mb=None):
        if not r["lat_ms"]:
            raise Failure("no request completed")
        self.reps.append({"traced": traced, "layers": r.get("layers", {}),
                          "lat_ms": r["lat_ms"], "e2e": {
            "wall_s": r["wall_s"],
            "cpu_s": r["cpu_s"] if cpu_s is None else cpu_s,
            "peak_rss_mb": r["peak_rss_mb"] if rss_mb is None else rss_mb,
            "cache_disk_mb": r["trace_bytes"] / 2**20}})

    def trace_args(self, traced):
        return ["--trace", self.trace_out] if traced else []

    # --- workloads ----------------------------------------------------

    def suite_setups(self, cache=None):
        """The .prof-warm oracle, and for the warm workloads the trace cache
        they measure. The oracle's copy of the committed cache is made once,
        untimed: file creation is throttled by whatever dirty pages earlier
        runs left behind."""
        shutil.copytree(os.path.join(ROOT, "tpdbt_cache"),
                        self.path("prof-cache"),
                        ignore=lambda d, names: [
                            n for n in names if not n.endswith(".prof")])
        # A cold set-up is only the oracle (about 15 ms), so it repeats for
        # setup_seconds to give its median many samples.
        start = time.monotonic()
        while len(self.setup_s) < self.cfg["setups"] or \
                time.monotonic() - start < self.cfg["setup_seconds"]:
            t0 = time.perf_counter()
            self.oracle()
            if cache:
                self.record(self.cfg["suite_scale"], cache)
            self.setup_s.append(time.perf_counter() - t0)

    def suite(self, mode):
        s, warm = self.cfg["suite_scale"], mode == "warm"
        self.suite_setups(self.path("cache") if warm else None)

        def rep(k, traced):
            # Each cold repetition records into, then deletes, its own dir.
            cache = self.path("cache" if warm else "cold%d" % k)
            r = self.child("suite", "--mode", mode, "--scale", s,
                           "--cache", cache, "--golden", self.golden(s),
                           *self.trace_args(traced))
            if not warm:
                shutil.rmtree(cache)
            self.add_rep(r, traced)
        self.repeat(rep)

    def suite_cold(self):
        self.suite("cold")

    def suite_trace_warm(self):
        self.suite("warm")

    def suite_sampled(self):
        s, cache = self.cfg["suite_scale"], self.path("cache")
        self.suite_setups(cache)

        def rep(k, traced):
            r = self.child("sampled", "--scale", s, "--cache", cache,
                           "--seed", self.seed, "--golden", self.golden(s),
                           *self.trace_args(traced))
            # Every repetition draws the same sample seeds, so every one
            # must reproduce the same tables.
            self.hashes.add(tuple(r["hashes"]))
            self.add_rep(r, traced)
        self.repeat(rep)

    def start_daemon(self, cache, sock):
        log_file = open(self.path("sweepd.log"), "w")
        self.daemon = subprocess.Popen(
            [self.sweepd, "--socket", sock, "--quiet"], stdout=log_file,
            stderr=log_file, env=child_env({
                "TPDBT_CACHE_DIR": cache, "TPDBT_JOBS": "1",
                "TPDBT_SWEEPD_MAX_ACTIVE": "2"}))
        log_file.close()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if self.daemon.poll() is not None:
                raise Failure("tpdbt-sweepd exited at start-up")
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as probe:
                try:
                    probe.connect(sock)
                    return
                except OSError:
                    time.sleep(0.001)
        raise Failure("tpdbt-sweepd did not accept connections")

    def reap_daemon(self):
        """Waits for the daemon to exit; returns its (cpu_s, peak_rss_mb)."""
        deadline = time.monotonic() + DAEMON_TIMEOUT_S
        while True:
            pid, status, ru = os.wait4(self.daemon.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                raise Failure("tpdbt-sweepd did not stop")
            time.sleep(0.005)
        self.daemon.returncode = os.waitstatus_to_exitcode(status)
        code, self.daemon = self.daemon.returncode, None
        if code != 0:
            raise Failure("tpdbt-sweepd exited %d" % code)
        return ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0

    def daemon_mixed(self):
        s, cache = self.cfg["daemon_scale"], self.path("cache")
        sock = os.path.relpath(self.path("sweepd.sock"))

        def rep(k, traced):
            t0 = time.perf_counter()
            self.record(s, cache)
            self.start_daemon(cache, sock)
            self.setup_s.append(time.perf_counter() - t0)
            r = self.child("daemon", "--socket", sock, "--cache", cache,
                           "--golden", self.golden(s),
                           "--seed", self.seed * 1000 + k,  # per round
                           "--requests", self.cfg["requests"], "--scale", s,
                           "--new-scale", self.cfg["new_scale"],
                           *self.trace_args(traced))
            cpu_s, rss_mb = self.reap_daemon()
            self.add_rep(r, traced, cpu_s, rss_mb)
        # A round's peak RSS depends on which computations overlap, which
        # its request order decides; five rounds, each with its own order,
        # keep the medians steady.
        self.repeat(rep, self.cfg["daemon_rounds"])

    def run(self):
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        os.makedirs(os.path.dirname(self.trace_out), exist_ok=True)
        try:
            getattr(self, self.workload.replace("-", "_"))()
        finally:
            if self.daemon is not None:
                self.daemon.kill()
                self.daemon.wait()
            shutil.rmtree(self.work, ignore_errors=True)
        if len(self.hashes) > 1:
            log("sampled tables differ between repetitions of one seed")
            self.failed += 1


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def report(runner, bench):
    """The reported metrics plus the full result record. Request latencies
    are pooled over the untraced repetitions; every other end-to-end value
    is the median over repetitions (set-ups for setup_s)."""
    untraced = [r for r in runner.reps if not r["traced"]]
    traced = [r for r in runner.reps if r["traced"]]
    lat = [x for r in untraced for x in r["lat_ms"]]
    pooled = {"req_p50_ms": percentile(lat, 0.50),
              "req_p95_ms": percentile(lat, 0.95),
              "req_per_s": len(lat) / sum(r["e2e"]["wall_s"] for r in untraced)}
    full = {}
    for m in bench["end_to_end"]:
        name = m["name"]
        if name in pooled:
            full[name] = {"value": pooled[name], "requests": len(lat)}
        else:
            full[name] = summarize(runner.setup_s if name == "setup_s" else
                                   [r["e2e"][name] for r in untraced])
        full[name]["unit"] = m["unit"]
    if runner.trace:
        wall = lambda reps: statistics.median(r["e2e"]["wall_s"] for r in reps)
        overhead = wall(traced) / wall(untraced) - 1.0
        for m in bench["per_layer"]:
            name = m["name"]
            values = [overhead] if name == "harness.trace_overhead_frac" else \
                [r["layers"].get(name, 0.0) for r in traced]
            full[name] = dict(summarize(values), unit=m["unit"])
    wanted = bench["per_layer" if runner.trace else "end_to_end"]
    metrics = {m["name"]: {"value": full[m["name"]]["value"],
                           "unit": m["unit"]} for m in wanted}
    return metrics, full


def run_context(e2e):
    ctx = json.loads(subprocess.run([e2e, "context"], stdout=subprocess.PIPE,
                                    text=True, check=True).stdout)
    ctx.pop("ok", None)
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True).stdout.strip()
    except OSError:
        rev = ""
    ctx.update(nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
               git_revision=rev or "unknown")
    return ctx


def one(args, e2e, sweepd, cfg, trace, context):
    runner = Runner(e2e, sweepd, args.workload, args.seed, args.seconds,
                    trace, cfg)
    context = dict(context, loadavg_before=os.getloadavg())
    t0 = time.monotonic()
    runner.run()
    context.update(loadavg_after=os.getloadavg(),
                   elapsed_s=time.monotonic() - t0)
    metrics, full = report(runner, spec())
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=int(trace), settings=cfg,
                  context=context, detail=full)
    return result, record


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload once at scale 0.02 (self-check)")
    ap.add_argument("--out", help="result file (default: "
                    "$CARGO_TARGET_DIR/e2e-results/<workload>.seed<N>"
                    ".trace<T>.json)")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required unless --smoke is given")
    os.chdir(ROOT)
    try:
        resources = preflight()
        e2e, sweepd = build()
        context = dict(run_context(e2e), **resources)
        if args.smoke:
            # One untraced and one traced repetition of every workload.
            totals = {"correct": True, "attempted": 0, "failed": 0}
            args.seconds = 0
            for w in WORKLOADS:
                args.workload = w
                result, record = one(args, e2e, sweepd, SMOKE, True, context)
                log("smoke %s: correct=%s attempted=%d failed=%d wall_s=%.3f"
                    % (w, result["correct"], result["attempted"],
                       result["failed"], record["detail"]["wall_s"]["value"]))
                totals["correct"] &= result["correct"]
                totals["attempted"] += result["attempted"]
                totals["failed"] += result["failed"]
            print(json.dumps(dict(totals, metrics={})))
            return 0 if totals["correct"] else 1
        result, record = one(args, e2e, sweepd, NORMAL, bool(args.trace),
                             context)
    except (Failure, subprocess.SubprocessError, OSError, ValueError) as e:
        log("error: %s" % e)
        return 1
    out = args.out or os.path.join(
        target_dir(), "e2e-results",
        "%s.seed%d.trace%d.json" % (args.workload, args.seed, args.trace))
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
