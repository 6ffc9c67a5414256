#!/usr/bin/env python3
"""The repository benchmark: four workloads from the paper's Table 1, cold to warm.

Run from the repository root:

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 15 --trace 0

It builds `marple`, `marpled` and the `perfbench` helper from source (release
profile, into $CARGO_TARGET_DIR or `.bench_build`), sets the workload up three
times, measures it for `--seconds`, checks every verdict against an answer key
that no checker computed (the suite's `Method::expect_verified`, or the verdict a
generated configuration was built to have), and prints the metrics. With
`--trace 0` these are the end-to-end metrics of BENCHMARK.json, measured with no
tracing; with `--trace 1` they are its per-layer metrics, from traced `--jobs 1`
passes the helper times from outside the program. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The lines before it give
every metric under its workload-specific name, and the provenance of the run.

End-to-end metrics are the same for every workload; an operation is one cold
`check-all` (suite-cold), one `marple check` process (warm-oneshot), one `check`
request (daemon-warm) or one generated configuration (gen-stream).
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".bench_work")
TARGET = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
BIN = os.path.join(TARGET, "release")
MARPLE = os.path.join(BIN, "marple")
MARPLED = os.path.join(BIN, "marpled")
HELPER = os.path.join(BIN, "perfbench")
# Relative, so the socket path stays short wherever the checkout lives; every
# process here runs with the checkout root as its working directory.
DAEMON_ADDR = "unix:.bench_work/marpled.sock"
SETUPS = 3
JOBS = 2  # the box has two cores: no workload uses more workers or connections
ONESHOT_MIN_SAMPLES = 100  # ten beyond p90
DAEMON_MIN_SAMPLES = 1000  # ten beyond p99
DAEMON_WINDOW_S = 3  # ~1000 requests: ten beyond each window's p99
GEN_MIN_SAMPLES = 100  # ten beyond p90
GEN_EPOCH = 50  # configurations per engine (one helper process)
GEN_SEED = 424242  # hat-gen's corpus seed

# The workload-specific name of each end-to-end metric, printed before the result.
ALIASES = {
    "suite-cold": [("check_all_s", "latency_p50_ms", 1e-3, "s"), ("check_all_cpu_s", "cpu_ms_per_op", 1e-3, "s")],
    "warm-oneshot": [("oneshot_p50_ms", "latency_p50_ms", 1, "ms"), ("oneshot_p90_ms", "latency_tail_ms", 1, "ms")],
    "daemon-warm": [
        ("daemon_p50_ms", "latency_p50_ms", 1, "ms"),
        ("daemon_p90_ms", "latency_tail_ms", 1, "ms"),
        ("daemon_req_per_s", "throughput_per_s", 1, "1/s"),
    ],
    "gen-stream": [("gen_configs_per_s", "throughput_per_s", 1, "1/s")],
}


class Failure(Exception):
    """A step of the benchmark could not run."""


def now():
    return time.perf_counter()


def run_checked(cmd, **kw):
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, **kw)
    if r.returncode != 0:
        raise Failure(f"{' '.join(cmd)} exited {r.returncode}:\n{r.stdout[-4000:]}")
    return r.stdout


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=TARGET)
    deadline = now() + 860
    for manifest, bins in (("Cargo.toml", ["--bin", "marple", "--bin", "marpled"]),
                           (os.path.join(HERE, "Cargo.toml"), [])):
        run_checked(["cargo", "build", "--release", "--offline", "--locked", "--manifest-path", manifest, *bins],
                    env=env, timeout=max(1, deadline - now()))


def helper(*args, timeout=170):
    """Runs the perfbench helper; returns the JSON object on its last stdout line."""
    out = run_checked([HELPER, *map(str, args)], timeout=timeout)
    return json.loads(out.strip().splitlines()[-1])


def timed(cmd):
    """Runs a process to exit: wall seconds, user+system CPU seconds, peak RSS MiB, stdout, exit code."""
    start = now()
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = p.stdout.read()
    p.stdout.close()
    _, status, usage = os.wait4(p.pid, 0)
    wall = now() - start
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, out.decode(), p.returncode


def fresh_store(name):
    path = os.path.join(WORK, name + ".cache")
    for p in (path, path + ".lock", path + ".addr"):
        if os.path.exists(p):
            os.remove(p)
    shutil.rmtree(path + ".d", ignore_errors=True)
    return path


def answer_key():
    key = helper("expect")
    answers = {(c["adt"], c["library"]): {m["name"]: m["expect"] for m in c["methods"]} for c in key["configs"]}
    return answers, key["knobs"]


HEADER = re.compile(r"^== (\S+) / (\S+) — ")
METHOD = re.compile(r"^   (\S+)\s+(verified|rejected|VERIFIED|FAILED|cancelled)")
STALE = re.compile(r"(\d+) stale")
METHOD_TIME = re.compile(r"^   \S+ .* t=([0-9.]+)s$", re.M)


def wrong_verdicts(out, answers, configs):
    """Expected methods of `configs` whose printed verdict is wrong or missing."""
    seen, config = {}, None
    for line in out.splitlines():
        m = HEADER.match(line)
        if m:
            config = (m.group(1), m.group(2))
            continue
        m = METHOD.match(line)
        if m and config is not None:
            seen[(config, m.group(1))] = m.group(2) in ("verified", "VERIFIED")
    return sum(seen.get((c, name)) is not expect for c in configs for name, expect in answers[c].items())


def slowest_method_s(out):
    """The longest per-method check time a run printed: its critical path."""
    return max(map(float, METHOD_TIME.findall(out)), default=0.0)


def stale_records(out):
    m = STALE.search(out)
    return int(m.group(1)) if m else 0


def quantile(values, q):
    """Nearest-rank quantile, q in (0, 1]."""
    s = sorted(values)
    return s[max(1, min(len(s), int(-(-q * len(s) // 1)))) - 1]


class Result:
    def __init__(self):
        self.metrics = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems = []
        self.notes = []
        self.extras = {}  # workload-specific figures printed by name, not in the result


def loop_until(seconds, min_samples, samples):
    start = now()
    while now() - start < seconds or len(samples) < min_samples:
        yield


# ---------------------------------------------------------------- workloads


def suite_cold(r, seed, seconds):
    """Cold `check-all` passes, each on a fresh on-disk store."""
    setups = []
    for _ in range(SETUPS):
        start = now()
        answers, _ = answer_key()
        fresh_store("cold")
        setups.append(now() - start)
    configs = list(answers)
    walls, cpus, rss, critical = [], [], [], []
    for _ in loop_until(seconds, 3, walls):
        store = fresh_store("cold")
        wall, cpu, peak, out, code = timed([MARPLE, "check-all", "--jobs", str(JOBS), "--cache", store])
        wrong = wrong_verdicts(out, answers, configs)
        r.attempted += 1
        r.failed += int(code != 0 or wrong > 0)
        r.wrong += wrong
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
        critical.append(slowest_method_s(out))
    fresh_store("cold")
    r.metrics.update(
        latency_p50_ms=statistics.median(walls) * 1e3,
        # A handful of passes has no tail percentile; the tail of a pass is its
        # slowest method job, which sets the pass's time (FileSystem/KVStore `add`).
        latency_tail_ms=statistics.median(critical) * 1e3,
        throughput_per_s=len(walls) / sum(walls),
        cpu_ms_per_op=statistics.median(cpus) * 1e3,
        peak_rss_mb=max(rss),
        setup_s=statistics.median(setups),
    )
    r.notes.append(f"{len(walls)} cold check-all passes")


def write_store(name, answers):
    """A fresh store written by one cold `check-all --jobs 2`, as a first `marple check-all --cache` leaves it."""
    store = fresh_store(name)
    _, _, _, out, code = timed([MARPLE, "check-all", "--jobs", str(JOBS), "--cache", store])
    if code != 0 or wrong_verdicts(out, answers, list(answers)):
        raise Failure("the check-all that writes the warm store gave wrong verdicts")
    return store


def store_guard(r, before, after, stale=0):
    if before != after or after["torn_segments"] or after["malformed"] or stale:
        r.problems.append(f"store changed while sampling: {before} -> {after}, {stale} stale")


def warm_oneshot(r, seed, seconds):
    """Fresh `marple check` processes against the store a cold check-all wrote."""
    answers, _ = answer_key()
    setups = []
    for _ in range(SETUPS):
        start = now()
        store = write_store("warm", answers)
        setups.append(now() - start)
    configs = list(answers)
    rng = random.Random(seed)
    before = helper("inspect", store)
    walls, cpus, rss, stale = [], [], [], 0
    for _ in loop_until(seconds, ONESHOT_MIN_SAMPLES, walls):
        config = rng.choice(configs)
        wall, cpu, peak, out, code = timed([MARPLE, "check", *config, "--cache", store])
        wrong = wrong_verdicts(out, answers, [config])
        stale += stale_records(out)
        r.attempted += 1
        r.failed += int(code != 0 or wrong > 0)
        r.wrong += wrong
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
    store_guard(r, before, helper("inspect", store), stale)
    fresh_store("warm")
    r.metrics.update(
        latency_p50_ms=statistics.median(walls) * 1e3,
        latency_tail_ms=quantile(walls, 0.9) * 1e3,
        throughput_per_s=len(walls) / sum(walls),
        cpu_ms_per_op=statistics.median(cpus) * 1e3,
        peak_rss_mb=max(rss),
        setup_s=statistics.median(setups),
    )
    r.notes.append(f"{len(walls)} one-shot processes")


def proc_cpu(pid):
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0


class Daemon:
    """A marpled on a fresh on-disk store, warmed by one checked check-all."""

    def __init__(self, r):
        self.store = fresh_store("daemon")
        self.proc = subprocess.Popen(
            [MARPLED, "--addr", DAEMON_ADDR, "--cache", self.store, "--jobs", str(JOBS), "--quiet"],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            warm = helper("daemon-warmup", "--addr", DAEMON_ADDR)
        except BaseException:
            self.stop()
            raise
        r.wrong += warm["wrong"]

    def stop(self):
        if self.proc.poll() is None:
            subprocess.run([MARPLE, "daemon", "stop", "--remote", DAEMON_ADDR], cwd=ROOT,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        fresh_store("daemon")

    def load(self, seed, seconds, min_samples):
        return helper("daemon-load", "--addr", DAEMON_ADDR, "--seed", seed, "--seconds", seconds,
                      "--clients", JOBS, "--min-samples", min_samples)


def load_failures(r, load):
    r.attempted += load["attempted"]
    r.wrong += load["wrong"]
    r.failed += load["wrong"] + load["errors"] + load["busy"] + load["cancelled"]
    if load["entries_before"] != load["entries_after"] or load["stale"]:
        r.problems.append(f"daemon store changed while sampling: {load['entries_before']} -> "
                          f"{load['entries_after']} entries, {load['stale']} stale")


def windowed(load):
    """Medians over DAEMON_WINDOW_S windows (by send time) of each window's p50, p90,
    p99 and completion rate: a burst of load from outside the run moves a few
    windows, not the medians."""
    windows = {}
    for sent, lat in zip(load["sent_s"], load["latency_ms"]):
        windows.setdefault(int(sent // DAEMON_WINDOW_S), []).append(lat)
    full = [w for k, w in sorted(windows.items()) if (k + 1) * DAEMON_WINDOW_S <= load["elapsed_s"]]
    return [statistics.median(quantile(w, q) for w in full) for q in (0.5, 0.9, 0.99)] + [
        statistics.median(len(w) / DAEMON_WINDOW_S for w in full)]


def daemon_warm(r, seed, seconds):
    """A closed loop of two connections sending `check` requests to a warm marpled."""
    setups = []
    daemon = None
    try:
        for i in range(SETUPS):
            start = now()
            daemon = Daemon(r)
            setups.append(now() - start)
            if i + 1 < SETUPS:
                daemon.stop()
        before = helper("inspect", daemon.store)
        cpu = proc_cpu(daemon.proc.pid)
        load = daemon.load(seed, seconds, DAEMON_MIN_SAMPLES)
        cpu = proc_cpu(daemon.proc.pid) - cpu
        rss = proc_peak_rss_mb(daemon.proc.pid)
        store_guard(r, before, helper("inspect", daemon.store))
    finally:
        if daemon is not None:
            daemon.stop()
    load_failures(r, load)
    lat = load["latency_ms"]
    p50, p90, p99, rate = windowed(load)
    # p99 of millisecond requests on two shared cores swings with any outside load,
    # so the tail metric is p90; p99 is printed by name.
    r.extras["daemon_p99_ms"] = (p99, "ms")
    r.metrics.update(
        latency_p50_ms=p50,
        latency_tail_ms=p90,
        throughput_per_s=rate,
        cpu_ms_per_op=cpu * 1e3 / load["attempted"],
        peak_rss_mb=rss,
        setup_s=statistics.median(setups),
    )
    r.notes.append(f"{len(lat)} requests over {JOBS} connections")


def gen_stream(r, seed, seconds):
    """Never-seen generated configurations, one at a time, to a long-lived in-memory engine.

    The stream is hat-gen's `s<GEN_SEED>-i<k>`, k = 0, 1, ..., in epochs of GEN_EPOCH
    configurations, each a fresh helper process with a fresh engine. Like suite-cold,
    the inputs do not depend on `--seed`: streams of different hat-gen seeds differ in
    weight by a third (its xorshift barely mixes the seed), and shuffling one slice
    moves the per-configuration latencies as much, so every run replays the same
    slice in the same order. A few heavy
    configurations take a third of the time, so every metric is a median over epochs
    of that epoch's figure, and setting an epoch's engine up is the workload's set-up."""
    lat, p50s, p90s, rates, cpus, rss, setups, methods = [], [], [], [], [], [], [], 0
    for _ in loop_until(seconds, GEN_MIN_SAMPLES, lat):
        start = now()
        epoch = len(rates)
        p = subprocess.Popen([HELPER, "gen-stream", "--seed", str(GEN_SEED), "--from", str(epoch * GEN_EPOCH),
                              "--count", str(GEN_EPOCH)], cwd=ROOT, stdout=subprocess.PIPE, text=True)
        ready = p.stdout.readline()
        setups.append(now() - start)
        out = p.stdout.read()
        p.stdout.close()
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        if p.returncode != 0 or ready.strip() != "ready":
            raise Failure(f"perfbench gen-stream exited {p.returncode}")
        epoch = json.loads(out.strip().splitlines()[-1])
        r.attempted += epoch["attempted"]
        r.failed += epoch["failed"]
        r.wrong += epoch["failed"]
        methods += epoch["methods"]
        lat += epoch["latency_ms"]
        p50s.append(quantile(epoch["latency_ms"], 0.5))
        p90s.append(quantile(epoch["latency_ms"], 0.9))
        rates.append(epoch["attempted"] / epoch["elapsed_s"])
        cpus.append((usage.ru_utime + usage.ru_stime) * 1e3 / epoch["attempted"])
        rss.append(usage.ru_maxrss / 1024)
    r.metrics.update(
        latency_p50_ms=statistics.median(p50s),
        latency_tail_ms=statistics.median(p90s),
        throughput_per_s=statistics.median(rates),
        cpu_ms_per_op=statistics.median(cpus),
        peak_rss_mb=statistics.median(rss),
        setup_s=statistics.median(setups),
    )
    r.notes.append(f"{len(lat)} generated configurations ({methods} methods) in {len(rates)} epochs")


WORKLOADS = {"suite-cold": suite_cold, "warm-oneshot": warm_oneshot, "daemon-warm": daemon_warm,
             "gen-stream": gen_stream}


def traced(r, workload, seed, per_layer):
    """The per-layer run: the helper's traced passes, plus the daemon's own numbers."""
    extra = {}
    if workload == "daemon-warm":
        daemon = Daemon(r)
        try:
            load = daemon.load(seed, 3, 200)
        finally:
            daemon.stop()
        load_failures(r, load)
        wire = [lat - srv for lat, srv in zip(load["latency_ms"], load["server_ms"])]
        extra = {
            "daemon.server_ms": statistics.median(load["server_ms"]),
            "daemon.wire_ms": statistics.median(wire),
            "daemon.queue_wait_p95_ms": statistics.median(load["queue_wait_p95_ms"]),
        }
    if workload == "gen-stream":
        seed = GEN_SEED  # the configurations of the workload's first epoch
    res = helper("trace", workload, "--seed", seed, "--work", WORK, "--marple", MARPLE)
    r.attempted += res["attempted"]
    r.failed += res["failed"]
    r.wrong += res["failed"]
    r.problems += res["problems"]
    r.notes += res["notes"]
    for name in res["nondeterministic"]:
        r.notes.append(f"non-deterministic counter, not reported: {name}")
    for name in per_layer:
        if name not in res["withheld"]:
            # 0 for a layer this workload's traffic does not reach.
            r.metrics[name] = extra.get(name, res["metrics"].get(name, 0.0))


# ---------------------------------------------------------------- provenance


def source_digest():
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "tools", os.path.relpath(HERE, ROOT)):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def provenance(workload, seed, seconds, trace, knobs):
    rev = None
    if os.path.isdir(".git") and shutil.which("git"):
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    with open("Cargo.toml") as f:
        manifest = f.read()
    profile = re.search(r"\[profile\.release\]\n((?:[^\[].*\n?)*)", manifest)
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    return {
        "git_revision": rev,
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "build": "release " + " ".join((profile.group(1) if profile else "").split()),
        "rustc": rustc,
        "engine_knobs": knobs,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    try:
        build()
    except (Failure, subprocess.TimeoutExpired, OSError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        sys.exit(1)
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    r = Result()
    try:
        _, knobs = answer_key()
        if args.trace:
            traced(r, args.workload, args.seed, list(units))
        else:
            WORKLOADS[args.workload](r, args.seed, args.seconds)
    except (Failure, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as e:
        print(f"{args.workload}: {e}", file=sys.stderr)
        sys.exit(1)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    missing = [n for n in units if n not in r.metrics and not args.trace]
    if missing:
        print(f"{args.workload}: metrics not measured: {missing}", file=sys.stderr)
        sys.exit(1)
    share = r.failed / max(r.attempted, 1)
    for note in r.notes + r.problems:
        print(f"{args.workload}: {note}")
    if not args.trace:
        for alias, name, scale, unit in ALIASES[args.workload]:
            print(f"{args.workload} {alias} = {r.metrics[name] * scale:.6g} {unit}")
        for alias, (value, unit) in r.extras.items():
            print(f"{args.workload} {alias} = {value:.6g} {unit}")
    print(f"{args.workload} ops_failed_share = {share:.6g} ({r.failed} of {r.attempted} operations)")
    for name, value in sorted(r.metrics.items()):
        print(f"{args.workload} {name} = {value:.6g} {units.get(name, '')}")
    print("provenance " + json.dumps(provenance(args.workload, args.seed, args.seconds, args.trace, knobs)))
    correct = r.wrong == 0 and not r.problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(r.attempted, 1),
        "failed": r.failed,
        "metrics": {n: {"value": r.metrics[n], "unit": units[n]} for n in units if n in r.metrics},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
