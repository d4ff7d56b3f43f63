#!/usr/bin/env python3
"""End-to-end benchmark of a labmon campaign.

One run:
    python3 labbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds labbench (CMake, into .bench_build/ of the checkout), runs the
workload in a process of its own, checks every operation's output hash
against the reference for the seed, and prints as its last stdout line
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1). The line before it is the full record: every metric
with unit and sample count, failed_ops_ratio, failures, thread counts,
nproc and hardware_concurrency.

setup_s is the time from spawning a benchmark process to the start of its
first timed operation (process start plus the workload's set-up; there is
no warm-up), the median over SETUP_SAMPLES processes, plus for replay_k8 the
median time of SPILL_SAMPLES child processes that write the spill directory
it replays.

Every workload, untraced and traced, as one JSON document:
    python3 labbench/run.py --all [--seed N] [--seconds S]
Self-test (fails when a metric BENCHMARK.json names is missing or not
finite, or an operation failed):
    python3 labbench/run.py --self-test [--seconds S]

Reference hashes: the default seed's are committed in
labbench/reference_hashes.json; for any other seed they are computed by the
other engine in a separate process (`labbench reference`), so the reference
never touches the measured process's peak RSS, and kept under
.bench_build/reference/ for later runs of the same binary and seed.
"""
import argparse
import fcntl
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "labbench"
BINARY = BUILD_DIR / "labbench"
DEFAULT_SEED = 20050201  # the paper campaign's seed (CampusConfig default)
# A child that does not time for --seconds (spill, reference, setup) gets
# this long; a `run` child gets twice its --seconds on top, for the last
# operation and the traced one.
CHILD_TIMEOUT_S = 100
# Set-up samples per run: the run's own set-up plus SETUP_SAMPLES - 1
# `labbench setup` processes doing the same set-up, half of them before the
# run and half after, so one slow stretch of the machine moves few of them.
SETUP_SAMPLES = 9
# replay_k8 set-up writes its spill directory this many times, each in a
# child process; the replay reads the last one.
SPILL_SAMPLES = 3
BUILD_JOBS = min(4, os.cpu_count() or 1)


class BenchError(Exception):
    pass


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text())


def build():
    """Configures once and builds (a no-op when up to date)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("labmon sources (src/) not found in the checkout")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_ROOT / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release", *generator])
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j", str(BUILD_JOBS)])
        for cmd in steps:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))


def run_child(args, timeout=CHILD_TIMEOUT_S):
    """Runs the benchmark binary; returns its last stdout line as JSON."""
    proc = subprocess.Popen([str(BINARY), *map(str, args)], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"labbench {args[0]} timed out")
    lines = out.strip().splitlines()
    if not lines:
        sys.stderr.write(err[-4000:])
        raise BenchError(f"labbench {args[0]} exited {proc.returncode} "
                         "without a result")
    result = json.loads(lines[-1])
    result["_returncode"] = proc.returncode
    return result


# Workloads whose operations compute the same campaign share a reference.
REFERENCE_GROUP = {"campaign_spill_k8": "campaign_k8", "replay_k8": "campaign_k8",
                   "report_k12_1d": "report_k12_1d",
                   "harvest_bag_77d": "harvest_bag_77d"}


def reference_hashes(workload, seed):
    """Reference output hashes of `seed`, and any reference failures."""
    if seed == DEFAULT_SEED:
        committed = json.loads((BENCH_DIR / "reference_hashes.json").read_text())
        return committed[workload], []
    # Recomputed once per (binary, seed): the cache key includes the binary
    # itself, so a rebuilt program never reuses an old reference.
    with open(BINARY, "rb") as f:
        binary_digest = hashlib.sha256(f.read()).hexdigest()[:16]
    cache = (BUILD_ROOT / "reference" /
             f"{REFERENCE_GROUP[workload]}-{seed}-{binary_digest}.json")
    if cache.is_file():
        ref = json.loads(cache.read_text())
    else:
        ref = run_child(["reference", "--workload", workload, "--seed", seed])
        if ref["_returncode"] != 0:
            raise BenchError(f"labbench reference exited {ref['_returncode']}")
        cache.parent.mkdir(parents=True, exist_ok=True)
        tmp = cache.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(ref))
        tmp.replace(cache)
    return ref["hashes"], ref["failures"]


def metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def setup_seconds(workload, seed):
    """Seconds from spawning a `labbench setup` process to its set-up done."""
    spawn_unix = time.time()
    res = run_child(["setup", "--workload", workload, "--seed", seed])
    if res["_returncode"] != 0:
        raise BenchError(f"labbench setup exited {res['_returncode']}")
    return res["ready_unix"] - spawn_unix


def run_workload(spec, workload, seed, seconds, trace):
    """One measured run; returns the full record."""
    work = BUILD_ROOT / "work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    failures = []
    try:
        setup_samples = [setup_seconds(workload, seed)
                         for _ in range(SETUP_SAMPLES // 2)]
        spill_samples = []
        spill_hash = None
        args = ["run", "--workload", workload, "--seed", seed,
                "--seconds", seconds, "--trace", trace, "--work-dir", work]
        if workload == "replay_k8":
            # Set-up writes the spill directory in a child process, so its
            # footprint is not charged to the replay's peak RSS.
            spill_dir = work / "spill"
            for _ in range(SPILL_SAMPLES):
                shutil.rmtree(spill_dir, ignore_errors=True)
                t0 = time.monotonic()
                spill = run_child(["spill", "--seed", seed,
                                   "--spill-dir", spill_dir])
                spill_samples.append(time.monotonic() - t0)
                if spill["_returncode"] != 0 or spill["failures"]:
                    raise BenchError(f"spill set-up failed: {spill['failures']}")
                if spill_hash not in (None, spill["hash"]):
                    raise BenchError(f"spill hashes differ: {spill_hash} "
                                     f"!= {spill['hash']}")
                spill_hash = spill["hash"]
            args += ["--spill-dir", spill_dir]
        if trace:
            spans = BUILD_ROOT / "spans" / f"{workload}.json"
            spans.parent.mkdir(parents=True, exist_ok=True)
            args += ["--spans-out", spans]
        spawn_unix = time.time()
        res = run_child(args, timeout=CHILD_TIMEOUT_S + 2 * seconds)
        if res["_returncode"] != 0:
            raise BenchError(f"labbench run exited {res['_returncode']}")
        setup_samples.append(res["ready_unix"] - spawn_unix)
        setup_samples += [setup_seconds(workload, seed)
                          for _ in range(SETUP_SAMPLES - len(setup_samples))]
        refs, ref_failures = reference_hashes(workload, seed)
        failures += [f"reference: {f}" for f in ref_failures]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Per-operation verdicts: engine checks plus the reference hash.
    hashes = res["op_hashes"]
    attempted = len(hashes)
    failed = 0
    for i, (h, op_failures) in enumerate(zip(hashes, res["op_failures"])):
        reasons = list(op_failures)
        if h != refs[i % len(refs)]:
            reasons.append(f"hash {h} != reference {refs[i % len(refs)]}")
        if spill_hash is not None and h != spill_hash:
            reasons.append(f"hash {h} != spill-time hash {spill_hash}")
        if reasons:
            failed += 1
            failures.append({"op": i, "reasons": reasons})
    if trace:
        attempted += 1
        reasons = list(res["traced_failures"])
        if res["traced_hash"] != refs[0]:
            reasons.append(f"traced hash {res['traced_hash']} != {refs[0]}")
        if reasons:
            failed += 1
            failures.append({"op": "traced", "reasons": reasons})

    walls = res["op_wall_s"]
    spill_s = statistics.median(spill_samples) if spill_samples else 0.0
    process_start_s = res["main_entry_unix"] - spawn_unix
    if res["peak_rss_bytes"] > 0:
        peak_rss = metric(res["peak_rss_bytes"] / 2**20, "MiB", 1)
    else:
        peak_rss = metric("unsupported", "MiB", 0)
    end_to_end = {
        "campaign_s": metric(statistics.median(walls), "s", len(walls)),
        "machine_days_per_s": metric(res["machine_days"] / sum(walls), "1/s",
                                     len(walls)),
        "peak_rss_mib": peak_rss,
        "setup_s": metric(spill_s + statistics.median(setup_samples), "s",
                          len(setup_samples)),
        "failed_ops_ratio": metric(failed / attempted, "ratio", attempted),
    }
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    per_layer = {}
    if trace:
        for name, value in res["layers"].items():
            per_layer[name] = metric(value, units.get(name, "?"), 1)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "process_start_s": process_start_s,
        "setup_s_samples": setup_samples,
        "spill_setup_s_samples": spill_samples,
        "nproc": res["nproc"],
        "hardware_concurrency": res["hardware_concurrency"],
        "threads": res["threads"],
    }


def missing_metrics(spec, record):
    """Names BENCHMARK.json lists that the record lacks or has non-finite."""
    names = [m["name"] for m in spec["end_to_end"]] + ["failed_ops_ratio"]
    table = record["end_to_end"]
    if record["trace"]:
        names = [m["name"] for m in spec["per_layer"]]
        table = record["per_layer"]
    bad = []
    for name in names:
        value = table.get(name, {}).get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            bad.append(name)
    return bad


def contract_line(spec, record):
    kind = "per_layer" if record["trace"] else "end_to_end"
    metrics = {}
    for m in spec[kind]:
        entry = record[kind][m["name"]]
        metrics[m["name"]] = {"value": entry["value"], "unit": m["unit"]}
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def run_all(spec, seed, seconds):
    records = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            records.append(run_workload(spec, w["name"], seed, seconds, trace))
    return records


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()
    if opts.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        spec = load_spec()
        seconds = opts.seconds if opts.seconds else spec["run_seconds"]
        if seconds <= 0:
            parser.error("--seconds must be positive")
        build()
        if opts.all or opts.self_test:
            records = run_all(spec, opts.seed, seconds)
            print(json.dumps(records, indent=1))
            if opts.self_test:
                problems = []
                for r in records:
                    bad = missing_metrics(spec, r)
                    if bad:
                        problems.append(f"{r['workload']} trace={r['trace']}: "
                                        f"missing or non-finite {bad}")
                    if r["failed"]:
                        problems.append(f"{r['workload']} trace={r['trace']}: "
                                        f"{r['failed']} failed ops")
                for p in problems:
                    print("self-test: " + p, file=sys.stderr)
                print("self-test: " + ("FAIL" if problems else "ok"),
                      file=sys.stderr)
                return 1 if problems else 0
            return 0
        names = [w["name"] for w in spec["workloads"]]
        if opts.workload not in names:
            parser.error(f"--workload must be one of {names}")
        record = run_workload(spec, opts.workload, opts.seed, seconds,
                              opts.trace)
        print(json.dumps(record))
        bad = missing_metrics(spec, record)
        if bad:
            raise BenchError(f"missing or non-finite metrics: {bad}")
        print(json.dumps(contract_line(spec, record)))
        return 0
    except BenchError as e:
        print(f"labbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
