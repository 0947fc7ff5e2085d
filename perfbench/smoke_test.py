#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes of every workload.

Run from the repository root (builds the runner like run.py does):

    python3 perfbench/smoke_test.py

It checks that
  - every run ends with the result line (exactly correct/attempted/failed/
    metrics), correct, with nothing failed;
  - each metric BENCHMARK.json names is printed with its unit: end-to-end
    ones (never 0) untraced, per-layer ones traced, and every per-layer
    metric but the failure counters is non-zero on at least one workload;
  - every correctness gate of every workload runs and passes, pinned
    values at the canonical seed, repeat checks at any seed;
  - a wrong pin makes the run incorrect, with every operation failed;
  - the traced run writes its spans with valid parent links and reports
    the host fingerprint;
  - without the repository's sources the benchmark exits non-zero and
    prints no result.
Exits 0 when all hold, 1 otherwise.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

CANONICAL_SEED = {"campaign": 7, "congested": 7, "serving": 42, "pm": 42}
GATES = {
    "campaign": ["deployment_shape", "digest_pinned", "digest_repeat",
                 "no_failed_calls"],
    "congested": ["deployment_shape", "digest_pinned", "digest_repeat",
                  "no_failed_calls"],
    "serving": ["fabric_shape", "digest_pinned", "digest_repeat",
                "state_hash_pinned", "state_hash_repeat", "latency_repeat",
                "arrivals_match_plan", "no_failed_calls"],
    "pm": ["ic_particles", "snapshot_hash_pinned", "halo_count_pinned",
           "snapshot_hash_repeat", "halo_count_repeat"],
}
TRACED_GATES = {"pm": ["one_thread_identical"]}
HOST_KEYS = {"nproc", "build_type", "compiler", "gc_check", "git_sha",
             "source_sha256"}
# Failure and waste counters: no workload injects faults or overfills a
# data store, so these read 0 on every healthy run.
ZERO_WHEN_HEALTHY = {"diet.client_retries", "diet.resubmissions",
                     "dtm.evictions"}

failures = []


def check(ok, message):
    if not ok:
        failures.append(message)
        print(f"FAIL {message}")
    return ok


def run(workload, seed, trace, extra=(), cwd=REPO):
    command = [sys.executable, RUN, "--workload", workload, "--seed",
               str(seed), "--seconds", "1", "--trace", str(trace),
               "--size", "tiny", *extra]
    if cwd != REPO:
        command[1] = os.path.join(cwd, "perfbench", "run.py")
    return subprocess.run(command, capture_output=True, text=True, cwd=cwd,
                          timeout=900)


def parse(done, label):
    lines = done.stdout.strip().splitlines()
    if not check(done.returncode == 0 and lines,
                 f"{label}: exit {done.returncode}: {done.stderr[-400:]}"):
        return None, {}, {}
    result = json.loads(lines[-1])
    gates = {}
    host = {}
    for line in lines[:-1]:
        if line.startswith("gate "):
            name, checks, fails = line.split()[1:4]
            gates[name] = (int(checks.split("=")[1]), int(fails.split("=")[1]))
        elif line.startswith("host "):
            host = json.loads(line[5:])
    return result, gates, host


def main():
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    declared = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if not check([w["name"] for w in spec["workloads"]] == list(GATES),
                 "BENCHMARK.json workloads differ from the smoke test's"):
        return 1
    nonzero_layers = set()

    for workload, seed in CANONICAL_SEED.items():
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            result, gates, host = parse(run(workload, seed, trace), label)
            if result is None:
                continue
            print(f"ok   {label}: attempted {result['attempted']}")
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result keys {sorted(result)}")
            check(result["correct"] is True and result["failed"] == 0 and
                  result["attempted"] >= 1, f"{label}: not correct: {result}")
            metrics = result["metrics"]
            want = declared[bool(trace)]
            check(set(metrics) == set(want),
                  f"{label}: metrics {sorted(set(metrics) ^ set(want))}")
            for name, unit in want.items():
                got = metrics.get(name, {})
                check(got.get("unit") == unit and
                      isinstance(got.get("value"), (int, float)),
                      f"{label}: {name} printed as {got}")
                if not trace:
                    check(got.get("value", 0) > 0, f"{label}: {name} is 0")
                elif got.get("value", 0) > 0:
                    nonzero_layers.add(name)
            expected = GATES[workload] + (TRACED_GATES.get(workload, [])
                                          if trace else [])
            for gate in expected:
                name = f"{workload}.{gate}"
                checks, fails = gates.get(name, (0, 0))
                check(checks >= 1 and fails == 0,
                      f"{label}: gate {name} checks={checks} fails={fails}")
            check(set(host) == HOST_KEYS, f"{label}: host {sorted(host)}")
            if trace:
                path = os.path.join(REPO, ".bench_out",
                                    f"spans-{workload}.json")
                with open(path) as handle:
                    spans = json.load(handle)["spans"]
                check(len(spans) == metrics["obs.spans"]["value"] and spans,
                      f"{label}: {len(spans)} spans in {path}")
                check(all(-1 <= s["parent"] < s["id"] and
                          s["start_us"] <= s["end_us"] for s in spans),
                      f"{label}: malformed span parent links or times")

        # A wrong pin must fail every operation of the run.
        result, _, _ = parse(run(workload, seed, 0, ["--pin-override", "1"]),
                             f"{workload} wrong pin")
        if result is not None:
            check(result["correct"] is False and
                  result["failed"] == result["attempted"],
                  f"{workload}: a wrong pin left the run correct: {result}")

        # Another seed: no pins apply, every repeat gate still runs.
        other = seed + 1
        result, gates, _ = parse(run(workload, other, 0),
                                 f"{workload} seed={other}")
        if result is not None:
            check(result["correct"] is True, f"{workload} seed={other}: "
                  f"not correct: {result}")
            check(not any(g.endswith("_pinned") for g in gates),
                  f"{workload} seed={other}: a pin applied off its seed")
            check(all(gates.get(f"{workload}.{g}", (0, 0))[0] >= 1
                      for g in GATES[workload] if not g.endswith("_pinned")),
                  f"{workload} seed={other}: a repeat gate did not run")

    missing = set(declared[True]) - nonzero_layers - ZERO_WHEN_HEALTHY
    check(not missing, f"per-layer metrics 0 on every workload: {missing}")

    # Only BENCHMARK.json and perfbench/: no sources, so no result.
    bare = os.path.join(REPO, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run("campaign", 7, 0, cwd=bare)
    last = done.stdout.strip().splitlines()[-1:] or [""]
    check(done.returncode != 0 and not last[0].startswith("{"),
          f"bare directory: exit {done.returncode}, last line {last[0][:80]}")
    shutil.rmtree(bare, ignore_errors=True)

    print("smoke test:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
