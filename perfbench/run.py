#!/usr/bin/env python3
"""The repository benchmark: build the runner, run one workload, print the result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload campaign --seed 7 --seconds 20 --trace 0

The runner (perfbench/runner, a CMake package of its own) is built from the
checkout's sources into $CARGO_TARGET_DIR, or .bench_build when that is unset.
The last line of standard output is one JSON object with exactly the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are every
end_to_end metric of BENCHMARK.json, with --trace 1 every per_layer metric; a
per-layer metric the workload's layers never touch reads 0. Everything the run
writes (spans, the host fingerprint, the campaign's job files) goes under
.bench_out/. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("campaign", "congested", "serving", "pm")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configures and builds the runner; returns its path. Configuring every
    time (under a second once cached) keeps a build tree left by other
    sources usable."""
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail("no repository sources beside perfbench/ (src/CMakeLists.txt)")
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(REPO, ".bench_build"))
    steps = [["cmake", "-S", HERE, "-B", build_dir],
             ["cmake", "--build", build_dir, "--target", "perfbench_runner",
              "-j", str(nproc())]]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step {step[:2]} failed: {err}")
        if done.returncode != 0:
            fail(f"build step {' '.join(step[:2])} exited {done.returncode}")
    return os.path.join(build_dir, "perfbench_runner")


def source_fingerprint():
    """Git commit when the checkout is a repository, and always a digest of
    the sources the runner is built from (the benchmark's checkout is not a
    git repository)."""
    sha = None
    if os.path.isdir(os.path.join(REPO, ".git")):
        try:
            sha = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                                 capture_output=True, text=True,
                                 timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(REPO, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, REPO).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return sha, digest.hexdigest()[:16]


def load_spec():
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def select_metrics(printed, declared, fill_missing):
    """The declared metrics, checked against what the runner printed."""
    out = {}
    for name, metric in printed.items():
        if name not in declared:
            fail(f"runner printed undeclared metric {name}")
        if metric["unit"] != declared[name]:
            fail(f"metric {name} in {metric['unit']}, declared {declared[name]}")
    for name, unit in declared.items():
        if name in printed:
            out[name] = {"value": printed[name]["value"], "unit": unit}
        elif fill_missing:
            out[name] = {"value": 0, "unit": unit}  # layer not exercised
        else:
            fail(f"runner did not print end-to-end metric {name}")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny = the smoke test's sizes")
    parser.add_argument("--pin-override", default="",
                        help="hex value replacing the workload's first pin "
                             "(proves the correctness gate can fail)")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    end_to_end, per_layer = load_spec()
    runner = build()
    out_dir = ".bench_out"
    os.makedirs(out_dir, exist_ok=True)
    command = [runner, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
    if args.pin_override:
        command += ["--pin-override", args.pin_override]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"runner did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail(f"runner exited {done.returncode}")
    for line in lines[:-1]:
        print(line)
    report = json.loads(lines[-1])

    sha, src_digest = source_fingerprint()
    host = dict(report["build"], git_sha=sha, source_sha256=src_digest)
    print("host " + json.dumps(host, sort_keys=True))
    print("info " + json.dumps(report["info"], sort_keys=True))
    metrics = select_metrics(report["metrics"],
                             per_layer if args.trace else end_to_end,
                             fill_missing=bool(args.trace))
    result = {"correct": report["correct"], "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}
    record = dict(report, host=host, result=result)
    path = os.path.join(out_dir, f"result-{args.workload}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
