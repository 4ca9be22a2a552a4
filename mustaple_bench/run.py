#!/usr/bin/env python3
"""Builds mustaple_bench from this checkout and runs it.

One workload, as BENCHMARK.json's "command" runs it (the driver's JSON
result is the last line of stdout):

    python3 mustaple_bench/run.py --workload serve_sign --seed 2018 \
        --seconds 12 --trace 0

Every workload, one process each (so peak RSS is per workload):

    python3 mustaple_bench/run.py --all --seed 2018

The smoke check: every workload at toy size, untraced and traced, each
result checked against the metric names in BENCHMARK.json, and the campaign
fingerprints compared at 1 and 2 scan threads:

    python3 mustaple_bench/run.py --smoke [--binary path/to/mustaple_bench]

The build goes to $CARGO_TARGET_DIR when set, else .bench_build/ in the
checkout root, configured as the repository's default (RelWithDebInfo)
build. Build output goes to stderr.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["campaign_paper", "campaign_availability", "serve_cached",
             "serve_sign"]
# Metrics read from obs::Profiler phases; a -DMUSTAPLE_OBS=OFF build omits
# them.
PROFILER_METRICS = {
    "measurement.fanout_wall_s", "measurement.probe_cpu_s",
    "measurement.accumulate_s", "measurement.step_self_s",
    "measurement.parallel_efficiency", "measurement.attributed_share",
}
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no mustaple sources at %s/src; run from a full checkout" % ROOT)
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", "mustaple_bench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr,
                          stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))
    return os.path.join(out, "mustaple_bench")


def run_driver(binary, args, capture=False):
    """Runs the driver; returns (exit code, stdout text or None)."""
    try:
        proc = subprocess.run([binary] + args, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        fail("driver timed out: " + " ".join(args), 3)
    return proc.returncode, proc.stdout


def last_json(stdout):
    lines = [line for line in (stdout or "").splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    out = os.path.dirname(os.path.abspath(binary))
    record = os.path.join(out, "smoke-record.json")
    problems = []

    def run(workload, trace, threads=2):
        args = ["--workload", workload, "--seed", "2018", "--seconds", "0.15",
                "--trace", str(trace), "--toy", "--threads", str(threads),
                "--json", record, "--trace-out",
                os.path.join(out, "smoke-trace.json")]
        code, stdout = run_driver(binary, args, capture=True)
        result = last_json(stdout)
        label = "%s trace=%d threads=%d" % (workload, trace, threads)
        if code != 0 or result is None:
            problems.append("%s: exit %d" % (label, code))
            return None
        with open(record) as f:
            detail = json.load(f)
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append("%s: result keys %s" % (label, sorted(result)))
        if not result["correct"] or result["failed"] != 0:
            problems.append("%s: correct=%s failed=%s" %
                            (label, result["correct"], result["failed"]))
        expected = dict(wanted[trace])
        if not detail["obs"]:
            for name in PROFILER_METRICS:
                expected.pop(name, None)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            problems.append("%s: metrics differ from BENCHMARK.json: "
                            "missing %s, extra %s, units %s" % (
                                label, sorted(set(expected) - set(got)),
                                sorted(set(got) - set(expected)),
                                sorted(n for n in got if n in expected and
                                       got[n] != expected[n])))
        return detail["detail"]

    for workload in WORKLOADS:
        for trace in (0, 1):
            detail = run(workload, trace)
            if detail is not None and trace == 0 and workload.startswith(
                    "campaign"):
                one = run(workload, 0, threads=1)
                if one is not None and one["fingerprint"] != detail[
                        "fingerprint"]:
                    problems.append("%s: fingerprint %s at 1 thread, %s at 2" %
                                    (workload, one["fingerprint"],
                                     detail["fingerprint"]))
    for problem in problems:
        print("SMOKE FAILED: " + problem, file=sys.stderr)
    print("smoke: %s" % ("FAILED" if problems else "ok"), file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", default="2018")
    parser.add_argument("--seconds", default="12")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", help="use this driver instead of building")
    args = parser.parse_args()
    if not (args.workload or args.all or args.smoke):
        parser.error("--workload, --all or --smoke is required")

    binary = args.binary or build()
    if args.smoke:
        return smoke(binary)
    workloads = WORKLOADS if args.all else [args.workload]
    trace_dir = os.path.join(build_dir(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    status = 0
    for workload in workloads:
        code, _ = run_driver(binary, [
            "--workload", workload, "--seed", args.seed, "--seconds",
            args.seconds, "--trace", args.trace, "--trace-out",
            os.path.join(trace_dir, "%s-seed%s.json" % (workload, args.seed))])
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
