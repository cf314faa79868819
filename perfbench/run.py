#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
library layers and the perfbench binary (Release) into the directory named
by CARGO_TARGET_DIR, default .bench_build; later runs only rebuild what
changed. The binary's standard output is passed through; its last line is
the JSON result. That line is checked against BENCHMARK.json: every metric
of the requested kind, no other, each with its declared unit.

Exits non-zero without a result line when the build fails (for example in
a directory holding only the benchmark and no repository sources).
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    kind = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv):
    trace = "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "perfbench")
    if "--self-test" in argv:
        return subprocess.run([binary, "--self-test"]).returncode
    proc = subprocess.run([binary] + argv, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        if lines:
            print(lines[-1])
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
        got = {k: v["unit"] for k, v in result["metrics"].items()}
    except (ValueError, KeyError, TypeError) as e:
        print("perfbench: unreadable result line: %s" % e, file=sys.stderr)
        return 1
    want = expected_metrics(trace)
    if got != want:
        print("perfbench: metrics differ from BENCHMARK.json: missing %s, extra or "
              "mis-united %s" % (sorted(set(want.items()) - set(got.items())),
                                 sorted(set(got.items()) - set(want.items()))),
              file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
