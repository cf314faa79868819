#!/usr/bin/env python3
"""Allocation gate: fails a perfbench run that allocates more per request
than its workload's committed ceiling.

    python3 perfbench/run.py --workload W --seed 1 --seconds 1 --trace 0 \\
        | python3 tools/check_alloc_ceilings.py --workload W

Copies the run's output through, reads its last line (the JSON result)
and compares metrics.allocs_per_req with the workload's ceiling in
tools/alloc_ceilings.json. allocs_per_req is the first pass's exact count
(perfbench checks that every pass repeats it), so it does not depend on
--seconds or on the host; a ceiling is the count measured at seed 1 plus
2%. A change that lowers a count should lower its ceiling with it.

Exit status: 0 within the ceiling, 1 above it or not a correct run,
2 when the result line or the ceilings file cannot be read.
"""

import argparse
import json
import os
import sys

CEILINGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "alloc_ceilings.json")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--ceilings", default=CEILINGS)
    args = parser.parse_args()

    lines = sys.stdin.read().splitlines()
    for line in lines:
        print(line)
    try:
        with open(args.ceilings) as f:
            ceiling = json.load(f)["allocs_per_req"][args.workload]
        result = json.loads(lines[-1])
        allocs = result["metrics"]["allocs_per_req"]["value"]
    except (OSError, IndexError, KeyError, TypeError, ValueError) as e:
        print("check_alloc_ceilings: cannot read %s: %r" % (args.workload, e),
              file=sys.stderr)
        return 2
    if not result.get("correct"):
        print("check_alloc_ceilings: %s run is not correct" % args.workload,
              file=sys.stderr)
        return 1
    verdict = "ok" if allocs <= ceiling else "ABOVE CEILING"
    print("check_alloc_ceilings: %s allocs_per_req %.3f, ceiling %.3f: %s"
          % (args.workload, allocs, ceiling, verdict), file=sys.stderr)
    return 0 if allocs <= ceiling else 1


if __name__ == "__main__":
    sys.exit(main())
