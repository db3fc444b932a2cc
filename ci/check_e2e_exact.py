#!/usr/bin/env python3
"""Hold traced bench-e2e runs to the committed exact-metric golden.

    check_e2e_exact.py GOLDEN RESULT.json...

GOLDEN (ci/e2e_exact.json) names, per workload, `=` metrics that no host
can move: hashes of the final solver state and engine log, and exact
counts. Each RESULT is a `bench-e2e run <workload> --traced --seed 42
--out RESULT.json` result set. Every golden workload must appear in
some result, run traced at the golden's seed, with every listed metric
equal. Exits 1 and names each difference otherwise.
"""

import json
import sys


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    golden = json.load(open(argv[1]))
    runs = {}
    for path in argv[2:]:
        for run in json.load(open(path))["runs"]:
            if run["traced"] and run["seed"] == golden["seed"]:
                runs[run["workload"]] = run
    problems = []
    for workload, want in golden["workloads"].items():
        run = runs.get(workload)
        if run is None:
            problems.append(f"{workload}: no traced seed-{golden['seed']} run")
            continue
        if not run["correct"]:
            problems.append(f"{workload}: output checks failed: {run['failures']}")
        for name, value in want.items():
            got = run["metrics"][name]["value"]
            if got != value:
                problems.append(f"{workload}: {name} = {got}, golden {value}")
    for line in problems:
        print(line)
    if problems:
        return 1
    print(f"{len(golden['workloads'])} workloads match the golden exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
