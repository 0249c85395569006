#!/usr/bin/env python3
"""Self-test of perfbench.

    python3 perfbench/selftest.py

Runs every workload at toy size (histogram, a campaign budget of 30,
a two-design grid) through the same run.py code and checker as a real run,
untraced and traced, and checks the result line against
BENCHMARK.json. Then it shows that the checker catches a bad op: a
tampered expected manifest section, a tampered exit status, a
tampered arena digest and a killed process must each count as failed
ops. Exits 0 when every case behaves, 1 otherwise.
"""

import copy
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

failures = []


def expect(ok, what):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def smoke(workload, trace, hook=None):
    args = bench.parse_args(["--workload", workload, "--seed", "1",
                             "--seconds", "1", "--smoke",
                             "--trace", str(trace)])
    result, _ = bench.execute(args, runner_hook=hook)
    return result


def metric_names(kind):
    with open(bench.ROOT / "BENCHMARK.json") as f:
        return {m["name"] for m in json.load(f)[kind]}


def tamper(key, field, value):
    def hook(runner):
        entry = copy.deepcopy(runner.checker.configs[key])
        if field == "exit":
            entry["exit"] = value
        elif field == "arena":
            entry["arena"] = value
        else:
            entry["sections"][field] = value
        runner.checker.configs[key] = entry
    return hook


def main():
    e2e_names = metric_names("end_to_end")
    layer_names = metric_names("per_layer")
    for workload in bench.WORKLOADS:
        result = smoke(workload, 0)
        expect(result["correct"] and result["failed"] == 0
               and result["attempted"] >= 1
               and set(result["metrics"]) == e2e_names,
               f"smoke {workload}: correct, every end-to-end metric")
    result = smoke("ace_query", 1)
    expect(result["correct"] and set(result["metrics"]) == layer_names,
           "smoke traced run: correct, every per-layer metric")

    result = smoke("ace_query", 0,
                   tamper("query/histogram1/l1", "avf", "0" * 64))
    expect(not result["correct"] and result["failed"] == result["attempted"],
           "tampered manifest section fails every op")
    result = smoke("attribution", 0,
                   tamper("analyze/histogram", "exit", 2))
    expect(not result["correct"] and result["failed"] == result["attempted"],
           "tampered exit status fails every op")
    result = smoke("design_grid", 0,
                   tamper("arena/histogram1/vgpr", "arena", "0" * 64))
    expect(not result["correct"] and result["failed"] == bench.SETUP_REPEATS,
           "tampered arena digest fails each set-up and nothing else")

    def kill_early(runner):
        runner.kill_after = 0.02
    result = smoke("strat_campaign", 0, kill_early)
    expect(not result["correct"] and result["failed"] == result["attempted"],
           "a killed process fails its op")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
