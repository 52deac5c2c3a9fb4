#!/usr/bin/env python3
"""Self-test of the benchmark harness.

Runs every workload briefly in both modes and checks the result object:
exactly the keys correct/attempted/failed/metrics, a correct run with no
failures, and every metric BENCHMARK.json names for that mode printed with
its unit. Then checks that deliberately corrupted comparisons (one recorded
History entry nudged by one ulp, one reply bit flipped) make the run
incorrect, and that the benchmark refuses to run, without a result, in a
directory holding only itself.

Usage (from the root of a checkout):  python3 perfbench/tests/selftest.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = "1"


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
           "--seconds", SECONDS, "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def result_of(done):
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise AssertionError(f"exit {done.returncode}\n{done.stderr[-3000:]}")
    return json.loads(lines[-1])


def check_result(workload, trace, result):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, f"{workload} trace {trace}: run not correct"
    assert result["attempted"] >= 1 and result["failed"] == 0, result
    table = BENCHMARK["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in table}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{workload} trace {trace}: metric names/units differ: " \
        f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if not trace:
        for name in want:
            assert result["metrics"][name]["value"] > 0, f"{workload}: {name} reads 0"


def main():
    failures = []

    def case(name, fn):
        try:
            fn()
            print(f"ok   {name}", flush=True)
        except AssertionError as e:
            failures.append(name)
            print(f"FAIL {name}: {e}", flush=True)

    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        for trace in (0, 1):
            case(f"{workload} trace {trace}",
                 lambda w=workload, t=trace: check_result(w, t, result_of(run(w, t))))

    def corrupted(workload, trace, what):
        result = result_of(run(workload, trace, "--corrupt", what))
        assert result["correct"] is False, f"--corrupt {what} did not trip the checks"

    case("perturbed history entry trips the replay check",
         lambda: corrupted("trad_paper", 1, "history"))
    case("perturbed DL history entry trips the replay check",
         lambda: corrupted("dlpic_mlp", 1, "history"))

    def flipped_reply():
        result = result_of(run("serve_mlp_mixed", 0, "--corrupt", "reply"))
        assert result["correct"] is False and result["failed"] >= 1, result

    case("flipped reply bit trips the reply check", flipped_reply)

    def refuses_alone():
        alone = ROOT / ".bench_build" / "selftest-alone"
        shutil.rmtree(alone, ignore_errors=True)
        alone.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", alone)
        for path in BENCHMARK["paths"]:
            shutil.copytree(ROOT / path, alone / path)
        done = run("trad_paper", 0, cwd=alone)
        shutil.rmtree(alone, ignore_errors=True)
        assert done.returncode != 0, "ran without the library sources"
        assert '"metrics"' not in done.stdout, "printed a result without the sources"

    case("refuses to run with only BENCHMARK.json and its paths", refuses_alone)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
