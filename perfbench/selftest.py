#!/usr/bin/env python3
"""Smoke-scale self-test of the campaign benchmark.

    python3 perfbench/selftest.py

Run from the repository root. For every workload in BENCHMARK.json it
runs perfbench/run.py briefly (--smoke) untraced and traced, and
asserts that

  * the run exits 0, reports "outputs_ok true" and "correct": true;
  * the JSON result carries every end_to_end metric (untraced) or every
    per_layer metric (traced) with the unit BENCHMARK.json declares,
    and the report prints all of them by name and unit;
  * the traced run writes Chrome trace-event JSON whose spans cover
    the layer calls the benchmark times.

It then shows the output check is not vacuous: with --tamper (one
record's cycles field altered before the check) every workload must
report "outputs_ok false", "correct": false and a non-zero exit.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACES = os.path.join(ROOT, ".bench_build", "traces")

# Span names the traced run must record, per workload.
COMMON_SPANS = {"campaign", "golden", "injected_run", "setup", "pioneer",
                "layer_micro_timers", "state_hash", "snapshot_capture",
                "snapshot_digest", "merge", "format", "parse",
                "reference_check"}
SPANS = {
    "va-rf-paper": COMMON_SPANS | {"run", "journal_micro", "journal_append"},
    "km-l1d-stuck": COMMON_SPANS | {"run", "journal_micro", "journal_append"},
    "srad1-durable": COMMON_SPANS | {"shard"},
}


def run(workload, trace, tamper=False):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    if tamper:
        cmd.append("--tamper")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


def check(cond, what, failures):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []
    for wl in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc, res = run(wl, trace)
            tag = f"{wl} trace={trace}"
            check(proc.returncode == 0, f"{tag}: exit 0", failures)
            check("outputs_ok true" in proc.stdout,
                  f"{tag}: outputs_ok true", failures)
            check(res is not None and res["correct"] is True,
                  f"{tag}: correct", failures)
            metrics = res["metrics"] if res else {}
            for m in bench[key]:
                got = metrics.get(m["name"], {})
                check(got.get("unit") == m["unit"] and
                      isinstance(got.get("value"), (int, float)),
                      f"{tag}: metric {m['name']} [{m['unit']}]", failures)
            for m in bench[key]:
                printed = any(
                    line.split()[1:2] == [m["name"]] and
                    line.split()[-1] == m["unit"]
                    for line in proc.stdout.splitlines()
                    if line.startswith(("end_to_end ", "per_layer ")))
                check(printed, f"{tag}: report prints {m['name']}",
                      failures)
            if trace:
                path = os.path.join(TRACES, f"{wl}-seed1.json")
                with open(path) as f:
                    events = json.load(f)["traceEvents"]
                names = {e["name"] for e in events}
                missing = sorted(SPANS[wl] - names)
                check(not missing, f"{tag}: trace covers the layer calls"
                      + (f" (missing {missing})" if missing else ""),
                      failures)
                check("tracing overhead" in proc.stdout,
                      f"{tag}: tracing overhead reported", failures)
        proc, res = run(wl, 0, tamper=True)
        check(proc.returncode != 0 and "outputs_ok false" in proc.stdout and
              res is not None and res["correct"] is False,
              f"{wl}: tampered record rejected", failures)
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
