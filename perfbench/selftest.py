#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs ``run.py`` for one second
with ``--trace 0`` and ``--trace 1`` and checks that the result line
carries exactly the metrics BENCHMARK.json names, with their units, that
every op passed its checks and that traced layer self times cover the
traced op time within 5%. It runs one workload twice with the same seed
to check that the output digests match, and runs ``run.py`` in a
directory holding only BENCHMARK.json and the benchmark's files to check
that it refuses with a non-zero exit code and no result. Exits 1 on the
first failed check.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 180


def run(*args, cwd=ROOT):
    return subprocess.run(
        [*SPEC["command"], *args], cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S
    )


def result_lines(workload, seed, trace):
    proc = run("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace))
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    *_, record, result = proc.stdout.strip().splitlines()
    return json.loads(record)["record"], json.loads(result)


def check_result(workload, trace, result):
    where = f"{workload} trace={trace}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        raise SystemExit(f"{where}: not correct: {result}")
    section = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise SystemExit(f"{where}: metrics {got} != BENCHMARK.json {want}")
    for name, m in result["metrics"].items():
        v = m["value"]
        if not (isinstance(v, (int, float)) and math.isfinite(v)):
            raise SystemExit(f"{where}: {name} = {v!r}")
        if not trace and v <= 0:
            raise SystemExit(f"{where}: end-to-end metric {name} = {v!r} is not positive")
    if trace:
        share = result["metrics"]["trace.layer_share"]["value"]
        if not 0.95 <= share <= 1.0:
            raise SystemExit(f"{where}: layer self times cover {share:.3f} of the op time")


def main() -> int:
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            record, result = result_lines(w["name"], 7, trace)
            check_result(w["name"], trace, result)
            print(f"ok {w['name']} trace={trace} samples={record['op_samples']}")

    first = SPEC["workloads"][0]["name"]
    digests = {result_lines(first, 7, 0)[0]["digest"] for _ in range(2)}
    if len(digests) != 1:
        raise SystemExit(f"{first}: digests differ across runs of one seed: {digests}")
    print(f"ok {first} digest repeats")

    with tempfile.TemporaryDirectory(prefix=".perfbench-bare-", dir=ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for rel in SPEC["paths"]:
            shutil.copytree(ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("--workload", first, "--seed", "7", "--seconds", "1", "--trace", "0", cwd=bare)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            raise SystemExit(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("ok refuses to run without the sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
