"""Smoke test of the benchmark: tiny runs of every workload.

Run from the root of a checkout::

    python3 perfbench/smoke.py

For each workload in ``BENCHMARK.json`` it runs the benchmark command
for one second at a tiny model size, untraced and traced, and asserts
that the last output line is the result object, that it names exactly
the declared end-to-end (untraced) or per-layer (traced) metrics with
their declared units, and that every check passed.  It then asserts
that the command fails, printing no result, in a directory holding
only ``BENCHMARK.json`` and the benchmark's files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
KEYS = {"correct", "attempted", "failed", "metrics"}


def _command(spec: dict) -> list[str]:
    program, *args = spec["command"]
    return [sys.executable if program == "python3" else program, *args]


def _run(cmd: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def check_workload(spec: dict, name: str, trace: int) -> None:
    args = ["--workload", name, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
    done = _run(_command(spec) + args, ROOT)
    label = f"{name} --trace {trace}"
    if done.returncode != 0:
        raise AssertionError(f"{label}: exit {done.returncode}\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != KEYS:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    declared = spec["per_layer" if trace else "end_to_end"]
    expected = {metric["name"]: metric["unit"] for metric in declared}
    printed = {key: value["unit"] for key, value in result["metrics"].items()}
    if printed != expected:
        raise AssertionError(f"{label}: printed {printed}, declared {expected}")
    for key, value in result["metrics"].items():
        number = value["value"]
        if not isinstance(number, (int, float)) or not math.isfinite(number):
            raise AssertionError(f"{label}: {key} = {number!r} is not a finite number")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        raise AssertionError(f"{label}: checks failed\n{done.stdout[-3000:]}")
    print(f"ok  {label}: {len(printed)} metrics, {result['attempted']} operations")


def check_bare_directory(spec: dict) -> None:
    """Without the repository's sources the command exits non-zero, silently."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out"))
        args = ["--workload", "serve_fresh", "--seed", "1", "--seconds", "1", "--trace", "0"]
        done = _run(_command(spec) + args, bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        raise AssertionError(f"bare directory: exit {done.returncode}, stdout {done.stdout!r}")
    print(f"ok  bare directory: exit {done.returncode}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check_workload(spec, workload["name"], trace)
    check_bare_directory(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
