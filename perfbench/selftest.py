"""Smoke self-test of the benchmark at R16 only (about 15 s).

    python3 perfbench/selftest.py          # or: python3 -m pytest -q perfbench/selftest.py

Not collected by the package's own test run, so that suite's runtime does
not grow.  Checks that the ladder parameters are the ones the benchmark
claims, that BENCHMARK.json names exactly the metrics run.py reports, that
every end-to-end metric prints by name with its unit, that the stored
R16 output digests match, and that the traced run's call counts repeat
exactly across two runs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402


def smoke(workload: str, trace: int) -> tuple[list[str], dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--smoke",
           "--seed", str(run.DEFAULT_SEED), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_rungs_use_least_licensed_valuation():
    from hopfscaffold import ExtensionParams, LaurentPoly, min_f_valuation_for

    for p, n, r, b, v in run.RUNGS.values():
        ext = ExtensionParams(p, n, b, LaurentPoly.monomial(p, -b))
        assert min_f_valuation_for(2 * p**n - 1, ext, r) == v
        assert run.tolerance(p, n, r, b, v) >= 2 * p**n - 1


def test_benchmark_json_matches_run():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_end_to_end_metrics_print_and_hashes_match():
    refs = json.loads(run.REFERENCE.read_text())
    for workload in run.WORKLOADS:
        stream = "/seed1/stream0" if workload == "act-stream" else ""
        assert f"{workload}/R16{stream}" in refs
        lines, result = smoke(workload, 0)
        assert result["correct"] and result["failed"] == 0, lines
        for name, unit in run.END_TO_END.items():
            assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines), name
            assert result["metrics"][name]["unit"] == unit
        assert any(line.startswith("error_rate 0 ") for line in lines)


def test_traced_call_counts_repeat():
    for workload in run.WORKLOADS:
        counts = []
        for _ in range(2):
            _, result = smoke(workload, 1)
            assert result["correct"], result
            assert set(result["metrics"]) == set(run.PER_LAYER)
            counts.append({k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")})
        assert counts[0] == counts[1], workload
        assert any(counts[0].values()), workload


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
