"""Self-checks of the benchmark, apart from the repository's own test suite.

    python3 -m pytest -q -p no:cacheprovider benchmark/test_benchmark.py

Runs the cheapest workload for about a second in each mode (~20 s in all).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_declared_metrics_match_the_code():
    assert run.END_TO_END == _declared("end_to_end")
    assert run.PER_LAYER == _declared("per_layer")
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for counts in workloads.GOLDEN["counts"].values():
        assert set(counts) <= set(run.PER_LAYER)


def test_emitted_metric_names_match_benchmark_json():
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _bench("--workload", "surface", "--seed", "7", "--seconds", "1",
                      "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, proc.stderr
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        assert emitted == _declared(section)


def test_same_seed_same_inputs():
    runner = run.Runner(run.ROOT / run.OUT / "tmp")
    psd = {}

    def setup(call):
        if call.key not in psd:
            code, out, err, *_ = runner.hardmat(call.argv)
            assert code == 0 and workloads.check(call, code, out) is None, err
            psd[call.key] = out
        return psd[call.key]

    def inputs(name, seed):
        tmp = run.ROOT / run.OUT / "tmp" / f"seed-{name}-{seed}"
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir(parents=True)
        calls = workloads.CALL_LISTS[name](seed, tmp, setup)
        files = {p.name: p.read_bytes() for p in sorted(tmp.iterdir())}
        return [(c.key, c.argv, c.expect) for c in calls], files

    for name in ("rational", "oracle"):
        assert inputs(name, 5) == inputs(name, 5)
        assert inputs(name, 5)[1] != inputs(name, 6)[1]


def test_fails_without_sources():
    bare = ROOT / run.OUT / "bare"
    if bare.exists():
        shutil.rmtree(bare)
    shutil.copytree(HERE, bare / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _bench("--workload", "surface", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=bare, script=bare / "benchmark" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
