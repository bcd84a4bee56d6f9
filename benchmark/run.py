"""hardmat benchmark: fixed CLI workloads timed end to end, or traced per layer.

Run from the root of a source checkout:

    python3 benchmark/run.py --workload extension --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload's calls as ``python -m hardmat`` subprocesses,
one at a time (a closed loop with one client), pass after pass for
``--seconds``, and reports the median pass.  ``--trace 1`` runs one
subprocess pass for reference and then replays the same calls in-process
through ``hardmat.cli``, alternating passes with spans off and on, and
reports per-layer medians.  Every call's exit code and stdout are checked.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
Run details and spans are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, median_low

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = Path(".bench_out")

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from spans import LAYERS, Tracer, layer_metrics  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.import_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cli.stdout_bytes": "bytes",
    "ssdim.subsets": "count",
    "hitting.kernel_vectors": "count",
    "hitting.kernel_vectors_per_s": "1/s",
    "circuits.search_nodes": "count",
    "circuits.search_nodes_per_s": "1/s",
    "matrices.inverse_s": "s",
    "matrices.matmul_s": "s",
    "matrices.rank_s": "s",
    "fppoly.irreducible_scan_s": "s",
    "fppoly.irreducible_check_s": "s",
    "fppoly.scan_candidates": "count",
    "trace.overhead_frac": "fraction",
    "trace.coverage": "fraction",
}

# No-op calls timed before each pass; their median is setup_s.
SETUP_CALLS = 3

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import hardmat.cli; "
    "print(time.perf_counter() - t)"
)


class Runner:
    """Runs one process at a time and reaps it with its own rusage."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.env = {k: v for k, v in os.environ.items() if k != "HARDMAT_BUDGET"}
        self.env["PYTHONPATH"] = str(SRC)
        self.env["PYTHONHASHSEED"] = "0"

    def spawn(self, cmd: list, stdin: bytes | None = None):
        """Returns (exit code, stdout, stderr, wall s, cpu s, max RSS in MB)."""
        paths = [self.tmp / name for name in ("stdin", "stdout", "stderr")]
        paths[0].write_bytes(stdin or b"")
        with open(paths[0], "rb") as fin, open(paths[1], "w+b") as fout, open(
            paths[2], "w+b"
        ) as ferr:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, stdin=fin, stdout=fout, stderr=ferr, env=self.env, cwd=ROOT
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            fout.seek(0)
            ferr.seek(0)
            out, err = fout.read(), ferr.read()
        cpu = usage.ru_utime + usage.ru_stime
        return proc.returncode, out, err, wall, cpu, usage.ru_maxrss / 1024

    def hardmat(self, argv, stdin=None):
        return self.spawn([sys.executable, "-m", "hardmat", *argv], stdin)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, error: str | None):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            print(f"FAIL {what}: {error}", file=sys.stderr)


def _prepare(call, outputs: dict):
    for path, key, field_name in call.writes:
        Path(path).write_bytes(workloads.derived_bytes(outputs, key, field_name))
    return None if call.stdin is None else outputs[call.stdin]


def subprocess_pass(calls, runner: Runner, tally: Tally):
    """One pass as subprocesses: per-call times, peak RSS and each stdout."""
    outputs, sample = {}, {"wall_s": [], "cpu_s": [], "peak_rss_mb": 0.0}
    for call in calls:
        stdin = _prepare(call, outputs)
        code, out, err, wall, cpu, rss = runner.hardmat(call.argv, stdin)
        error = workloads.check(call, code, out)
        if error and err:
            error += " | stderr: " + err.decode("utf-8", "replace")[-300:]
        tally.record(call.key, error)
        outputs[call.key] = out
        sample["wall_s"].append(wall)
        sample["cpu_s"].append(cpu)
        sample["peak_rss_mb"] = max(sample["peak_rss_mb"], rss)
    return sample, outputs


def setup_call(runner: Runner, tally: Tally) -> float:
    code, out, _, wall, _, _ = runner.hardmat(["--help"])
    ok = code == 0 and out.startswith(b"usage: hardmat")
    tally.record("--help", None if ok else f"exit {code}, stdout {out[:80]!r}")
    return wall


def measure(calls, seconds: float, runner: Runner, tally: Tally) -> dict:
    """Alternate no-op calls and passes until the next pass would overrun.

    Pass times are the sum over calls of each call's median time: on a shared
    host that is steadier than the median of pass totals.
    """
    deadline = time.perf_counter() + seconds
    passes, setups, lengths = [], [], []
    while not passes or time.perf_counter() + median(lengths) <= deadline:
        begin = time.perf_counter()
        setups += [setup_call(runner, tally) for _ in range(SETUP_CALLS)]
        passes.append(subprocess_pass(calls, runner, tally)[0])
        lengths.append(time.perf_counter() - begin)
    metrics = {
        key: sum(median(times) for times in zip(*(p[key] for p in passes)))
        for key in ("wall_s", "cpu_s")
    }
    metrics["setup_s"] = median(setups)
    metrics["peak_rss_mb"] = median(p["peak_rss_mb"] for p in passes)
    return {"metrics": metrics, "passes": passes, "setups": setups}


# ---------------------------------------------------------------------------
# Traced replay.


def replay_pass(calls, cli, tracer: Tracer | None):
    """Replay one pass in-process; returns (seconds, [(exit code, stdout)])."""
    outputs, results = {}, []
    start = time.perf_counter()
    try:
        for step, call in enumerate(calls):
            stdin = _prepare(call, outputs)
            sys.stdin = io.StringIO("" if stdin is None else stdin.decode("utf-8"))
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                try:
                    if tracer is None:
                        code = cli.main(list(call.argv))
                    else:
                        tracer.step = step
                        code = tracer.run("cli", "main", cli.main, list(call.argv))
                except Exception as exc:  # a crash is a failed call, not a stop
                    code = f"raised {exc!r}"
            out = buf.getvalue().encode("utf-8")
            outputs[call.key] = out
            results.append((code, out))
    finally:
        sys.stdin = sys.__stdin__
    return time.perf_counter() - start, results


def traced(calls, seconds: float, runner: Runner, tally: Tally) -> tuple:
    """Import probes, a reference subprocess pass, then replays off and on."""
    deadline = time.perf_counter() + seconds
    imports = []
    for _ in range(5):
        code, out, _, _, _, _ = runner.spawn([sys.executable, "-c", IMPORT_PROBE])
        tally.record("import probe", None if code == 0 else f"exit {code}")
        imports.append(float(out) if code == 0 else float("nan"))
    _, reference = subprocess_pass(calls, runner, tally)

    sys.path.insert(0, str(SRC))
    import hardmat.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "hardmat":
        raise SystemExit(f"imported hardmat from {cli.__file__}, not {SRC}")
    fixed = {i for i, call in enumerate(calls) if not call.seeded}
    off, on, samples, span_log = [], [], [], []

    def compare(results):
        for call, (code, out) in zip(calls, results):
            error = None
            if code != 0:
                error = f"exit {code}"
            elif out != reference[call.key]:
                error = "stdout differs from the subprocess"
            tally.record(f"replay {call.key}", error)

    replay_pass(calls, cli, None)  # warm-up: lazy imports and caches
    while not on or time.perf_counter() + off[-1] + on[-1] <= deadline:
        elapsed, results = replay_pass(calls, cli, None)
        off.append(elapsed)
        compare(results)
        tracer = Tracer()
        tracer.install()
        try:
            elapsed, results = replay_pass(calls, cli, tracer)
        finally:
            tracer.uninstall()
        on.append(elapsed)
        compare(results)
        sample = layer_metrics(tracer.spans, elapsed, fixed)
        sample["cli.stdout_bytes"] = sum(len(out) for _, out in results)
        samples.append(sample)
        span_log.append([
            [s.name, s.layer, s.start, s.end, s.parent, s.step] for s in tracer.spans
        ])
    # The lower median is an observed value, so counts stay exact integers.
    metrics = {k: median_low(s[k] for s in samples) for k in samples[0]}
    metrics["cli.import_s"] = median(imports)
    metrics["trace.overhead_frac"] = median(on) / median(off) - 1
    return {"metrics": metrics, "replay_off_s": off, "replay_on_s": on}, span_log


def check_counts(workload: str, metrics: dict) -> list:
    expected = workloads.GOLDEN["counts"][workload]
    return [
        f"{name} is {metrics[name]}, expected {value}"
        for name, value in expected.items()
        if metrics[name] != value
    ]


# ---------------------------------------------------------------------------


def context() -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                commit = ref_path.read_text().strip()
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "loadavg": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hardmat" / "cli.py").is_file():
        print(f"no hardmat sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.environ.pop("HARDMAT_BUDGET", None)
    tmp = OUT / "tmp" / args.workload
    tmp.mkdir(parents=True, exist_ok=True)
    ctx = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "seconds": args.seconds, "start": context()}

    runner, tally = Runner(tmp), Tally()
    setup_call(runner, tally)  # fills the bytecode cache before timing

    def setup(call):
        code, out, _, _, _, _ = runner.hardmat(call.argv)
        tally.record(f"setup {call.key}", workloads.check(call, code, out))
        return out

    calls = workloads.CALL_LISTS[args.workload](args.seed, tmp, setup)
    ctx["calls"] = [" ".join(c.argv) for c in calls]
    problems = []
    if args.trace:
        detail, span_log = traced(calls, args.seconds, runner, tally)
        problems = check_counts(args.workload, detail["metrics"])
        units = PER_LAYER
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.json"
        spans_path.write_text(json.dumps(span_log), encoding="utf-8")
    else:
        detail = measure(calls, args.seconds, runner, tally)
        units = END_TO_END
    for problem in problems:
        print(f"FAIL count {problem}", file=sys.stderr)
    ctx.update(detail, end=context(), attempted=tally.attempted, failed=tally.failed)
    result_path = OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(ctx, indent=1), encoding="utf-8")

    metrics = {
        name: {"value": detail["metrics"][name], "unit": unit}
        for name, unit in units.items()
    }
    print(json.dumps({
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
