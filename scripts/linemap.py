#!/usr/bin/env python3
"""Map the lines of ``src/hardmat`` that no in-process tier-1 test runs.

Runs the tier-1 suite in this process under a ``sys.settrace`` hook that
records each line executed in the package's modules, then counts, per file,
the executable lines (those the compiler maps an instruction to) that never
ran.  Lines run only by tests that start a subprocess count as unreached.
The counts are compared with ``scripts/linemap.json``, and may only shrink:
a line leaves the map through a test that reaches it, or by being deleted.

    python scripts/linemap.py            # check the counts
    python scripts/linemap.py --list     # and print each unreached line
    python scripts/linemap.py --write    # record the counts if none grew

Exits 1 if the suite fails or a file has more unreached lines than recorded.
Standard library only, besides the pytest that runs the suite.  A traced
tier-1 run takes about 2-3 minutes (py3.11, one core).
"""

import argparse
import json
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hardmat"
COUNTS = ROOT / "scripts" / "linemap.json"


def executable_lines(path: Path) -> set:
    """Line numbers of a module's instructions, in every nested code object."""
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines, stack = set(), [code]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced_run(pytest_args: list) -> tuple[int, dict]:
    """Run pytest under the line tracer: (exit code, {path: lines run})."""
    ran = {str(path): set() for path in sorted(PACKAGE.glob("*.py"))}
    by_name = {}  # co_filename -> the set of its path, or None

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        lines = by_name.get(name, False)
        if lines is False:
            lines = by_name[name] = ran.get(os.path.abspath(name))
        if lines is None:
            return None
        lines.add(frame.f_lineno)  # a call or a generator's resumption

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true", help="print each unreached line")
    parser.add_argument(
        "--write", action="store_true", help="record the counts if none grew"
    )
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    # as in tier-1, subprocess tests import the package from this tree
    paths = [src, os.environ.get("PYTHONPATH")]
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    # a fixed hypothesis seed: the same tree gives the same map
    code, ran = traced_run(
        ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
         "--hypothesis-seed=0"]
    )
    if code != 0:
        print(f"linemap: the suite failed (pytest exit {code})", file=sys.stderr)
        return 1
    recorded = json.loads(COUNTS.read_text(encoding="utf-8"))
    counts, grew, total = {}, [], 0
    for name, lines in ran.items():
        path = Path(name)
        executable = executable_lines(path)
        unreached = sorted(executable - lines)
        counts[path.name] = len(unreached)
        total += len(executable)
        if args.list:
            text = path.read_text(encoding="utf-8").splitlines()
            for line in unreached:
                print(f"src/hardmat/{path.name}:{line}: {text[line - 1].strip()}")
        if len(unreached) > recorded.get(path.name, 0):
            grew.append(f"{path.name}: {len(unreached)} > {recorded.get(path.name, 0)}")
    missed = sum(counts.values())
    print(f"linemap: {missed} of {total} executable lines unreached in process")
    for line in grew:
        print(f"linemap: more unreached lines than recorded in {line}", file=sys.stderr)
    if grew:
        return 1
    if args.write:
        text = json.dumps(counts, indent=1, sort_keys=True) + "\n"
        COUNTS.write_text(text, encoding="utf-8")
    elif counts != recorded:
        print("linemap: counts shrank; record them with --write")
    return 0


if __name__ == "__main__":
    sys.exit(main())
