"""Which lines of ``src/twoseq`` no test runs: a standard-library line tracer.

Run from the repository root, with any pytest arguments after the script::

    python tests/line_coverage.py -q -p no:cacheprovider

It installs ``sys.settrace`` (and ``threading.settrace``, for the threads
the tests start) before pytest is imported, traces only frames whose code
lives under ``src/twoseq``, runs pytest in-process, then prints, per
module, the executable lines that no frame ran.  A line is executable
when its module's compiled code, or a code object nested in it, maps an
instruction to it.  Code that runs only in a child process (the CLI tests
that start ``python -m twoseq``) is not seen.  The file name keeps it out
of pytest's collection.
"""

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "twoseq"
PREFIX = str(SRC) + "/"

ran: dict[str, set[int]] = {}


def _local(frame, event, arg):
    if event == "line":
        ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if not name.startswith(PREFIX):
        return None
    ran.setdefault(name, set()).add(frame.f_lineno)
    return _local


def executable(path: Path) -> set[int]:
    """Every line some instruction of the module's code maps to."""
    out, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        out |= {line for _, _, line in code.co_lines() if line}
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return out


def spans(lines: list[int]) -> str:
    """``[1, 2, 3, 7]`` as ``1-3, 7``."""
    out: list[list[int]] = []
    for n in lines:
        if out and n == out[-1][1] + 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "tests"))
    threading.settrace(_global)
    sys.settrace(_global)
    try:
        import pytest
        code = pytest.main(argv or [str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = missed = 0
    for path in sorted(SRC.glob("*.py")):
        want = executable(path)
        left = sorted(want - ran.get(str(path), set()))
        total, missed = total + len(want), missed + len(left)
        print(f"{path.name}: {len(left)} of {len(want)} lines not run"
              + (f": {spans(left)}" if left else ""))
    print(f"total: {missed} of {total} executable lines not run")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
