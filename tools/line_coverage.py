"""Line coverage of the specsing package under the tier-1 suite, with the
standard library only (sys.settrace; no coverage package needed).

    python tools/line_coverage.py            # every module of src/specsing
    python tools/line_coverage.py -k limits  # extra arguments go to pytest

Run it from the root of a source checkout.  For each module it prints the
number of executable lines (those that carry bytecode in the module or in
any function or class body) and the lines that no test ran.  Only frames in
src/specsing are traced, so the suite runs about 1.8 times slower than
without the tracer.  Tests that start their own Python process (the import
test of the sinc matrix, the CLI subprocess tests) are not seen.
"""
import collections
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = str(ROOT / "src" / "specsing")


def executable_lines(path: str) -> set:
    code = compile(Path(path).read_text(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, _, line in co.co_lines() if line is not None)
        stack.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv) -> int:
    hits = collections.defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def enter(frame, event, arg):
        if not frame.f_code.co_filename.startswith(PACKAGE):
            return None
        hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    import pytest  # before the tracer: only specsing's frames are wanted
    threading.settrace(enter)
    sys.settrace(enter)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider"] + argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path in sorted(Path(PACKAGE).glob("*.py")):
        lines = executable_lines(str(path))
        missed = sorted(lines - hits[str(path)])
        total += len(missed)
        print(f"{path.name}: {len(lines)} executable, {len(missed)} not run {missed}")
    print(f"{total} lines not run")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
