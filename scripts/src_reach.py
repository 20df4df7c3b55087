#!/usr/bin/env python3
"""Report how much of src/ the programs reach through their includes.

Walks `#include "..."` from every file under bench/, examples/ and
perfbench/ into src/. Reaching a header also reaches the .cc file of
the same name, whose includes are walked in turn. Prints the src/
.h + .cc line count, the header count, and every src/ header that no
program reaches: code that only tests, or nothing, include.

It reports and never fails. Usage:
  src_reach.py
"""

import re
import sys
from pathlib import Path

ROOTS = ("bench", "examples", "perfbench")
SOURCE_SUFFIXES = (".h", ".cc", ".cpp")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.M)


def resolve(name, including, src):
    """Path an include names: the including file's directory first, then
    src/ (the library's include root). None for anything else."""
    for base in (including.parent, src):
        path = (base / name).resolve()
        if path.is_file():
            return path
    return None


def reached_files(root):
    src = (root / "src").resolve()
    todo = [p.resolve() for r in ROOTS for p in sorted((root / r).rglob("*"))
            if p.suffix in SOURCE_SUFFIXES and p.is_file()]
    seen = set(todo)
    while todo:
        path = todo.pop()
        text = path.read_text(errors="replace")
        for name in INCLUDE_RE.findall(text):
            target = resolve(name, path, src)
            if target is None:
                continue
            found = [target]
            if target.suffix == ".h" and src in target.parents:
                found.append(target.with_suffix(".cc"))
            for f in found:
                if f.is_file() and f not in seen:
                    seen.add(f)
                    todo.append(f)
    return {p for p in seen if src in p.parents}


def main():
    root = Path(__file__).resolve().parent.parent
    src = root / "src"

    files = sorted(p for p in src.rglob("*") if p.suffix in (".h", ".cc"))
    lines = sum(len(p.read_text(errors="replace").splitlines())
                for p in files)
    headers = [p for p in files if p.suffix == ".h"]
    reached = reached_files(root)
    unreached = [p.relative_to(src).as_posix() for p in headers
                 if p.resolve() not in reached]

    print(f"src_reach: src/ .h + .cc lines: {lines}")
    print(f"src_reach: src/ headers: {len(headers)}, reached from "
          f"{', '.join(r + '/' for r in ROOTS)}: "
          f"{len(headers) - len(unreached)}")
    print(f"src_reach: unreached headers: {len(unreached)}")
    for name in unreached:
        print(f"  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
