#!/usr/bin/env python3
"""Sizes the drift between two output trees written by scripts/shipped-outputs.sh.

    scripts/output-drift.py BASE NEW

Prints one line per relative file path found in either tree:

    identical  PATH
    numbers    PATH  changed=N  max_abs=X   (only numeric tokens differ)
    text       PATH                         (anything other than numbers differs)
    missing    PATH  only in BASE|NEW

Exits 0 when every file is identical or differs only in numbers, 1 otherwise,
and 2 on a usage error; a reader that closes stdout early (``| head``) does not
change the exit code. Standard library only.
"""

from __future__ import annotations

import os
import re
import sys
from pathlib import Path

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def compare(base: bytes, new: bytes) -> tuple[str, int, float]:
    """The verdict for one file pair, with the changed-number count and largest change."""
    if base == new:
        return "identical", 0, 0.0
    old_text, new_text = base.decode("latin-1"), new.decode("latin-1")
    old_nums, new_nums = _NUMBER.findall(old_text), _NUMBER.findall(new_text)
    if _NUMBER.split(old_text) != _NUMBER.split(new_text) or len(old_nums) != len(new_nums):
        return "text", 0, 0.0
    changed = [(a, b) for a, b in zip(old_nums, new_nums) if a != b]
    return "numbers", len(changed), max(abs(float(a) - float(b)) for a, b in changed)


def _say(line: str) -> None:
    """Prints one line; once the reader has gone, later lines go to devnull."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(a).is_dir() for a in argv):
        print("usage: output-drift.py BASE NEW  (two directories)", file=sys.stderr)
        return 2
    base, new = Path(argv[0]), Path(argv[1])
    in_base, in_new = _files(base), _files(new)
    ok = True
    for rel in sorted(in_base | in_new):
        if rel not in in_base or rel not in in_new:
            _say(f"missing    {rel}  only in {'BASE' if rel in in_base else 'NEW'}")
            ok = False
            continue
        verdict, changed, worst = compare((base / rel).read_bytes(), (new / rel).read_bytes())
        if verdict == "numbers":
            _say(f"numbers    {rel}  changed={changed}  max_abs={worst:.3g}")
        else:
            _say(f"{verdict:<10} {rel}")
        ok = ok and verdict != "text"
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
