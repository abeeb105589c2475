"""argparse ``type=`` checks shared by the command tree.

A bad value becomes a one-line usage error (exit 2) from the subcommand
that declared the flag, not a traceback from inside the run.
"""

from __future__ import annotations

import argparse
import os
from typing import Callable, Optional, TypeVar

T = TypeVar("T", int, float)


def _checked(
    raw: str, convert: Callable[[str], T], ok: Callable[[T], bool], expected: str
) -> T:
    value: Optional[T]
    try:
        value = convert(raw)
    except ValueError:
        value = None
    if value is None or not ok(value):  # NaN fails every comparison
        raise argparse.ArgumentTypeError(f"expected {expected}, got {raw!r}")
    return value


def positive_int(raw: str) -> int:
    """An integer >= 1."""
    return _checked(raw, int, lambda v: v >= 1, "an integer >= 1")


def non_negative_int(raw: str) -> int:
    """An integer >= 0."""
    return _checked(raw, int, lambda v: v >= 0, "an integer >= 0")


def positive_float(raw: str) -> float:
    """A number > 0."""
    return _checked(raw, float, lambda v: v > 0, "a number > 0")


def existing_file(path: str) -> str:
    """``path`` must name an existing file (or pipe)."""
    if not os.path.exists(path) or os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"no such file: {path}")
    return path
