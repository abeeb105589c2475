"""Entry point for ``python -m repro.lint``: the same as ``repro lint``."""

import sys

from repro.experiments.cli import main

if __name__ == "__main__":
    raise SystemExit(main(["lint", *sys.argv[1:]]))
