"""The one results root of every CLI output.

CSVs, run logs, manifests, the sweep cache and profile artifacts all sit
under ``$SSTSP_RESULTS_DIR`` (default: ``results`` in the working
directory). The variable is read at call time, so tests and one-off runs
can redirect output without reloading a module.
"""

import os


def results_path(*parts: str) -> str:
    """``parts`` joined under the results root (nothing is created)."""
    return os.path.join(os.environ.get("SSTSP_RESULTS_DIR", "results"), *parts)
