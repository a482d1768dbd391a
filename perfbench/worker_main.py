"""Traced cluster worker: ``python perfbench/worker_main.py <span-dir>``.

The benchmark's launcher for traced runs.  It wraps the worker-side
layers in span recorders (:func:`spans.install_worker_probes`), serves
exactly as ``repro.serve.cluster.worker.main`` does over stdio, and on
exit writes its spans to ``<span-dir>/spans-<pid>.json``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from spans import Recorder, install_worker_probes


def main() -> int:
    out_dir = Path(sys.argv[1])
    recorder = Recorder()
    install_worker_probes(recorder)
    from repro.serve.cluster.worker import main as serve
    try:
        return serve()
    finally:
        recorder.dump(out_dir / f"spans-{os.getpid()}.json")


if __name__ == "__main__":
    sys.exit(main())
