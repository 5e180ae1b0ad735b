"""Launch the shipped server: ``python3 perfbench/serve.py REPORT CPU [SPANS] -- serve ...``.

Everything after ``--`` goes to ``repro.cli.main`` unchanged, so the
process runs exactly what ``python -m repro serve ...`` runs.  ``CPU``
is the one CPU the server is pinned to (``-``: not pinned), so that the
wire client can run on the others and time the host-speed kernel on the
server's CPU while the server is idle.  With a
``SPANS`` path the timing wrappers and the garbage-collector recorder
are installed first (the traced run); either way, when the server has
drained after SIGTERM, the launcher writes ``REPORT`` with its exit code
and, in the traced run, the wrappers' counters.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import SpanRecorder, install_wrappers  # noqa: E402


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, program = argv[:split], argv[split + 1:]
    report_path, cpu = own[0], own[1]
    spans_path = own[2] if len(own) > 2 else None
    if cpu != "-":
        os.sched_setaffinity(0, {int(cpu)})
    recorder = None
    if spans_path:
        recorder = SpanRecorder()
        install_wrappers(recorder, role="server")
    from repro.cli import main as cli_main

    code = cli_main(program)
    report = {"exit": code}
    if recorder is not None:
        recorder.dump(spans_path)
        report["counters"] = dict(recorder.counters)
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
