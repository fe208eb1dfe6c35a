"""One flagspec CLI call under the tracer, for the traced cli-calls run.

    python perfbench/cli_child.py SPANS_OUT ARG...

Behaves like `python -m flagspec.cli ARG...` (same stdout and exit code)
and also writes {"imported": <clock after importing flagspec.cli>,
"spans": [...]} to SPANS_OUT.  Span times use time.perf_counter, which on
Linux is the system-wide monotonic clock, so the parent can nest them
inside its own span for the whole process.
"""

import json
import sys
import time
from pathlib import Path

import flagspec.cli

imported = time.perf_counter()

from tracer import Tracer  # noqa: E402 - after the timed import on purpose

tracer = Tracer()
tracer.install()
try:
    code = flagspec.cli.main(sys.argv[2:])
finally:
    tracer.uninstall()
sys.stdout.flush()
Path(sys.argv[1]).write_text(
    json.dumps({"imported": imported, "spans": tracer.take()}), encoding="ascii")
sys.exit(code)
