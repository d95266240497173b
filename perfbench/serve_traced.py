"""``repro serve`` with the benchmark's layer tracer installed.

Same arguments and behaviour as ``python -m repro.cli serve``.  Each
SIGUSR1, and the exit after a SIGTERM drain, prints one JSON line with
the cumulative span totals, so the caller can take the difference over a
measured phase.  ``Session.solve_many`` is the root span: its inclusive
time is the server's busy time.
"""

from __future__ import annotations

import json
import signal
import sys

from tracer import ROOT, Tracer


def main() -> int:
    tracer = Tracer().install()
    from repro.api.session import Session
    from repro.cli import main as cli_main

    tracer.patch(Session, "solve_many", ROOT)
    signal.signal(signal.SIGUSR1, lambda *_: print(json.dumps(tracer.totals()), flush=True))
    try:
        code = cli_main(["serve", *sys.argv[1:]])
    finally:
        tracer.restore()
    print(json.dumps(tracer.totals()), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
