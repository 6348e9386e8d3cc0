"""Traced serving subprocess: install the span wrappers, then serve.

The traced ``serve-live`` run starts this instead of ``repro.cli serve``
so the wrappers live inside the server process.  It takes the same
``--scenario``/``--policy`` arguments and prints the same ``serving ...
on host:port`` line.  SIGUSR1 marks the start of the measured window
(after the client's warm-up session; the launcher answers ``marked``),
and SIGINT stops the server and writes the window's spans to
``--trace-out``::

    python3 perfbench/serve_launcher.py --scenario scenario.json \
        --policy mdp --policy lyapunov --trace-out spans.json
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as tracing  # noqa: E402

from repro import ScenarioConfig  # noqa: E402
from repro.serve import run_server  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--policy", action="append", required=True)
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args()
    with open(args.scenario, "r", encoding="utf-8") as handle:
        scenario = ScenarioConfig.from_dict(json.load(handle))
    policies = args.policy[0] if len(args.policy) == 1 else tuple(args.policy)
    tracer = tracing.install()

    def mark(*_) -> None:
        tracer.mark()
        print("marked", flush=True)

    signal.signal(signal.SIGUSR1, mark)

    def ready(host: str, port: int) -> None:
        print(f"serving {args.scenario} on {host}:{port}", flush=True)

    try:
        run_server(scenario, policies, ready_callback=ready)
    finally:
        tracer.uninstall()
        tracer.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
