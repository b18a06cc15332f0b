"""Start `openqa serve` from the checkout, optionally traced.

    python3 bench/serve.py CONFIG HOST:PORT [TRACE_DUMP]

With TRACE_DUMP, SIGUSR1 switches tracing on and off, and on SIGINT the
trace is written to TRACE_DUMP as JSON before the process exits.
"""

import json
import signal
import sys

import openqa.service
from openqa import cli


def main() -> None:
    config, addr = sys.argv[1], sys.argv[2]
    dump = sys.argv[3] if len(sys.argv) > 3 else None
    tracer = None
    if dump:
        from tracing import Tracer

        tracer = Tracer()
        on = [False]

        def toggle(signum, frame):
            if on[0]:
                tracer.uninstall()
            else:
                tracer.install(openqa.service)
            on[0] = not on[0]

        signal.signal(signal.SIGUSR1, toggle)
    try:
        cli.main(["--config", config, "serve", "--addr", addr])
    except KeyboardInterrupt:
        pass
    finally:
        if tracer is not None:
            tracer.uninstall()
            with open(dump, "w", encoding="utf-8") as fh:
                json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    main()
