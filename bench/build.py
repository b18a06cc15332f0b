"""Build `System` once in this fresh process, as `openqa serve` or
`openqa ask` does when it starts, and print the seconds the build took.

    python3 bench/build.py CONFIG [--trace]

The output is one JSON line: {"seconds": ..., "trace": null or the
tracer's record of the set-up calls}.
"""

import json
import sys
import time

from openqa import System, SystemConfig


def main() -> None:
    tracer = None
    if "--trace" in sys.argv[2:]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    System(SystemConfig.load(sys.argv[1]))
    seconds = time.perf_counter() - start
    print(json.dumps({"seconds": seconds, "trace": tracer.dump() if tracer else None}))


if __name__ == "__main__":
    main()
