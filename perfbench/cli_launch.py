"""Run one curlmat CLI command with the benchmark's tracer installed.

    python3 perfbench/cli_launch.py SPAWNED OUT.json <curlmat arguments...>

SPAWNED is the monotonic clock stamp the caller took before starting this
process.  Writes {"process_s": ..., "spans": [...]} to OUT.json, where
process_s is process start plus import, and exits with the command's code.
"""

from __future__ import annotations

import json
import sys

from tracing import Tracer, now


def main() -> int:
    spawned, out, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
    import curlmat.cli
    process_s = now() - spawned
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span(f"cli.{argv[0]}"):
            code = curlmat.cli.main(argv)
    finally:
        tracer.uninstall()
    with open(out, "w") as fh:
        json.dump({"process_s": process_s, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
