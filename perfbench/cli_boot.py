"""Start one compoz CLI query with the benchmark's span tracing installed.

    python3 perfbench/cli_boot.py OUT_DIR compose --q 3 ...

Runs compoz.cli.main on the remaining arguments exactly as
`python -m compoz.cli` would, then writes the process's span summary and
spans to OUT_DIR/<pid>.json and exits with the CLI's exit code.
"""

import json
import os
import sys

import compoz.cli

from tracing import Tracer


def main():
    out_dir, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    code = compoz.cli.main(argv)
    sys.stdout.flush()
    with open(os.path.join(out_dir, f"{os.getpid()}.json"), "w", encoding="utf-8") as fh:
        json.dump({"summary": tracer.summary(), "trace": tracer.dump()}, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
