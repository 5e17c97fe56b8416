"""Traced launcher for one `holim-engine` command.

Usage: python3 bench/cli_child.py DUMP.json FILE --cmd ... [flags]

Installs the tracer of `spans.py` in this process, runs `cli.main` on
the remaining arguments as one root span, writes the tracer's
aggregates and spans to DUMP.json and exits with the command's exit
code.  Standard output is the command's own.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer  # noqa: E402


def main() -> int:
    dump_path, argv = sys.argv[1], sys.argv[2:]
    from holim_engine import cli
    tracer = Tracer()
    tracer.install()
    code, _ = tracer.run_op("cli", lambda: cli.main(argv))
    sys.stdout.flush()
    with open(dump_path, "w", encoding="utf-8") as fh:
        json.dump({"agg": tracer.dump(), "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
