"""Run one gsesim CLI command with every probe installed.

    python3 perfbench/traced_cli.py SPANS_JSON LABEL -- ARGV...

Installs the same wrappers as the in-process workloads, then calls
`gsesim.cli.main(ARGV)` inside a `cli.LABEL` span, writes the spans to
SPANS_JSON and exits with the command's exit code.
"""

from __future__ import annotations

import sys
from pathlib import Path

import tracer


def main(argv):
    spans_path, label, separator, *command = argv
    if separator != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON LABEL -- ARGV...")
    tracer.import_gsesim(Path(__file__).resolve().parent.parent / "src")
    import gsesim.cli

    tr = tracer.Tracer()
    tr.install()
    with tr.span("cli." + label):
        code = gsesim.cli.main(command)
    tr.uninstall()
    tracer.dump([tr.export()], spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
