"""Run one ``eda`` command with the edakit layers traced from outside.

Usage: python3 perfbench/traced_eda.py SPANS_JSON RUN_ID EDA_ARG...

The process shape matches the plain ``eda`` entry point: import edakit.cli,
call ``edakit.cli.main(argv)`` and exit with its code. The spans are written
to SPANS_JSON when the command ends.
"""

import sys

import edakit.cli

from tracer import Tracer


def main() -> int:
    spans_path, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer.install(run_id)
    try:
        return edakit.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
