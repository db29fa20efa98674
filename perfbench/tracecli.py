"""Run one ``nevtrans`` CLI invocation with the span tracer installed.

Usage: python3 perfbench/tracecli.py PREFIX CLI-ARGS...

Writes the span summary to PREFIX.json and the spans to PREFIX.csv.gz, and
exits with the CLI's own exit code.  ``cli.import`` is the time of a bare
``import nevtrans`` in this process.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    prefix, args = sys.argv[1], sys.argv[2:]
    t = time.perf_counter()
    import nevtrans  # noqa: F401
    import_s = time.perf_counter() - t
    import nevtrans.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.op_id = 0
    tracer.install()
    code = 0
    try:
        nevtrans.cli.main.main(args=args, prog_name="nevtrans", standalone_mode=True)
    except SystemExit as exc:
        code = exc.code or 0
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    summary["import_s"] = import_s
    with open(prefix + ".json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    tracer.dump(prefix + ".csv.gz")
    return code


if __name__ == "__main__":
    sys.exit(main())
