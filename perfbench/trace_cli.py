"""Run one longedge CLI command with every layer traced.

    python3 perfbench/trace_cli.py SUMMARY SPANS -- <longedge arguments>

Times the import of longedge.cli, installs the span wrappers, calls
cli.main with the given arguments, then writes the span summary (JSON) to
SUMMARY and the raw spans to SPANS.  Exits with the command's exit code.
The package is found through PYTHONPATH, as for `python -m longedge.cli`.
"""

import sys
import time

from tracer import Tracer, install, write_outputs


def main() -> int:
    summary_path, spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace_cli.py SUMMARY SPANS -- ARGS...")
    t0 = time.perf_counter()
    import longedge.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    try:
        code = longedge.cli.main(argv)
    finally:
        write_outputs(tracer, summary_path, spans_path, {"cli.import.s": import_s})
    return code


if __name__ == "__main__":
    raise SystemExit(main())
