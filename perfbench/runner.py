"""Child process for one benchmark run of the pressurelab CLI.

    python3 runner.py REPORT {run|trace} CLI_ARG...

Imports the package and runs ``pressurelab.cli.main`` on the arguments.
``setup_s`` is the import time plus the time of the config parse and
resolve that ``cli.main`` itself does, timed by wrapping the one
``parse_args`` it calls, so no work is added to the run.  The ``trace``
phase first wraps the layer boundaries (see ``tracer``).  The report is
one JSON object written to REPORT; the exit code is the CLI's.
"""

import json
import sys
import time


def main():
    report_path, phase, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if phase not in ("run", "trace"):
        raise SystemExit("unknown phase %r" % phase)
    start = time.perf_counter()
    from pressurelab import cli
    import_s = time.perf_counter() - start
    report = {}
    if phase == "trace":
        import tracer
        spans = tracer.Tracer()
        report["rebound"] = tracer.install(spans)
    parse = cli.parse_args

    def timed_parse(args):
        parse_start = time.perf_counter()
        try:
            return parse(args)
        finally:
            report["setup_s"] = import_s + time.perf_counter() - parse_start

    cli.parse_args = timed_parse
    main_start = time.perf_counter()
    code = cli.main(argv)
    main_end = time.perf_counter()
    if phase == "trace":
        report["layers"] = tracer.layer_metrics(spans.totals(), main_start,
                                                main_end)
        report["main_s"] = main_end - main_start
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
