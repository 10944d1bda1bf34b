"""Run rechip's CLI in a fresh interpreter, timing its import and tracing its layers.

    python cli_child.py STATS_JSON --import-only
    python cli_child.py STATS_JSON CLI_ARGS...

``import rechip.cli`` is timed before anything else is imported, so the
benchmark's own imports do not hide its cost.  With CLI arguments the
layers are traced during ``rechip.cli.main(argv)`` and the aggregated span
statistics are written to STATS_JSON; the exit code is the CLI's.
"""

import json
import sys
import time

t0 = time.perf_counter()
import rechip.cli  # noqa: E402

IMPORT_S = time.perf_counter() - t0


def main():
    stats_path, argv = sys.argv[1], sys.argv[2:]
    doc = {"import_s": IMPORT_S}
    if argv == ["--import-only"]:
        code = 0
    else:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            code = rechip.cli.main(argv)
        except SystemExit as exc:  # argparse's --version and usage errors
            code = exc.code
        finally:
            tracer.uninstall()
        doc["stats"] = tracer.aggregate()
        doc["missing"] = tracer.missing
    with open(stats_path, "w") as fh:
        json.dump(doc, fh)
    return code or 0


if __name__ == "__main__":
    sys.exit(main())
