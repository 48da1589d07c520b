"""One glfq request in its own process: `child.py plain|trace ARGV...`.

Runs glfq.cli.main(ARGV) from the checkout's src/ directory, as the glfq
entry point would, and appends one marker line to stderr with a JSON report:
the CLOCK_MONOTONIC time at which the request's field context was ready
(the first top-level make_field returned), and in trace mode the per-function
span summary and counters.
"""

import json
import os
import sys
import time

MARKER = "\x1eperfbench "
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _glfq_modules():
    return {name[len("glfq."):]: mod for name, mod in list(sys.modules.items())
            if name.startswith("glfq.")}


def _mark_ready(report, modules):
    """Record when the outermost make_field call first returns."""
    fields = modules.get("fields")
    original = getattr(fields, "make_field", None)
    if original is None:
        return
    depth = [0]

    def make_field(*args, **kwargs):
        depth[0] += 1
        try:
            return original(*args, **kwargs)
        finally:
            depth[0] -= 1
            if depth[0] == 0 and "ready" not in report:
                report["ready"] = time.monotonic()

    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if obj is original:
                setattr(mod, attr, make_field)


def main():
    mode, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import glfq.cli

    modules = _glfq_modules()
    report = {}
    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(modules)
    _mark_ready(report, modules)
    report["main"] = time.monotonic()
    code = 1
    try:
        code = glfq.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (exc.code is not None)
    finally:
        sys.stdout.flush()
        if tracer is not None:
            report["trace"] = {"spans": tracer.summary(), "counts": tracer.counts,
                               "absent": tracer.absent}
        sys.stderr.write("\n" + MARKER + json.dumps(report) + "\n")
        sys.stderr.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
