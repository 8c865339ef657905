"""One benchmark repetition, run by run.py in a fresh process.

Usage: python3 worker.py '<json spec>'

The spec names the ``cuspgrowth`` source tree, the CLI argument lists to
run through ``cuspgrowth.cli.main``, whether to trace, and where to write
the result.  The result records the monotonic clock once the package is
imported (run.py subtracts its spawn time to get set-up time), the wall
and CPU seconds of the commands, their exit codes and, when traced, the
per-layer metrics; the spans go to their own file.
"""

import json
import os
import resource
import sys
import time


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    spec = json.loads(sys.argv[1])
    import cuspgrowth.cli as cli

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"cuspgrowth imported from {cli.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    tracer = patches = None
    if spec["trace"]:
        import layers
        import spans
        tracer = spans.Tracer(spec["run_id"])
        patches = layers.install(tracer)

    ready = time.monotonic()
    cpu0 = _cpu_seconds()
    codes = [cli.main(argv) for argv in spec["commands"]]
    run_s = time.monotonic() - ready
    cpu_s = _cpu_seconds() - cpu0

    result = {"ready": ready, "run_s": run_s, "cpu_s": cpu_s,
              "exit_codes": codes}
    if tracer is not None:
        spans.restore(patches)
        result["layers"] = layers.metrics(tracer)
        tracer.save(spec["spans"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
