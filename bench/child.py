"""One timed CLI run, executed in a fresh interpreter by ``run.py``.

    python3 bench/child.py START_CPU COMMAND CONFIG RESULT [TRACE]

Imports ``rpmelab.cli``, calls ``load_config`` and then ``run_command``, the
same two calls ``rpmelab.cli.main`` makes, and writes the clock readings and
peak RSS to RESULT as JSON.  ``time.monotonic`` reads one system-wide clock,
so the parent subtracts its own spawn reading to get the set-up time.  With
TRACE the public functions of the traced modules are wrapped before the config
is read, and the spans and counters are written to TRACE.  The exit code is
``run_command``'s.
"""
import json
import os
import resource
import sys
import time


def main(argv: list[str]) -> int:
    start_cpu, command, config_path, result_path = argv[:4]
    trace_path = argv[4] if len(argv) > 4 else None

    # Move to the CPU the parent chose, then allow every CPU again: the task
    # stays where it is unless its own threads need the others.
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {int(start_cpu)})
    os.sched_setaffinity(0, allowed)

    import rpmelab
    import rpmelab.cli as cli

    tracer = None
    if trace_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(rpmelab)
    cfg = cli.load_config(config_path)
    t_config = time.monotonic()
    code = cli.run_command(command, cfg)
    t_done = time.monotonic()
    result = {
        "exit_code": code,
        "t_config": t_config,
        "run_s": t_done - t_config,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    if tracer is not None:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(
                {"summary": tracer.summary(), "spans": tracer.spans, "counters": tracer.counters()},
                fh,
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
