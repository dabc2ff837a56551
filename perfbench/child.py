"""One `solenoid` CLI call in a fresh process, with its set-up timed.

    python3 perfbench/child.py TIMINGS.json [--trace SPANS.npz] -- ARGS...

Runs `solenoidlab.cli.main(ARGS)` exactly as the `solenoid`
entry point does and writes TIMINGS.json with the import time, the
`cli.load_config` time (spec validation plus the coarse Gibbs model) and
the `cli.run_command` time.  With --trace, the layer functions are
wrapped first (see tracing.py) and their spans are written to SPANS.npz.
"""

import json
import sys
import time


def _timed(fn, timings, key):
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            timings[key] = time.perf_counter() - t0
    return timed


def main(argv):
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1:]
    timings_path = own[0]
    trace_path = own[own.index("--trace") + 1] if "--trace" in own else None

    t0 = time.perf_counter()
    import solenoidlab.cli as cli
    timings = {"import_s": time.perf_counter() - t0}

    tracer = None
    if trace_path:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    cli.load_config = _timed(cli.load_config, timings, "load_config_s")
    cli.run_command = _timed(cli.run_command, timings, "run_command_s")
    code = cli.main(cli_args)
    if tracer is not None:
        tracer.dump(trace_path)
    with open(timings_path, "w") as fh:
        json.dump(timings, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
