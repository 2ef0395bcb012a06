"""One benchmark sample: a fresh interpreter doing one `spinchaos run`.

Usage: child.py SRC T_SPAWN RUN_ID TRACE_DIR CONFIG [CONFIG ...]

Imports spinchaos.cli from SRC, calls load_config on each CONFIG, then
run_experiment on each in order, and prints one JSON line of timings.
T_SPAWN is the parent's time.monotonic() just before it started this
process (the clock is system wide on Linux), so setup_s covers
interpreter start, imports and config validation. With TRACE_DIR not
"-", the layer modules are wrapped by spans.Tracer before load_config
and the spans are written to TRACE_DIR/spans.jsonl.
"""

import json
import os
import resource
import sys
import time


def _blas() -> dict:
    import numpy as np
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"name": None, "version": None}
    return {"name": deps.get("name"), "version": deps.get("version")}


def _host() -> dict:
    import numpy as np
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "spinchaos_threads": os.environ.get("SPINCHAOS_THREADS"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": ".".join(map(str, sys.version_info[:3])),
    }


def main(argv: list[str]) -> int:
    src, t_spawn, run_id, trace_dir, *config_paths = argv
    src = os.path.realpath(src)
    sys.path.insert(0, src)
    import spinchaos.cli as cli
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"spinchaos imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = None
    if trace_dir != "-":
        import spans
        tracer = spans.Tracer(run_id)
        tracer.install()
    cfgs = [cli.load_config(p) for p in config_paths]
    setup_s = time.monotonic() - float(t_spawn)
    wall_s = cpu_s = 0.0
    for cfg in cfgs:
        w0, c0 = time.perf_counter(), time.process_time()
        cli.run_experiment(cfg)
        wall_s += time.perf_counter() - w0
        cpu_s += time.process_time() - c0
    out = {
        "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "host": _host(),
    }
    if tracer is not None:
        tracer.restore()
        tracer.write(os.path.join(trace_dir, "spans.jsonl"))
        out["layers"] = spans.layer_metrics(tracer.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
