"""One cold start of a workload's program, run in a fresh interpreter.

Usage: ``python coldstart.py pipeline SPEC_JSON SCRATCH_DIR``,
``python coldstart.py master DB_DIR`` or ``python coldstart.py serve ARTIFACT``.
Prints ``READY <unix time>`` once the program could answer its first
request, then shuts down.  The caller times launch -> READY.
"""

import sys
import tempfile
import time


def main(argv) -> int:
    mode, target = argv[0], argv[1]
    if mode == "pipeline":
        from repro.api import MuffinPipeline, RunSpec

        with tempfile.TemporaryDirectory(dir=argv[2]) as cache:
            MuffinPipeline(RunSpec.from_json(target), cache_dir=cache)
            print(f"READY {time.time()!r}", flush=True)
    elif mode == "master":
        from repro.master import MasterClient, MasterConfig, MasterServer

        server = MasterServer(MasterConfig(db_root=target, verbose=False))
        server.start()
        try:
            MasterClient(server.host, server.port).ping()
            print(f"READY {time.time()!r}", flush=True)
        finally:
            server.stop()
    elif mode == "serve":
        import numpy as np

        from repro.serve import InferenceServer, ServeClient, ServeConfig

        server = InferenceServer(target, ServeConfig(num_shards=2)).start()
        try:
            row = np.zeros((1, server.schema.input_dim))
            ServeClient(server).predict(row)
            print(f"READY {time.time()!r}", flush=True)
        finally:
            server.stop()
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
