"""One fresh process's set-up, timed from outside by ``common.time_setups``.

``build``: import the build path and make a machine.
``serve GRAPH STORE VARIANT BACKEND DYNAMIC CACHE LINE``: load the graph
file and the stored hopset, start the server (and its worker pool, which
starts on the first eligible round) and answer ``LINE``.

Prints ``ready`` once set up, then waits for stdin to close and shuts down,
workers and resource tracker included, before it exits.
"""

from __future__ import annotations

import signal
import sys


def main(argv: list[str]) -> int:
    if argv[0] == "build":
        from repro.hopsets.multi_scale import build_hopset  # noqa: F401
        from repro.pram.machine import PRAM

        PRAM()
        print("ready", flush=True)
        sys.stdin.read()
        return 0

    _, graph_path, store_dir, variant, backend_spec, dynamic, cache, line = argv
    from repro.hopsets.store import HopsetStore
    from repro.pram.backends.sharded import ShardedBackend
    from repro.serialize import load_graph
    from repro.serve import OracleServer

    from common import params as bench_params
    from common import stop_helpers

    params = bench_params()
    graph = load_graph(graph_path)
    hopset = HopsetStore(store_dir).load(graph, params, variant)
    if hopset is None:
        print("store miss", flush=True)
        return 1
    backend = ShardedBackend(workers=2) if backend_spec == "sharded" else None
    server = OracleServer(
        graph, hopset, cache_size=int(cache), backend=backend,
        dynamic=dynamic == "1", params=params if dynamic == "1" else None,
    )
    try:
        if not server.serve_batch([line])[0].startswith("ok "):
            print("bad reply", flush=True)
            return 1
        print("ready", flush=True)
        sys.stdin.read()
    finally:
        server.close()
        if backend is not None:
            backend.close()
        stop_helpers()
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main(sys.argv[1:]))
