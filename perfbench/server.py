"""HTTP server process of the ``serve-http`` workload.

Run as ``python3 perfbench/server.py --store DIR [--spans PATH]``.  It
serves the exported store with the program's own ``make_server`` and
default ``ServeConfig`` on an ephemeral port, prints ``{"port": P}``
once it is ready, then takes one command per line on standard input:

``clear``  empty the result cache and forget the warm-up spans, reply ``{}``
``stats``  reply with the cache counters
``stop``   shut down; reply with this process's peak RSS, and write the
           span events to ``--spans`` as JSONL when given (the traced phase)
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import common  # noqa: E402
from spans import Patcher, write_events  # noqa: E402


def reply(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--store", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    from repro.serve import make_server

    patcher = Patcher().install_serving(with_http=True) if args.spans else None
    server, service = make_server(args.store)
    worker = threading.Thread(target=server.serve_forever, name="http", daemon=True)
    worker.start()
    reply({"port": server.server_address[1]})
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "clear":
                service.cache.clear()
                if patcher is not None:
                    patcher.reset(keep=("serve.store.load",))
                reply({})
            elif command == "stats":
                reply(service.cache.stats.to_dict())
            elif command == "stop":
                break
    finally:
        server.shutdown()
        worker.join(timeout=10)
        server.close()
    if patcher is not None:
        patcher.uninstall()
        write_events(patcher.tracer, args.spans)
    reply({"peak_rss_mb": common.peak_rss_mb()})


if __name__ == "__main__":
    main()
