"""The certification server of the ``service-mixed-10k`` workload.

Runs the server ``repro serve`` runs, with its defaults — a
``CertificationService()`` (256-entry verdict cache, decided in-process)
behind ``make_server`` (default in-flight bound and request timeout) —
on an ephemeral local port, in its own process.

Protocol with the benchmark process: the first stdout line is
``{"port": P}``; closing stdin shuts the server down, after which the
last stdout line reports what only the server can see — handler errors
(``server.errors``), the service ledger and the process's peak memory
(``VmHWM``, which exec resets, so the benchmark's own set-up memory does
not show in it).

    python3 perfbench/serve.py
"""

from __future__ import annotations

import json
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from repro.service import CertificationService  # noqa: E402
from repro.service.httpd import DEFAULT_HOST, make_server  # noqa: E402

from perfbench.harness import peak_rss_mb  # noqa: E402


def main() -> int:
    service = CertificationService()
    server = make_server(DEFAULT_HOST, 0, service=service)
    print(json.dumps({"port": server.server_address[1]}), flush=True)

    def stop_at_eof() -> None:
        sys.stdin.read()
        server.shutdown()

    threading.Thread(target=stop_at_eof, daemon=True).start()
    try:
        server.serve_forever()
    finally:
        server.server_close()
        service.close()
    report = {
        "errors": list(server.errors),
        "stats": service.metrics()["stats"],
        "peak_rss_mb": peak_rss_mb(),
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
