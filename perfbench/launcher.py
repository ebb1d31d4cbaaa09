"""Server child process of the benchmark.

Builds one :class:`HomeGuardService` behind one :class:`FleetServer`,
optionally wraps every layer in spans first (``--trace 1``), preloads the
corpus, and serves on an ephemeral loopback port.  It prints
``READY <port>`` on stdout once it accepts connections, then obeys one
command per stdin line, answering each with ``ok``:

``reset``
    forget the spans and counts recorded so far;
``dump <dir>``
    write ``summary.json`` (per-span calls, total and self seconds, plus
    counts) and ``spans.jsonl`` (every span) into ``<dir>``;
``stop`` (or end of input)
    drain and close the server, then exit.

Usage: ``python3 perfbench/launcher.py --store-root DIR --store dir``
``[--max-resident N] [--solve-cache SPEC] [--trace 0|1]``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _reply(text: str) -> None:
    sys.stdout.write(text + "\n")
    sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store-root", required=True)
    parser.add_argument("--store", choices=("dir", "sqlite"), default="dir")
    parser.add_argument("--max-resident", type=int, default=None)
    parser.add_argument("--solve-cache", default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from tracing import Recorder, instrument  # noqa: E402 (perfbench/)

    recorder = Recorder()
    if args.trace:
        instrument(recorder)

    from repro.corpus import demo_apps, device_controlling_apps
    from repro.service.service import HomeGuardService
    from repro.service.transport import FleetServer, TenantQuota

    started = time.perf_counter()
    service = HomeGuardService(
        store_root=args.store_root,
        store_backend=None if args.store == "dir" else args.store,
        max_resident_homes=args.max_resident,
        solve_cache=args.solve_cache,
    )
    service.preload(device_controlling_apps() + demo_apps())
    preload = {
        "seconds": time.perf_counter() - started,
        "extract": recorder.summary()["spans"].get("symex.extract", {}),
    }

    loop = asyncio.new_event_loop()
    server = FleetServer(
        service,
        own_service=True,
        # Quotas off in effect: the benchmark measures serving cost, and
        # a closed loop never has more than one request in flight.
        quota=TenantQuota(rate=1e9, burst=1 << 30, max_inflight=64),
    )
    loop.run_until_complete(server.start())
    stopped = asyncio.Event()

    def control() -> None:
        for line in sys.stdin:
            command, _, arg = line.strip().partition(" ")
            if command == "reset":
                recorder.reset()
            elif command == "dump":
                out = Path(arg)
                out.mkdir(parents=True, exist_ok=True)
                summary = recorder.summary()
                summary["preload"] = preload
                (out / "summary.json").write_text(json.dumps(summary))
                recorder.write(out / "spans.jsonl")
            elif command == "stop":
                break
            _reply("ok")
        loop.call_soon_threadsafe(stopped.set)

    _reply(f"READY {server.port}")
    threading.Thread(target=control, name="control", daemon=True).start()
    try:
        loop.run_until_complete(stopped.wait())
    finally:
        loop.run_until_complete(server.close())
        loop.close()
    _reply("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
