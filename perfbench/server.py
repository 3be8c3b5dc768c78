"""The server child: the real wire endpoint on the service defaults.

Run from the root of a checkout with ``PYTHONPATH=src``::

    python3 perfbench/server.py [--keep-artifacts] [--trace-out FILE]

Prints ``PORT <n>`` once :meth:`AsyncSchedulingService.serve` is
listening on 127.0.0.1, then serves newline-JSON over TCP until its
standard input closes (so it never outlives the benchmark process).
With ``--trace-out`` the layer wrappers of :mod:`spans` are installed
before the service is built, and the spans are written to FILE on exit.
"""
from __future__ import annotations

import argparse
import asyncio
import sys
import threading


async def serve(keep_artifacts: bool) -> None:
    from repro.service.async_front import AsyncSchedulingService

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()

    def wait_for_eof() -> None:
        sys.stdin.buffer.read()
        loop.call_soon_threadsafe(stop.set)

    threading.Thread(target=wait_for_eof, daemon=True).start()
    async with AsyncSchedulingService(keep_artifacts=keep_artifacts) as front:
        _, port = await front.serve("127.0.0.1", 0)
        print(f"PORT {port}", flush=True)
        await stop.wait()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--keep-artifacts", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args()
    import repro.service  # noqa: F401  (every call site must exist first)

    recorder = None
    if args.trace_out:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    try:
        asyncio.run(serve(args.keep_artifacts))
    finally:
        if recorder is not None:
            recorder.dump(args.trace_out)


if __name__ == "__main__":
    main()
