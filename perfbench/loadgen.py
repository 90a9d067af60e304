"""Open-loop HTTP load generator for the http-score workload.

Stdlib only, so it starts in milliseconds and shares nothing with the
server process.  Usage::

    python3 perfbench/loadgen.py SPEC.json > RESULTS.json

``SPEC.json`` holds ``host``, ``port``, ``connections``, ``timeout_s``,
``t0_ns`` (schedule start on the system-wide monotonic clock) and
``items``: ``[offset_s, path, body]`` rows, where ``body`` is the
pre-encoded JSON of a ``POST`` or ``null`` for a ``GET``.

The main thread releases each item at its due time into a queue served
by ``connections`` keep-alive connections, whether or not earlier items
have been answered (an open loop).  For every item the output records,
in monotonic nanoseconds, when it was due, when the generator released
it, when a connection sent it and when the response arrived, plus the
status and the response body's ``score``.
"""

from __future__ import annotations

import http.client
import json
import queue
import sys
import threading
import time


def _connection(spec: dict) -> http.client.HTTPConnection:
    return http.client.HTTPConnection(spec["host"], spec["port"], timeout=spec["timeout_s"])


def _serve(spec: dict, bodies: list, work: queue.Queue, results: list) -> None:
    connection = _connection(spec)
    try:
        while True:
            job = work.get()
            if job is None:
                return
            index, due, released = job
            path = spec["items"][index][1]
            body = bodies[index]
            sent = time.monotonic_ns()
            status, score = 0, None
            try:
                if body is None:
                    connection.request("GET", path)
                else:
                    connection.request("POST", path, body,
                                       {"Content-Type": "application/json"})
                response = connection.getresponse()
                data = response.read()
                status = response.status
                if body is not None and status == 200:
                    score = json.loads(data)["score"]
            except (OSError, http.client.HTTPException, ValueError, KeyError):
                # Status 0 marks a transport failure; reconnect for the rest.
                connection.close()
                connection = _connection(spec)
            results[index] = [due, released, sent, time.monotonic_ns(), status, score]
    finally:
        connection.close()


def main(spec_path: str) -> int:
    with open(spec_path) as handle:
        spec = json.load(handle)
    items = spec["items"]
    bodies = [None if body is None else body.encode("utf-8") for _, _, body in items]
    results: list = [None] * len(items)
    work: queue.Queue = queue.Queue()
    workers = [
        threading.Thread(target=_serve, args=(spec, bodies, work, results), daemon=True)
        for _ in range(spec["connections"])
    ]
    for worker in workers:
        worker.start()
    t0 = spec["t0_ns"]
    for index, (offset_s, _path, _body) in enumerate(items):
        due = t0 + int(offset_s * 1e9)
        wait = (due - time.monotonic_ns()) / 1e9
        if wait > 0:
            time.sleep(wait)
        work.put((index, due, time.monotonic_ns()))
    for _ in workers:
        work.put(None)
    for worker in workers:
        worker.join(timeout=spec["timeout_s"] + 5)
    json.dump({"results": results}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
