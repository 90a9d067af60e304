"""Serving quickstart: publish a fitted TFMAE and score it over HTTP.

Demonstrates the full ``repro.serve`` loop in one process:

1. fit a small detector and publish it to a :class:`ModelRegistry`
   (one versioned ``.npz`` per publish, hyperparameters included);
2. start an :class:`InferenceServer` on an ephemeral port — requests
   flow through the micro-batching scheduler, so concurrent clients
   share vectorized forward passes;
3. fire a burst of concurrent ``/score`` requests and check the served
   scores are bitwise-identical to calling ``detector.score`` directly;
4. read ``/metrics`` to see how many batches the burst coalesced into.

Run:
    python examples/serve_quickstart.py

For a long-running server use the CLI instead:
    python -m repro serve --registry ./model-registry --port 8080
"""

from __future__ import annotations

import json
import tempfile
import threading
import urllib.request

import numpy as np

from repro import TFMAE, TFMAEConfig, get_dataset
from repro.serve import InferenceServer, ModelRegistry


def post_json(url: str, payload: dict) -> dict:
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read())


def main() -> None:
    # 1. Fit a small detector (same recipe as examples/quickstart.py,
    #    shrunk further so this example runs in a few seconds).
    dataset = get_dataset("NIPS-TS-Global", seed=0, scale=0.02).normalised()
    config = TFMAEConfig(window_size=50, d_model=16, num_layers=1, num_heads=2,
                         anomaly_ratio=2.5, epochs=3, batch_size=16,
                         learning_rate=1e-3, seed=0)
    detector = TFMAE(config)
    detector.fit(dataset.train, dataset.validation)
    print(f"fitted: threshold delta = {detector.threshold_:.4f}")

    with tempfile.TemporaryDirectory() as root:
        # 2. Publish to a registry and start the server on a free port.
        registry = ModelRegistry(root)
        version = registry.publish("tfmae", detector)
        print(f"published tfmae:{version} -> {root}")

        with InferenceServer(registry, port=0, max_batch_size=8) as server:
            print(f"serving at {server.url}")

            # 3. A burst of concurrent requests through the micro-batcher.
            windows = [dataset.test[i : i + 50] for i in range(0, 64, 2)]
            served = [None] * len(windows)

            def client(index: int) -> None:
                served[index] = post_json(
                    server.url + "/score",
                    {"model": "tfmae", "window": windows[index].tolist()},
                )

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(len(windows))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            got = np.array([body["score"] for body in served])
            expected = np.array([detector.score(w)[-1] for w in windows])
            assert np.array_equal(got, expected), "served != sequential"
            flagged = sum(body["anomaly"] for body in served)
            print(f"scored {len(windows)} concurrent requests "
                  f"(bitwise equal to sequential), {flagged} flagged")

            # 4. How much did the scheduler coalesce?
            with urllib.request.urlopen(server.url + "/metrics", timeout=60) as r:
                snapshot = json.loads(r.read())
            batches = snapshot["histograms"]["serve_batch_size"]
            print(f"coalesced into {batches['count']} batches "
                  f"(mean size {batches['mean']:.1f}, max {batches['max']:.0f})")


if __name__ == "__main__":
    main()
