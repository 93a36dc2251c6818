"""One benchmark sample: a fresh process that runs a workload as a CLI user would.

    python3 perfbench/child.py --workload W --seed N --out DIR --spawned T [--trace] [--setup-only]

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process (CLOCK_MONOTONIC is shared by all processes), so ``setup_s``
covers interpreter start, ``import msmlab.cli`` and ``parse_config``.
``wall_s`` is ``cli.run_experiments`` on the whole document, manifest
included.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import time

import workloads


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from msmlab import cli

    tracer = None
    if args.trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
    experiments = cli.parse_config(workloads.document(args.workload, args.seed))
    setup_s = time.monotonic() - args.spawned
    record = {"setup_s": setup_s, "msmlab": cli.__file__}
    if not args.setup_only:
        start = time.perf_counter()
        cli.run_experiments(experiments, args.out)
        record["wall_s"] = time.perf_counter() - start
        # ru_maxrss is in KiB on Linux.
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            record["layers"] = layer_metrics(tracer.spans)
            record["missing_spans"] = tracer.missing
    print(json.dumps(record))


if __name__ == "__main__":
    main()
