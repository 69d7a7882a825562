"""Run one workload in this process and write its result as JSON.

Started by run.py with mirrorsim on PYTHONPATH:
    python3 benchmark/worker.py WORKLOAD SEED SECONDS TRACE OUT_DIR RESULT_JSON \
        SPANS_JSONL
"""

from __future__ import annotations

import json
import math
import resource
import sys
from pathlib import Path


def main(argv) -> int:
    name, seed, seconds, trace, out, result_path, spans_path = argv
    out = Path(out)
    import workloads  # imports mirrorsim
    from speed import SpeedSampler

    tracer = None
    if trace == "1":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    with SpeedSampler() as speed:
        result = workloads.WORKLOADS[name](int(seed), float(seconds), out,
                                           tracer, speed)
    payload = result.as_dict()
    payload["speed_factor"] = speed.factor(-math.inf, math.inf)
    payload["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        payload["layers"] = tracer.metrics()
        payload["spans"] = len(tracer.spans)
        tracer.dump(spans_path)
    Path(result_path).write_text(json.dumps(payload), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
