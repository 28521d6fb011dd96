"""One cold ``exact-sorted`` process for the exact-cold workload.

Reads a job from stdin (``ns``, ``n``, ``k``, ``max_space``, ``inputs``,
``trace``), makes the first ``transform_exact_sorted`` call, which builds the
(info, lex) orders of both spaces, then one warm transform+inverse round trip
per input.  Prints one JSON object: the first-call time and the calibrations
around it, every warm round trip's latency in ns, failures, peak RSS and,
when tracing, the spans and the sequences and type classes enumerated.
"""
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    job = json.load(sys.stdin)
    import numpy as np

    from calibration import calibrate
    from seqshape import Sequence, shaping
    from spans import Tracer

    ns, k, max_space = job["ns"], job["k"], job["max_space"]
    seqs = [Sequence(np.asarray(s, dtype=np.int64), ns) for s in job["inputs"]]
    tracer = Tracer()
    if job["trace"]:
        from workloads import count_enumeration

        tracer.patch(shaping, "transform_exact_sorted", "shaping")
        tracer.patch(shaping, "inverse_exact_sorted", "shaping")
        count_enumeration(tracer)
    forward, inverse = shaping.transform_exact_sorted, shaping.inverse_exact_sorted

    before = calibrate()
    t = time.perf_counter()
    with tracer.span("first", "bench", request=0):
        first = forward(seqs[0], k, max_space)
    first_call_s = time.perf_counter() - t
    after = calibrate()

    latencies, failed, errors = [], 0, []
    with tracer.span("warm", "bench"):
        for i, seq in enumerate(seqs):
            tracer.request = i
            t0 = time.perf_counter_ns()
            try:
                shaped = forward(seq, k, max_space)
                back = inverse(shaped, k, max_space)
            except Exception as exc:  # counted; the loop goes on
                failed += 1
                errors.append(repr(exc))
                continue
            latencies.append(time.perf_counter_ns() - t0)
            if back != seq or (i == 0 and shaped != first):
                failed += 1
                errors.append(f"input {i} does not round-trip")
    tracer.restore()
    done = calibrate()

    spans = [[s.name, s.layer, s.start, s.end, s.parent, s.request, s.error] for s in tracer.spans]
    json.dump(
        {
            "first_call_s": first_call_s,
            "calibration_s": [before, after, done],
            "latencies_ns": latencies,
            "failed": failed,
            "errors": errors[:3],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "spans": spans if job["trace"] else [],
            "counts": dict(tracer.counts),
        },
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
