"""The benchmark's one client: a closed loop of CLI questions in one process.

Started by run.py from the root of a checkout.  It imports the program from
./src, builds the seeded question list, writes "ready" on its protocol
stream (the parent times set-up up to that line) and then asks the
questions one after the other through dickson.cli.main with --format json.
A question starts when the previous answer has been printed.

Untraced, it answers whole rounds of the list until --seconds have passed
(at least one round), timing a fixed kernel before each question.
Traced, it answers the list once under the tracer.  It ends with one
JSON line: per-question latencies and kernel times, the answers of the
first round in full, a digest of every later answer, peak RSS, the wall
and CPU time of the loop and, when traced, the per-layer metrics.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")


def _load_program():
    sys.path.insert(0, SRC)
    import dickson
    import dickson.cli
    if not os.path.abspath(dickson.__file__).startswith(SRC + os.sep):
        raise SystemExit("dickson was imported from %s, not from %s"
                         % (dickson.__file__, SRC))
    return dickson.cli.main


def ask(main, argv):
    """One question; returns (seconds, answer record)."""
    out, err = io.StringIO(), io.StringIO()
    rc, exc = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv + ["--format=json"])
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 2
    except Exception as e:  # a raising question is counted, not fatal
        exc = "%s: %s" % (type(e).__name__, e)
    elapsed = time.perf_counter() - t0
    result = None
    if rc == 0:
        try:
            result = json.loads(out.getvalue())["result"]
        except (ValueError, KeyError) as e:
            exc = "unreadable answer: %s" % e
    return elapsed, {"rc": rc, "exc": exc, "stderr": err.getvalue()[-400:],
                     "result": result}


# The speed of the box drifts: on the 2-core machine these figures come
# from, one workload's run time went from 4.3 s to 7.9 s within twenty
# minutes.  A fixed piece of interpreter work, timed just before every
# question, measures the speed the question ran at; run.py scales each
# latency to the speed at which this kernel takes KERNEL_REF_S.
KERNEL_REF_S = 0.0015


def kernel():
    """Fraction sums and dict updates, about 1.5 ms at full speed."""
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(i % 97, i % 89 + 1)
    counts = {}
    for i in range(600):
        counts[i % 37] = counts.get(i % 37, 0) + i * i
    return total, counts


def digest(record):
    text = json.dumps(record, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    proto = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    program_main = _load_program()
    sys.path.insert(0, HERE)
    import workloads
    questions = workloads.generate(args.workload, args.seed)
    if args.workload == "finite-sweep":
        os.environ["DICKSON_MAX_EXHAUSTIVE"] = str(workloads.GF49_PAIR_CAP)
    proto.write("ready\n")
    proto.flush()
    if args.setup_only:
        return

    tracer = None
    if args.trace:
        import trace_layers
        tracer = trace_layers.Tracer()
        tracer.start()

    latencies, kernel_s, answers, digests, round_s = [], [], [], [], []
    started, started_cpu = time.perf_counter(), time.process_time()
    while True:
        t_round = time.perf_counter()
        for q in questions:
            if tracer:
                with tracer.question():
                    dt, rec = ask(program_main, q["argv"])
            else:
                t0 = time.perf_counter()
                kernel()
                kernel_s.append(time.perf_counter() - t0)
                dt, rec = ask(program_main, q["argv"])
            latencies.append(dt)
            if not round_s:
                answers.append(rec)
            else:
                digests.append(digest(rec))
        round_s.append(time.perf_counter() - t_round)
        if tracer or time.perf_counter() - started >= args.seconds:
            break

    loop_wall_s = time.perf_counter() - started
    loop_cpu_s = time.process_time() - started_cpu
    layers = None
    if tracer:
        tracer.stop()
        layers = tracer.metrics()
        tracer.write(os.path.join(HERE, "out", "trace-%s-%d.json"
                                  % (args.workload, args.seed)))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    proto.write(json.dumps({
        "latencies": latencies, "kernel_s": kernel_s, "round_s": round_s,
        "answers": answers,
        "digests": digests, "peak_rss_mb": peak_kb / 1024.0,
        "loop_wall_s": loop_wall_s, "loop_cpu_s": loop_cpu_s,
        "layers": layers}) + "\n")
    proto.flush()


if __name__ == "__main__":
    main()
