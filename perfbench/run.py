"""Benchmark of the dickson workbench: one closed-loop client per workload.

    python3 perfbench/run.py --workload finite-sweep --seed 1 \
        --seconds 25 --trace 0

Run from the root of a checkout that holds src/dickson.  The client
(client.py) runs in a process of its own, so its peak RSS is the
program's; this process only starts it, times its set-up and checks its
answers afterwards with oracle.py, outside the timed region.

Set-up is timed from process start to the client's "ready" line (imports
and input generation).  One untimed start compiles and caches the
modules first.  Three set-up-only clients before the measuring client,
the measuring client itself and three after it give seven samples spread
over the run, and setup_s is their median.

The speed of the shared 2-core box these figures come from flips between
two states for seconds at a time and drifts by tens of percent over
minutes.  The client times a fixed kernel before every question; each
latency is scaled to the speed at which the kernel takes
client.KERNEL_REF_S, judged by the median of the eleven kernel times
around it, and each question's latency is the median of its rounds.
wall_s is the sum of those latencies, answer_p50_ms and answer_p90_ms
are their percentiles over the list, and setup_s is scaled by the run's
median kernel time.

The last line of standard output is one JSON object:
    {"correct", "attempted", "failed", "metrics"}
with the end-to-end metrics untraced (--trace 0) and the per-layer
metrics traced (--trace 1).  A question fails when it raises, exits
non-zero or fails its check; "correct" is false when any failure is other
than the known fault the workloads keep on purpose.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import client  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7


def percentile(values, share):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


class Client:
    """One client process; its set-up time runs from start to "ready"."""

    def __init__(self, args, setup_only):
        argv = [sys.executable, os.path.join(HERE, "client.py"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if setup_only:
            argv.append("--setup-only")
        # fixed string hashing, so set iteration order and therefore the
        # traced call counts repeat exactly
        env = dict(os.environ, PYTHONHASHSEED="0")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                                     env=env)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        if line != "ready\n":
            self.finish()
            raise SystemExit("client did not start (exit %s)"
                             % self.proc.returncode)

    def finish(self):
        """Read the client's last line and wait for it to end."""
        try:
            last = self.proc.stdout.read()
        finally:
            self.proc.stdout.close()
            self.proc.wait()
        if self.proc.returncode != 0:
            raise SystemExit("client exited with %d" % self.proc.returncode)
        return last


def check_answers(questions, report):
    """(failed, correct): every failure counted, and whether each one is
    the known fault rather than a wrong answer."""
    import oracle
    failed, correct = 0, True
    verdicts = []
    for q, rec in zip(questions, report["answers"]):
        why = oracle.check(q, rec)
        verdicts.append((why, client.digest(rec)))
        if why:
            failed += 1
            known = q["spec"].get("precision_fault", False)
            correct = correct and known
            print("question %d failed%s: %s\n  %s" % (
                q["id"], " (known fault)" if known else "", why,
                " ".join(q["argv"])), file=sys.stderr)
    for i, dig in enumerate(report["digests"]):
        why, first = verdicts[i % len(questions)]
        if dig != first:
            failed += 1
            correct = False
            print("question %d answered differently in a later round"
                  % (i % len(questions)), file=sys.stderr)
        elif why:
            failed += 1
    return failed, correct


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isdir(os.path.join("src", "dickson")):
        raise SystemExit("run from the root of a dickson checkout: "
                         "src/dickson is missing")

    setups = []

    def setup_samples(count):
        for _ in range(count):
            c = Client(args, setup_only=True)
            c.finish()
            setups.append(c.setup_s)

    Client(args, setup_only=True).finish()
    setup_samples(SETUP_SAMPLES // 2)
    measuring = Client(args, setup_only=False)
    setups.append(measuring.setup_s)
    report = json.loads(measuring.finish())
    setup_samples(SETUP_SAMPLES // 2)

    questions = workloads.generate(args.workload, args.seed)
    failed, correct = check_answers(questions, report)
    if args.trace:
        metrics = report["layers"]
    else:
        lat, kern = report["latencies"], report["kernel_s"]
        # each latency at the reference speed, judged by the kernel times
        # around it; then each question's median over the rounds
        ref = client.KERNEL_REF_S
        scaled = [t * ref / statistics.median(kern[max(0, j - 5):j + 6])
                  for j, t in enumerate(lat)]
        n = len(questions)
        per_q = [statistics.median(scaled[i::n]) for i in range(n)]
        setup = statistics.median(setups) * ref / statistics.median(kern)
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "wall_s": {"value": sum(per_q), "unit": "s"},
            "answer_p50_ms": {"value": percentile(per_q, 0.5) * 1e3,
                              "unit": "ms"},
            "answer_p90_ms": {"value": percentile(per_q, 0.9) * 1e3,
                              "unit": "ms"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": correct, "attempted": len(report["latencies"]),
              "failed": failed, "metrics": metrics}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    name = "result-%s-%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(HERE, "out", name), "w") as fh:
        json.dump(dict(result, rounds=report["round_s"],
                       setups=setups,
                       loop_wall_s=report["loop_wall_s"],
                       loop_cpu_s=report["loop_cpu_s"]), fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
