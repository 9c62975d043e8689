"""Write the answer to every benchmark question, for a same-answers check.

    python3 tools/answers.py OUT SEED [SEED ...]

Every question that perfbench/workloads.py builds for the three workloads
at each seed is asked through dickson.cli.main with --format json, with
the program imported from the src/ of the checkout this script lives in.
OUT gets one JSON line per question: the question, the exit code, the
envelope without its wall_time_s and anything written to stderr.

An OUT whose name ends in .sha256 gets, instead, one line per question
with the sha256 of its JSON line, the workload, the seed and the
question id.

A change keeps the answers when the files written from the two checkouts
at the same seeds are byte-identical (`cmp parent.jsonl change.jsonl`).
The seed-1 file is committed as tests/answers_seed1.jsonl and the
digests of seeds 2 and 3 as tests/answers_seed2_3.sha256, and
tests/test_answers.py compares both with fresh ones; a change that is
meant to alter answers rewrites them with this script:

    python3 tools/answers.py tests/answers_seed1.jsonl 1
    python3 tools/answers.py tests/answers_seed2_3.sha256 2 3
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PERFBENCH = os.path.join(ROOT, "perfbench")


def ask(main, argv):
    """(exit code, envelope without wall_time_s or raw stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv + ["--format=json"])
        except SystemExit as e:
            rc = e.code
        except Exception as e:  # a raising question is an answer too
            rc = "%s: %s" % (type(e).__name__, e)
    try:
        envelope = json.loads(out.getvalue())
    except ValueError:
        envelope = out.getvalue()
    else:
        envelope.pop("wall_time_s", None)
    return rc, envelope, err.getvalue()


def answer_lines(seeds):
    """The lines of OUT, without newlines, one per question in order;
    the package is the dickson already imported, if any."""
    import dickson.cli
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(PERFBENCH, "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            for q in workloads.generate(workload, seed):
                rc, envelope, stderr = ask(dickson.cli.main, q["argv"])
                yield json.dumps(
                    {"workload": workload, "seed": seed, "id": q["id"],
                     "argv": q["argv"], "rc": rc, "envelope": envelope,
                     "stderr": stderr}, sort_keys=True)


def digest_line(line):
    """The .sha256 line of one answer line: its digest, workload, seed
    and question id."""
    q = json.loads(line)
    return "%s %s %d %s" % (hashlib.sha256(line.encode()).hexdigest(),
                            q["workload"], q["seed"], q["id"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", help="file to write, one JSON line per question")
    ap.add_argument("seeds", nargs="+", type=int)
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import dickson
    if not os.path.abspath(dickson.__file__).startswith(SRC + os.sep):
        raise SystemExit("dickson was imported from %s, not from %s"
                         % (dickson.__file__, SRC))

    digests = args.out.endswith(".sha256")
    count = 0
    with open(args.out, "w") as fh:
        for line in answer_lines(args.seeds):
            fh.write((digest_line(line) if digests else line) + "\n")
            count += 1
    print("%d questions -> %s" % (count, args.out))


if __name__ == "__main__":
    main()
