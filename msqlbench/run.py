#!/usr/bin/env python3
"""End-to-end MSQL benchmark: build, run one workload, compare, check.

Run from the repository root:

  python3 msqlbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                           [--stmts N] [--out FILE] [--trace-out FILE]
      Builds the benchmark with dune, runs one workload and relays its
      report. The last line of output is the JSON result; with --trace 0
      it carries the end-to-end metrics, with --trace 1 the per-layer
      ones. Exits nonzero if a check failed.

  python3 msqlbench/run.py --compare A.json... -- B.json...
      Compares two sets of --out records (A the base, B the candidate)
      per workload and metric, against the bounds in BENCHMARK.json.
      Refuses, exiting nonzero, when a record failed a check or when two
      runs of one seed disagree on the result digest.

  python3 msqlbench/run.py --check
      Runs every workload untraced and traced at a small fixed statement
      count: every check must pass, every metric of BENCHMARK.json must be
      printed with its unit, and both runs must agree on the result digest.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.basename(HERE)
BINARIES = {"0": "msql_bench.exe", "1": "msql_trace.exe"}
RUN_TIMEOUT_S = 170
# absolute slack added to a metric's relative bound in --compare: a
# set-up of microseconds to milliseconds moves by more than its 25% bound
# from one run to the next, and no user would notice 0.05 s
ABS_BOUND = {"setup_s": 0.05}
# statement counts for --check: small enough for a few seconds in all
CHECK_STMTS = {"paper_2pc": 300, "fleet_waves": 120, "join_large": 25,
               "server_zipf": 400}


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def build(binary):
    """Build one benchmark binary inside the checkout; return its path."""
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root: dune-project and lib/ are missing")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    target = "./%s/%s" % (BENCH_DIR, binary)
    proc = subprocess.run([dune, "build", "--root", ".", "--display", "quiet",
                           target], stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail("build of %s failed" % target)
    return os.path.join("_build", "default", BENCH_DIR, binary)


def run_binary(exe, args):
    """Run a benchmark binary; return (exit code, stdout lines)."""
    try:
        proc = subprocess.run([exe] + args, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (exe, RUN_TIMEOUT_S), 3)
    return proc.returncode, proc.stdout.splitlines()


def metric_problems(result, expected):
    """Names missing, unexpected or printed with the wrong unit."""
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    problems = ["missing metric %s" % n for n in want if n not in got]
    problems += ["unexpected metric %s" % n for n in got if n not in want]
    problems += ["metric %s in %s, expected %s" % (n, got[n], want[n])
                 for n in want if n in got and got[n] != want[n]]
    return problems


def run_workload(argv):
    opts = {"--workload": None, "--seed": None, "--seconds": None,
            "--trace": "0", "--stmts": None, "--out": None, "--trace-out": None}
    it = iter(argv)
    for a in it:
        if a not in opts:
            fail("unknown argument %s" % a)
        try:
            opts[a] = next(it)
        except StopIteration:
            fail("%s needs a value" % a)
    if opts["--workload"] is None or opts["--seed"] is None:
        fail("--workload and --seed are required")
    if opts["--trace"] not in BINARIES:
        fail("--trace takes 0 or 1")
    spec = load_spec()
    if opts["--workload"] not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %s" % opts["--workload"])
    exe = build(BINARIES[opts["--trace"]])
    args = ["--workload", opts["--workload"], "--seed", opts["--seed"]]
    for k in ("--seconds", "--stmts", "--out", "--trace-out"):
        if opts[k] is not None:
            args += [k, opts[k]]
    code, lines = run_binary(exe, args)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    if result is None:
        print("\n".join(lines))
        fail("the benchmark printed no result line", code or 1)
    section = "per_layer" if opts["--trace"] == "1" else "end_to_end"
    problems = metric_problems(result, spec[section])
    if problems:
        print("\n".join(lines[:-1]))
        fail("; ".join(problems), 1)
    print("\n".join(lines))
    sys.exit(code)


# ---- --check ----------------------------------------------------------------

def check():
    spec = load_spec()
    exes = {t: build(b) for t, b in BINARIES.items()}
    failures = []
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        for w in spec["workloads"]:
            name = w["name"]
            digests = {}
            for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
                out = os.path.join(tmp, "%s-%s.json" % (name, trace))
                code, lines = run_binary(exes[trace], [
                    "--workload", name, "--seed", "1",
                    "--stmts", str(CHECK_STMTS[name]), "--out", out])
                if code != 0 or not os.path.exists(out):
                    failures.append("%s trace=%s: exit %d\n%s"
                                    % (name, trace, code, "\n".join(lines)))
                    continue
                with open(out) as f:
                    record = json.load(f)
                for p in metric_problems(record, spec[section]):
                    failures.append("%s trace=%s: %s" % (name, trace, p))
                digests[trace] = record["window_digest"]
            if len(digests) == 2 and digests["0"] != digests["1"]:
                failures.append("%s: untraced digest %s, traced %s"
                                % (name, digests["0"], digests["1"]))
            print("%-12s %s" % (name, "ok" if not any(
                f.startswith(name) for f in failures) else "FAILED"))
    for f in failures:
        print("CHECK FAILED: " + f)
    sys.exit(1 if failures else 0)


# ---- --compare ---------------------------------------------------------------

def load_records(paths):
    runs = {}
    for p in paths:
        with open(p) as f:
            r = json.load(f)
        runs.setdefault(r["workload"], []).append(r)
    return runs


def output_problems(base, cand):
    """Runs that failed a check, and runs of one seed whose outputs differ.

    A record is correct only when no statement failed, so a candidate
    with more failures than its base is refused here, before any timing
    can count as a gain.
    """
    problems = []
    digests = {}
    for side, runs in (("A", base), ("B", cand)):
        for wl, records in runs.items():
            for r in records:
                if not r["correct"] or r["failed"]:
                    problems.append("%s %s seed %d: correct=%s, %d failed"
                                    % (side, wl, r["seed"], r["correct"],
                                       r["failed"]))
                key = (wl, r["seed"], r["window_stmts"])
                digests.setdefault(key, set()).add(r["window_digest"])
    for (wl, seed, _), ds in sorted(digests.items()):
        if len(ds) > 1:
            problems.append("%s seed %d: runs disagree on the window digest (%s)"
                            % (wl, seed, ", ".join(sorted(ds))))
    return problems


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def compare(argv):
    if "--" not in argv:
        fail("usage: --compare A.json... -- B.json...")
    cut = argv.index("--")
    base, cand = load_records(argv[:cut]), load_records(argv[cut + 1:])
    problems = output_problems(base, cand)
    if problems:
        fail("refusing to compare:\n  " + "\n  ".join(problems))
    spec = load_spec()
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    regressions = 0
    print("%-12s %-30s %26s %26s %6s  %s" % (
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
        "B won", "verdict"))
    for wl in sorted(set(base) & set(cand)):
        names = sorted(set(base[wl][0]["metrics"]) & set(cand[wl][0]["metrics"]),
                       key=lambda n: list(meta).index(n) if n in meta else 999)
        for name in names:
            a = [r["metrics"][name]["value"] for r in base[wl]]
            b = [r["metrics"][name]["value"] for r in cand[wl]]
            m = meta.get(name, {"better": "lower"})
            lower = m["better"] == "lower"
            aq, bq = quartiles(a), quartiles(b)
            # pairs in run order when both sides ran equally often
            def better(y, x):
                return y < x if lower else y > x
            pairs = list(zip(a, b)) if len(a) == len(b) else \
                [(x, y) for x in a for y in b]
            frac = sum(1 for x, y in pairs if better(y, x)) / len(pairs)
            # a wide spread leaves the metric unresolved, unless every B
            # run beats every A run
            all_better = all(better(y, x) for x in a for y in b)
            verdict = ""
            bound = m.get("bound")
            if bound is not None:
                worse = (bq[1] - aq[1]) if lower else (aq[1] - bq[1])
                spread = max(q[2] - q[0] for q in (aq, bq))
                # the larger of the relative bound and the absolute slack
                allowed = max(bound * abs(aq[1]), ABS_BOUND.get(name, 0.0))
                if worse > allowed:
                    verdict = "REGRESSION"
                    regressions += 1
                elif spread > allowed and not all_better:
                    verdict = "unresolved"
            if not verdict and frac >= 0.9 and abs(bq[1] - aq[1]) > aq[2] - aq[0]:
                verdict = "gain"
            print("%-12s %-30s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] %5.0f%%  %s"
                  % (wl, name, aq[1], aq[0], aq[2], bq[1], bq[0], bq[2],
                     100 * frac, verdict))
    sys.exit(1 if regressions else 0)


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["--compare"]:
        compare(argv[1:])
    elif argv == ["--check"]:
        check()
    else:
        run_workload(argv)


if __name__ == "__main__":
    main()
