#!/usr/bin/env python3
"""Same-host A/B performance gate: the working tree against a base revision.

    python3 tools/perf_ab.py <base-revision>

It checks <base-revision> out with `git worktree` under .bench_build/ and
reads the benchmark from BENCHMARK.json: its command, workloads,
run_seconds and the `better` / `bound` of every end-to-end metric. For
each workload it runs PAIRS interleaved pairs of `<command> --workload <w>
--seconds <run_seconds> --trace 0`, one run in the base checkout and one in
the working tree (HEAD), alternating which side goes first, and reads each
run's last JSON line.

The gate fails when
  * the median over pairs of the HEAD/base ratio of an end-to-end metric is
    worse than that metric's bound on any workload (for a `lower` metric the
    ratio exceeds 1 + bound, for a `higher` one it falls below 1 - bound), or
  * a HEAD run is not `correct`, or HEAD's failed/attempted share over a
    workload's runs is larger than base's.

It prints one markdown table (workload x metric: base median, HEAD median,
median ratio, bound, verdict) and exits 0 when the gate passes, 1 when it
fails and 2 when a run cannot be made. The worktree is removed on every
exit path; its path is fixed, so run one gate at a time per checkout.
docs/performance.md argues the pair count.
"""

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASE_TREE = os.path.join(ROOT, ".bench_build", "perf_ab_base")
# Interleaved base/HEAD pairs per workload: an even count runs both orders
# equally often, and the median of four drops the highest and lowest pair.
# At run_seconds = 30 over four workloads a gate run takes about 17 minutes
# on a 4-vCPU container, both builds included (docs/performance.md).
PAIRS = 4


class RunError(Exception):
    pass


def last_json_line(stdout):
    """The result object a benchmark run prints as its last JSON line."""
    for line in reversed(stdout.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise RunError("the run printed no JSON result line")


def worsening(metric, ratio):
    """How much worse HEAD is than base, as a fraction of base."""
    return ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio


def ratio_of(head, base):
    if base == 0:
        return 1.0 if head == 0 else float("inf")
    return head / base


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def verdict(spec, results):
    """Applies the gate to `results`, {workload: [(base, head), ...]} of
    parsed result lines. Returns (passed, rows), one row per workload and
    metric plus one failed-share row per workload."""
    passed = True
    rows = []
    for workload, pairs in results.items():
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = [b["metrics"][name]["value"] for b, _ in pairs]
            head = [h["metrics"][name]["value"] for _, h in pairs]
            ratio = statistics.median(ratio_of(h, b) for b, h in zip(base, head))
            ok = worsening(metric, ratio) <= metric["bound"]
            passed &= ok
            rows.append((workload, name, statistics.median(base), statistics.median(head),
                         ratio, "%s %g" % (metric["better"], metric["bound"]), ok))
        base_share = failed_share([b for b, _ in pairs])
        head_share = failed_share([h for _, h in pairs])
        ok = all(h["correct"] for _, h in pairs) and head_share <= base_share
        passed &= ok
        rows.append((workload, "failed/attempted", base_share, head_share, None,
                     "<= base, correct", ok))
    return passed, rows


def fmt(value):
    if value is None:
        return "-"
    if value != 0 and (abs(value) >= 1e4 or abs(value) < 1e-3):
        return "%.4g" % value
    return "%.4f" % value if abs(value) < 10 else "%.1f" % value


def table(rows):
    lines = ["| workload | metric | base median | HEAD median | median ratio | bound | verdict |",
             "|---|---|---|---|---|---|---|"]
    for workload, name, base, head, ratio, bound, ok in rows:
        lines.append("| %s | %s | %s | %s | %s | %s | %s |" % (
            workload, name, fmt(base), fmt(head), fmt(ratio), bound, "pass" if ok else "FAIL"))
    return "\n".join(lines)


def run(tree, command, workload, seconds):
    argv = command + ["--workload", workload, "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if done.returncode != 0:
        raise RunError("%s in %s exited with %d:\n%s" % (
            " ".join(argv), tree, done.returncode, done.stderr.strip()))
    return last_json_line(done.stdout)


def git(*args):
    subprocess.run(["git", "-C", ROOT] + list(args), check=True, stdout=subprocess.DEVNULL)


def remove_base_tree():
    subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", BASE_TREE],
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    shutil.rmtree(BASE_TREE, ignore_errors=True)
    git("worktree", "prune")


def measure(spec):
    command = spec["command"]
    seconds = spec["run_seconds"]
    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        results[workload] = []
        for i in range(PAIRS):
            order = [("base", BASE_TREE), ("HEAD", ROOT)]
            if i % 2:
                order.reverse()
            pair = {}
            for side, tree in order:
                print("perf_ab: %s pair %d/%d %s" % (workload, i + 1, PAIRS, side),
                      file=sys.stderr, flush=True)
                pair[side] = run(tree, command, workload, seconds)
            results[workload].append((pair["base"], pair["HEAD"]))
    return results


def main():
    if len(sys.argv) != 2:
        print("usage: python3 tools/perf_ab.py <base-revision>", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    # SIGTERM unwinds like Ctrl-C, so the worktree is removed either way.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))
    remove_base_tree()
    try:
        git("worktree", "add", "--detach", BASE_TREE, sys.argv[1])
        results = measure(spec)
    except (RunError, OSError, subprocess.CalledProcessError) as e:
        print("perf_ab: %s" % e, file=sys.stderr)
        return 2
    finally:
        remove_base_tree()
    passed, rows = verdict(spec, results)
    print(table(rows))
    print("\nperf_ab: %s (%d pairs per workload, median HEAD/base ratio against the "
          "BENCHMARK.json bounds)" % ("PASS" if passed else "FAIL", PAIRS))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
