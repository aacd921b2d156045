#!/usr/bin/env python3
"""Repository benchmark: builds the measuring program and runs one workload.

    python3 perfbench/run.py --workload <name> [--seed <n>] --seconds <s> --trace <0|1>

Run it from the repository root. It configures and builds perfbench/ (the
simulator libraries from src/ plus the measuring program in perfbench/cpp)
as a Release build under .bench_build/, runs the workload, writes a
fingerprinted result document to .bench_build/results/, prints a markdown
summary built from the result documents found there, and prints one JSON
result line last.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
(layer probes plus a run with an obs::Collector attached); the traced run
also writes its spans next to the result document.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
# Seed 1 is the default; 7919 is held out for checking claims made after
# tuning on other seeds.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

WORKLOADS = ["solve_n128", "tiled_n256_p32", "allpairs_n128_k16", "reach_n256_p32"]
END_TO_END = ["setup_s", "latency_ms_p50", "latency_ms_tail", "dest_per_s", "simd_steps",
              "peak_rss_mb"]


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=log, stderr=subprocess.STDOUT).returncode:
                fail("configure failed, see " + log_path, 1)
        jobs = str(min(4, os.cpu_count() or 1))
        step = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
        if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
            fail("build failed, see " + log_path, 1)
    with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
        if "CMAKE_BUILD_TYPE:STRING=Release" not in cache.read():
            fail("the benchmark build is not a Release build; remove " + BUILD, 1)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_revision():
    """The git sha when the checkout is a repository, else a digest of the
    sources the benchmark builds."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0:
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted(glob.glob(os.path.join(ROOT, top, "**", "*"), recursive=True)):
            if os.path.isfile(path):
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def fmt(value):
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return "%.0f" % value
    return "%.4g" % value


def latest_documents():
    """The newest result document per (workload, trace)."""
    found = {}
    for path in glob.glob(os.path.join(RESULTS, "*.json")):
        if os.path.basename(path).startswith("spans-"):
            continue
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, ValueError):
            continue
        key = (doc.get("workload"), bool(doc.get("trace")))
        if key not in found or os.path.getmtime(path) > found[key][0]:
            found[key] = (os.path.getmtime(path), doc)
    return {key: doc for key, (_, doc) in found.items()}


def summary(docs):
    """Markdown tables built from the result documents."""
    lines = []
    plain = [w for w in WORKLOADS if (w, False) in docs]
    traced = [w for w in WORKLOADS if (w, True) in docs]
    if plain:
        lines += ["## End to end (tracing off)", "",
                  "| workload | " + " | ".join(END_TO_END) +
                  " | failed_frac | deep_share | host_relative |",
                  "|---" * (len(END_TO_END) + 4) + "|"]
        for w in plain:
            doc = docs[(w, False)]
            m, d = doc["metrics"], doc["detail"]
            cells = [fmt(m[name]["value"]) + " " + m[name]["unit"] for name in END_TO_END]
            cells[2] += " (p%d of %d)" % (d["latency_tail_percentile"], d["latency_samples"])
            relative = docs.get((w, True), {}).get("metrics", {}).get("baseline.host_relative")
            cells.append(fmt(doc["failed"] / doc["attempted"]))
            cells.append(fmt(d["deep_share"]))
            cells.append(fmt(relative["value"]) if relative else "-")
            lines.append("| " + w + " | " + " | ".join(cells) + " |")
        lines.append("")
    if traced:
        names = sorted({n for w in traced for n in docs[(w, True)]["metrics"]})
        lines += ["## Per layer (traced run)", "",
                  "| metric | unit | " + " | ".join(traced) + " |",
                  "|---" * (len(traced) + 2) + "|"]
        for name in names:
            row = [docs[(w, True)]["metrics"].get(name) for w in traced]
            unit = next(r["unit"] for r in row if r)
            lines.append("| %s | %s | %s |" % (name, unit, " | ".join(
                fmt(r["value"]) if r else "-" for r in row)))
        lines += ["", "## Scaling ratios (n = 128 all-pairs, bit-plane backend)", "",
                  "| from run of | workers 1 / 2 (k = 16) | batch width 1 / 16 (2 workers) |",
                  "|---|---|---|"]
        for w in traced:
            m = docs[(w, True)]["metrics"]
            lines.append("| %s | %sx | %sx |" % (w, fmt(m["mcp.allpairs.worker_speedup"]["value"]),
                                                 fmt(m["mcp.batch.speedup_k16"]["value"])))
        lines.append("")
    any_doc = next(iter(docs.values()), None)
    if any_doc:
        fp = any_doc["fingerprint"]
        lines.append("Host: %s, %d logical cores, SIMD arm %s; %s, %s build; source %s." % (
            fp["cpu_model"], fp["logical_cores"], fp["simd"], fp["compiler"], fp["build_type"],
            fp["source"]))
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="input seed (default %d; %d is held out)" % (DEFAULT_SEED, HELD_OUT_SEED))
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    os.makedirs(RESULTS, exist_ok=True)
    stem = "%s-trace%s-seed%d" % (args.workload, args.trace, args.seed)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        command += ["--spans", os.path.join(RESULTS, "spans-" + stem + ".json")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the measuring program did not finish in %d s" % RUN_TIMEOUT_S, 1)
    if run.returncode != 0:
        fail("the measuring program exited with code %d" % run.returncode, 1)
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("the measuring program printed no result", 1)
    doc = json.loads(lines[-1])

    build_info = doc.pop("build")
    doc["fingerprint"] = {
        "cpu_model": cpu_model(),
        "logical_cores": os.cpu_count() or 0,
        "simd": build_info["simd"],
        "compiler": build_info["compiler"],
        "build_type": build_info["build_type"],
        "source": source_revision(),
        "seed": args.seed,
    }
    with open(os.path.join(RESULTS, stem + ".json"), "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")

    print(summary(latest_documents()))
    for text in doc["mismatches"]:
        print("MISMATCH " + text)
    result = {key: doc[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
