#!/usr/bin/env python3
"""End-to-end benchmark runner (see bench/e2e/README.md).

One run:
    python3 bench/e2e/run.py --workload sweep_grid --seed 1 [--seconds S] [--trace 1]

builds bench_e2e into build/e2e/ (a standalone CMake project that pulls in
the repository root), clears every inherited EFFICSENSE_* variable, sets the
knob table from bench/e2e/workloads.json, runs the workload with its frozen
sizes from the same file in a fresh working directory under build/e2e/runs/,
checks its outputs and prints a machine fingerprint, every metric by name
with its unit, and as the last line one JSON object {"correct", "attempted",
"failed", "metrics"}. A failed output check exits 1 without that line.

Repeats (calibration and bound setting):
    python3 bench/e2e/run.py --workload all --repeats 10 [--trace 1]

runs every named workload N times with seeds seed..seed+N-1, alternating the
workload order, and prints each metric's median, quartiles and spread
(IQR / median) next to the bound in BENCHMARK.json.

    python3 bench/e2e/run.py --self-test
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build", "e2e")
BINARY = os.path.join(BUILD, "bench_e2e")
RUN_TIMEOUT_S = 170


def die(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def tool_env():
    """Environment for cmake and the benchmark: no inherited EFFICSENSE_*
    knobs, temporary files kept inside the build tree."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("EFFICSENSE_")}
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die("the repository sources are missing (no %s at the checkout "
                "root); bench_e2e cannot be built" % needed)
    os.makedirs(BUILD, exist_ok=True)
    env = tool_env()
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "bench_e2e", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            die("build step failed: " + " ".join(cmd))


def cpu_fingerprint():
    model, avx2 = "unknown", False
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name") and model == "unknown":
                    model = line.split(":", 1)[1].strip()
                elif line.startswith("flags"):
                    avx2 = avx2 or " avx2" in line
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "avx2": avx2}


def param_text(value):
    return value if isinstance(value, str) else json.dumps(value)


def run_once(spec, bench, name, seed, seconds, trace, echo):
    """Run one workload; return the checked result dict (with 'info')."""
    workload = spec["workloads"][name]
    knobs = spec["env"]
    env = tool_env()
    env.update(knobs)
    params = workload["params"]

    workdir = os.path.join(BUILD, "runs", "%s-%d-%d-%d" % (
        name, seed, os.getpid(), time.monotonic_ns()))
    os.makedirs(workdir)
    cmd = [BINARY, "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    for key, value in params.items():
        cmd += ["--param", "%s=%s" % (key, param_text(value))]
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s did not finish within %d s" % (name, RUN_TIMEOUT_S))
    finally:
        trace_file = os.path.join(workdir, "trace.json")
        if os.path.isfile(trace_file):
            os.makedirs(os.path.join(BUILD, "trace"), exist_ok=True)
            shutil.copyfile(trace_file,
                            os.path.join(BUILD, "trace", name + ".trace.json"))
        shutil.rmtree(workdir, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        die("%s failed (exit %d)" % (name, proc.returncode))
    if echo:
        for line in lines[:-1]:
            print(line)
    result = json.loads(lines[-1])
    if result.get("correct") is not True:
        die("%s reported incorrect outputs" % name)

    # The metric set must be exactly the one BENCHMARK.json declares.
    declared = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        die("%s printed metrics %s, BENCHMARK.json declares %s"
            % (name, sorted(got.items()), sorted(want.items())))

    # Pinned output digest of the default seed.
    pinned = workload.get("digest")
    if pinned and seed == spec["default_seed"]:
        actual = result["info"].get("digest")
        if actual != pinned:
            die("%s seed %d output digest %s != pinned %s"
                % (name, seed, actual, pinned))

    result["fingerprint"] = dict(cpu_fingerprint(), **result.get("build", {}),
                                 knobs=knobs, seed=seed, workload=name,
                                 seconds=seconds, trace=trace, params=params)
    return result


def contract_line(result):
    return json.dumps({
        "correct": result["correct"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": result["metrics"],
    })


def summarize(runs, bench, trace):
    """Per workload and metric: median, quartiles, spread = IQR / median."""
    bounds = {m["name"]: m.get("bound") for m in
              bench["per_layer" if trace else "end_to_end"]}
    summary = {}
    for name, results in runs.items():
        rows = {}
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            rows[metric] = {"median": med, "q1": q1, "q3": q3,
                            "spread": spread, "bound": bounds.get(metric),
                            "values": values}
        summary[name] = rows
    for name, rows in summary.items():
        print("\n%s (%d runs)" % (name, len(runs[name])))
        print("  %-28s %14s %14s %14s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for metric, s in rows.items():
            flag = ""
            if s["bound"] is not None and metric != "setup_s" and \
                    s["spread"] > s["bound"] / 3:
                flag = "  > bound/3"
            print("  %-28s %14.6g %14.6g %14.6g %8.4f %6s%s" % (
                metric, s["median"], s["q1"], s["q3"], s["spread"],
                "-" if s["bound"] is None else s["bound"], flag))
    return summary


def main():
    # SIGTERM raises SystemExit, so subprocess.run kills and reaps the build
    # step or bench_e2e it is waiting on instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    bench = load_json(bench_path) if os.path.isfile(bench_path) else None
    spec = load_json(os.path.join(HERE, "workloads.json"))

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None,
                        help="workload name, comma list, or 'all' (repeats)")
    parser.add_argument("--seed", type=int, default=spec["default_seed"])
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"] if bench else 15)
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=["0", "1"])
    parser.add_argument("--repeats", type=int, default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    build()
    if args.self_test:
        sys.exit(subprocess.run([BINARY, "--self-test"], env=tool_env()).returncode)
    if bench is None:
        die("BENCHMARK.json not found at the checkout root")
    if args.workload is None:
        die("--workload is required")

    names = list(spec["workloads"]) if args.workload == "all" \
        else args.workload.split(",")
    for name in names:
        if name not in spec["workloads"]:
            die("unknown workload %s (known: %s)"
                % (name, ", ".join(spec["workloads"])))
    trace = args.trace == "1"

    if args.repeats <= 0:
        if len(names) != 1:
            die("one workload per run (use --repeats for several)")
        result = run_once(spec, bench, names[0], args.seed, args.seconds, trace,
                          echo=True)
        print("fingerprint: " + json.dumps(result["fingerprint"], sort_keys=True))
        for metric, m in result["metrics"].items():
            print("%s = %.6g %s" % (metric, m["value"], m["unit"]))
        print(contract_line(result), flush=True)
        return

    runs = {name: [] for name in names}
    for rep in range(args.repeats):
        order = names if rep % 2 == 0 else list(reversed(names))
        for name in order:
            seed = args.seed + rep
            started = time.monotonic()
            result = run_once(spec, bench, name, seed, args.seconds, trace,
                              echo=False)
            runs[name].append(result)
            print("[%d/%d] %s seed %d: %.1f s  %s  %s" % (
                rep + 1, args.repeats, name, seed, time.monotonic() - started,
                "  ".join("%s=%.6g" % (k, v["value"])
                          for k, v in result["metrics"].items()),
                json.dumps(result.get("info", {}), sort_keys=True)), flush=True)
    print("fingerprint: " + json.dumps(
        runs[names[0]][0]["fingerprint"], sort_keys=True))
    summary = summarize(runs, bench, trace)
    print(json.dumps({"summary": summary}, sort_keys=True))


if __name__ == "__main__":
    main()
