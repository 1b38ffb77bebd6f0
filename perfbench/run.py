#!/usr/bin/env python3
"""Benchmark runner for the ytcdn reproduction.

Builds perfbench/ (Release) into .bench_build/ at the root of the checkout,
runs one workload and prints its result. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload scale_stream --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25   # all three, one table
    python3 perfbench/run.py --self-test                            # smallest sizes

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones (see
perfbench/README.md). Exit status is 0 only when the run finished and every
correctness check held.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench" / "ytcdn_perfbench"
WORKLOADS = ("scale_stream", "paper_report", "service_ingest")
DEFAULT_SEED = 0xCDA12011
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(message):
    print(message, file=sys.stderr, flush=True)


def pool_threads():
    return max(1, min(4, os.cpu_count() or 1))


def build():
    """Configures once and builds incrementally; build output goes to stderr."""
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        tree = BUILD / "perfbench"
        if not ((tree / "build.ninja").exists() or (tree / "Makefile").exists()):
            cmd = ["cmake", "-S", str(BENCH), "-B", str(tree), "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        subprocess.run(["cmake", "--build", str(tree), "-j", str(pool_threads())],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def git_provenance():
    if not (ROOT / ".git").exists() or not shutil.which("git"):
        return "none", "unknown"
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True).stdout.strip()
    status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                            capture_output=True, text=True).stdout.strip()
    return sha or "unknown", "dirty" if status else "clean"


def child_env():
    # The pool size is the benchmark's, and no fault plan may leak in.
    env = dict(os.environ)
    for name in ("YTCDN_THREADS", "YTCDN_IO_FAULTS", "YTCDN_STRICT_ARTIFACTS"):
        env.pop(name, None)
    return env


def run_binary(args):
    proc = subprocess.run([str(BINARY)] + args, capture_output=True, text=True,
                          env=child_env(), timeout=RUN_TIMEOUT_S)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"ytcdn_perfbench {args[0]} exited with {proc.returncode}")
    return proc.stdout


def load_expected():
    """Exact digests by (workload, seed, size)."""
    with open(BENCH / "expected.json") as f:
        return json.load(f)["entries"]


def run_workload(workload, seed, seconds, trace, size_args=(), extra=(), expected=()):
    """Runs one workload in its own process; returns the binary's result
    object with "correct" and "problems" added."""
    work = BUILD / "work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--seed", str(seed), "--threads", str(pool_threads()),
              "--work-dir", str(work)] + list(size_args)
    try:
        if workload == "service_ingest":
            spool = work / "spool_src"
            run_binary(["gen-spool", "--spool", str(spool)] + common)
            common += ["--spool", str(spool)]
        out = run_binary(["run", "--workload", workload, "--seconds", str(seconds),
                          "--trace", "1" if trace else "0"] + common + list(extra))
        if not trace:
            setup = run_binary(["setup", "--workload", workload] + common)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if not trace:
        setup_s = json.loads(setup.strip().splitlines()[-1])["setup_s"]
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    problems = list(result["check_failures"])
    prov = result["provenance"]
    for entry in expected:
        if (entry["workload"], entry["seed"], entry["size"]) != (workload, prov["seed"], prov["size"]):
            continue
        for name, want in entry["digests"].items():
            got = result["digests"].get(name)
            if got != want:
                problems.append(f"{name} digest {got} != expected {want}")
    result["problems"] = problems
    result["correct"] = not problems
    return result


def print_result(result, git):
    prov = dict(result["provenance"])
    prov["git_sha"], prov["git_tree"] = git
    name = result["workload"]
    print(f"# {name} provenance " + " ".join(f"{k}={v}" for k, v in prov.items()))
    for digest_name, value in sorted(result["digests"].items()):
        print(f"# {name} digest {digest_name} = {value}")
    attempted, failed = result["attempted"], result["failed"]
    rate = failed / attempted if attempted else 0.0
    print(f"# {name} error_rate = {rate:.6g} ratio ({failed} failed of {attempted} attempted)")
    for metric, m in sorted(result["metrics"].items()):
        print(f"# {name} {metric} = {m['value']:.6g} {m['unit']}")
    for problem in result["problems"]:
        print(f"# {name} CHECK FAILED: {problem}")


def contract_line(results, prefix):
    metrics = {}
    for r in results:
        for metric, m in r["metrics"].items():
            key = f"{r['workload']}.{metric}" if prefix else metric
            metrics[key] = {"value": m["value"], "unit": m["unit"]}
    return json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    })


SMALL = ["--sessions", "20000", "--report-scale", "0.02", "--min-iterations", "1",
         "--setup-repeats", "1"]


def self_test():
    """The benchmark's own checks, at the smallest sizes."""
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    failures = []

    def expect(ok, what):
        print(f"# self-test {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        for trace, names in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            r = run_workload(workload, 1, 0, trace, SMALL)
            want = {m["name"]: m["unit"] for m in names}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            expect(r["correct"], f"{workload} trace={int(trace)} passes its checks {r['problems']}")
            expect(got == want, f"{workload} trace={int(trace)} prints every metric with its unit")

    r = run_workload("service_ingest", 1, 0, False, SMALL, extra=["--corrupt-spool"])
    expect(r["failed"] > 0 and r["failed"] / r["attempted"] > 0,
           f"byte-flipped spool file gives error_rate > 0 ({r['failed']}/{r['attempted']})")
    expect(not r["correct"], "byte-flipped spool file fails the count check")

    good = run_workload("scale_stream", 1, 0, False, SMALL)
    wrong = [{"workload": "scale_stream", "seed": 1, "size": good["provenance"]["size"],
              "digests": {"summary": "0" * 16}}]
    r = run_workload("scale_stream", 1, 0, False, SMALL, expected=wrong)
    expect(not r["correct"], "a digest mismatch fails the correctness check")

    print(f"# self-test {'passed' if not failures else 'FAILED'}")
    return 0 if not failures else 1


def parse_seed(text):
    """Decimal, or hexadecimal with a 0x prefix."""
    return int(text, 16) if text.lower().startswith("0x") else int(text)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=parse_seed, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload or --self-test is required")

    try:
        build()
        if args.self_test:
            return self_test()
        expected = load_expected()
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [run_workload(w, args.seed, args.seconds, args.trace == 1,
                                expected=expected) for w in workloads]
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1
    git = git_provenance()
    for r in results:
        print_result(r, git)
    print(contract_line(results, prefix=args.workload == "all"))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
