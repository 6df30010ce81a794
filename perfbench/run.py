#!/usr/bin/env python3
"""Build and run the papisim repo benchmark (see perfbench/NOTES.md).

    python3 perfbench/run.py --workload gemm_serial --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The benchmark binary is built from the
checkout's sources into .bench_build/ (CMake, Release), then run once; its
last line of standard output is the result object.  Build output goes to
standard error.  --trace 1 also writes the span ledger to .bench_out/.

--self-test runs every workload for one iteration twice: once as is (the
correctness gate must pass) and once against deliberately perturbed
references (the gate must fail).
"""
import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

WORKLOADS = ["gemm_serial", "gemm_parallel", "app_profile"]
HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configure (once) and build the benchmark binary; returns its path or None."""
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (out / "Makefile").exists():  # written only by a successful configure
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return out / "perfbench"


def provenance_commit():
    """The git commit when the checkout is a repository, else a hash of the
    sources the benchmark was built from."""
    try:
        if not (ROOT / ".git").exists():
            raise OSError("not a git checkout")
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")) + [ROOT / "CMakeLists.txt"]:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def run_binary(binary, args, capture=False):
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    cmd = [str(binary)] + args + ["--commit", provenance_commit(),
                                  "--out-dir", str(out_dir)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                              capture_output=capture)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return None


def self_test(binary):
    import json
    ok = True
    for w in WORKLOADS:
        for perturb in (False, True):
            args = ["--workload", w, "--seed", "1", "--seconds", "1",
                    "--trace", "0", "--max-iterations", "1"]
            if perturb:
                args.append("--perturb-reference")
            r = run_binary(binary, args, capture=True)
            if r is None or r.returncode:
                print("FAIL %s perturb=%s: benchmark binary failed" % (w, perturb))
                ok = False
                continue
            res = json.loads(r.stdout.strip().splitlines()[-1])
            want_correct = not perturb
            passed = (res["correct"] == want_correct and
                      (res["failed"] == 0) == want_correct and
                      res["attempted"] > 0)
            ok = ok and passed
            print("%s %s perturb=%s: correct=%s attempted=%d failed=%d" %
                  ("PASS" if passed else "FAIL", w, perturb, res["correct"],
                   res["attempted"], res["failed"]))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if a.self_test:
        return self_test(binary)
    r = run_binary(binary, ["--workload", a.workload, "--seed", str(a.seed),
                            "--seconds", str(a.seconds), "--trace", str(a.trace)])
    return 1 if r is None else r.returncode


if __name__ == "__main__":
    sys.exit(main())
