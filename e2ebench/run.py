"""The repository benchmark: one workload, one seed, one JSON line.

    python3 e2ebench/run.py --workload train-superoffload --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root.  Each call starts the workload in a fresh
child process (``child.py``) with a pinned environment: ``REPRO_TUNE=0``
so no host tuning profile leaks in and one BLAS thread; ``child.py`` sets
the kernel pool's worker count each workload names.

``--trace 0`` measures for ``--seconds`` with nothing wrapped and prints
the end-to-end metrics named in ``BENCHMARK.json``.  ``--trace 1`` runs
the workload twice for half the time each, untraced and then traced (span
wrappers installed at runtime), prints the per-layer metrics, and writes
a Chrome trace of the benchmark's spans.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it stamps the environment.  Everything the
run writes goes under ``e2ebench/out/``: the full result (with the
environment stamp) and the Chrome trace.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT = os.path.join(HERE, "out")
#: Wall-clock budget for one call, children included.
BUDGET_S = 170.0


def fail(msg: str, code: int = 1) -> int:
    print(f"e2ebench: {msg}", file=sys.stderr)
    return code


def source_stamp() -> Dict[str, Optional[str]]:
    """The git commit when the checkout is a repository, and a digest of
    every file under ``src/`` either way."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def pinned_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.update({
        "REPRO_TUNE": "0",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
    })
    return env


def run_child(args: List[str], env: Dict[str, str], deadline: float) -> dict:
    """Run ``child.py`` to completion and parse its last stdout line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("time budget exhausted before the run started")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), *args],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("child printed nothing")
    return json.loads(lines[-1])


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        return fail("no src/repro under the current directory; run from the "
                    "repository root", 2)
    if args.seconds <= 0:
        return fail("--seconds must be positive", 2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}", 2)
    env = pinned_env()
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--workdir", workdir]
    try:
        if args.trace:
            half = f"{args.seconds / 2:.6g}"
            plain = run_child(common + ["--seconds", half, "--mode", "plain"],
                              env, deadline)
            result = run_child(
                common + ["--seconds", half, "--mode", "traced",
                          "--trace-out",
                          os.path.join(OUT, f"{tag}.trace.json")],
                env, deadline)
            result["metrics"]["trace.overhead_frac"] = (
                result["primary_ms"] / plain["primary_ms"] - 1.0)
            # Generator lateness describes the measured (untraced) run.
            result["metrics"]["loadgen.late_ms_p99"] = \
                plain["metrics"].get("loadgen.late_ms_p99", 0.0)
            correct = bool(plain["correct"] and result["correct"]
                           and result["sums_ok"])
            attempted = plain["attempted"] + result["attempted"]
            failed = plain["failed"] + result["failed"]
            result["untraced"] = plain
        else:
            result = run_child(
                common + ["--seconds", f"{args.seconds:.6g}", "--mode",
                          "plain"], env, deadline)
            correct = bool(result["correct"])
            attempted, failed = result["attempted"], result["failed"]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        return fail(f"workload did not report {missing}")
    unmeasured = [m["name"] for m in wanted
                  if not math.isfinite(result["metrics"][m["name"]])]
    if unmeasured:
        return fail(f"workload measured no samples for {unmeasured}")
    metrics = {
        m["name"]: {"value": float(result["metrics"][m["name"]]),
                    "unit": m["unit"]}
        for m in wanted
    }
    stamp = dict(result["env"])
    stamp.update(source_stamp())
    stamp.update({"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "samples": result["samples"],
                  "check": result["check"],
                  "detail": {k: v for k, v in result["metrics"].items()
                             if k not in metrics}})
    line = {"correct": correct, "attempted": int(attempted),
            "failed": int(failed), "metrics": metrics}
    with open(os.path.join(OUT, f"{tag}.json"), "w") as f:
        json.dump({"stamp": stamp, "result": line, "raw": result}, f,
                  indent=1)
    print("# " + json.dumps({"stamp": stamp}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
