"""Record the training references the correctness check reads.

For each training workload and each seed in ``--seeds``, build the
trainer exactly as a benchmark run does, train ``check_step`` iterations
and record the loss there and the rollbacks so far.  ``reference.json``
keeps, per workload, the range the checked loss must fall in (the spread
across the recorded seeds, widened by half that spread on each side) and
the exact per-seed values behind the ``bitwise`` flag.

    python3 e2ebench/calibrate.py --seeds 0-19

Run from the repository root.  The environment is pinned as in
``run.py`` before numpy is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import run  # noqa: E402

os.environ.update({k: v for k, v in run.pinned_env().items()
                   if k != "PYTHONPATH"})

import workloads as wls  # noqa: E402
from repro.exec.pool import configure_default_pool  # noqa: E402


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def reference_for(wl: "wls.TrainWorkload", seeds, workdir: str) -> dict:
    configure_default_pool(wls.pool_workers(wl))
    per_seed = {}
    for seed in seeds:
        tr = wls.TrainRun(wl, seed, workdir)
        try:
            for _ in range(wl.check_step):
                tr.step()
            per_seed[str(seed)] = {"loss": tr.losses[-1].hex(),
                                   "rollbacks": tr.rollbacks}
        finally:
            tr.close()
        print(f"  seed {seed}: loss {tr.losses[-1]:.6f} "
              f"rollbacks {tr.rollbacks}", flush=True)
    losses = [float.fromhex(v["loss"]) for v in per_seed.values()]
    spread = max(losses) - min(losses)
    return {
        "check_step": wl.check_step,
        "loss_min": min(losses),
        "loss_max": max(losses),
        "loss_lo": min(losses) - spread / 2,
        "loss_hi": max(losses) + spread / 2,
        "seeds": per_seed,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", default="0-19")
    ap.add_argument("--out", default=os.path.join(HERE, "reference.json"))
    args = ap.parse_args()
    seeds = seed_list(args.seeds)
    refs = {}
    os.makedirs(run.OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="calibrate-", dir=run.OUT)
    try:
        for name, wl in wls.WORKLOADS.items():
            if isinstance(wl, wls.TrainWorkload):
                print(name, flush=True)
                refs[name] = reference_for(wl, seeds, workdir)
    finally:
        os.rmdir(workdir)
    with open(args.out, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
