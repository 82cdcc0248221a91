"""Smoke test of the benchmark at tiny sizes.

    python3 e2ebench/smoke.py

Run from the repository root; exits 0 when every check passes.  It
shrinks every workload (``E2EBENCH_SMOKE=1``), records training
references for the tiny shapes, then checks that:

* ``run.py`` prints, for every workload with ``--trace 0`` and ``1``, a
  last line with exactly the four result keys, every metric that
  ``BENCHMARK.json`` names with its unit, and a correct verdict;
* the correctness checks are live: a wrong loss reference, a wrong
  bitwise reference and a corrupted serving output all fail them;
* spill, checkpoint and run directories are gone after the runs;
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

os.environ["E2EBENCH_SMOKE"] = "1"
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402  (pins the environment)
import run  # noqa: E402
import workloads as wls  # noqa: E402

ROOT = os.getcwd()
SEED = 3
SECONDS = "2"


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"smoke: FAILED: {what}")
    print(f"ok  {what}", flush=True)


def leftovers() -> list:
    if not os.path.isdir(run.OUT):
        return []
    return [d for d in os.listdir(run.OUT)
            if os.path.isdir(os.path.join(run.OUT, d))]


def record_references(workdir: str) -> None:
    refs = {
        name: calibrate.reference_for(wl, [SEED, SEED + 1], workdir)
        for name, wl in wls.WORKLOADS.items()
        if isinstance(wl, wls.TrainWorkload)
    }
    with open(wls.REFERENCE, "w") as f:
        json.dump(refs, f)


def check_runs(spec: dict) -> None:
    env = dict(os.environ)
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", w["name"], "--seed", str(SEED),
                 "--seconds", SECONDS, "--trace", str(trace)],
                env=env, cwd=ROOT, capture_output=True, text=True,
                timeout=180,
            )
            what = f"{w['name']} --trace {trace}"
            check(proc.returncode == 0, f"{what} exits 0 "
                  f"{proc.stderr[-2000:] if proc.returncode else ''}")
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(line) == {"correct", "attempted", "failed", "metrics"},
                  f"{what} prints the four result keys")
            check(line["correct"] is True and line["failed"] == 0
                  and line["attempted"] >= 1, f"{what} is correct")
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            got = line["metrics"]
            check(set(got) == {m["name"] for m in wanted},
                  f"{what} reports exactly the named metrics")
            check(all(got[m["name"]]["unit"] == m["unit"]
                      and math.isfinite(got[m["name"]]["value"])
                      for m in wanted), f"{what} gives every unit, finite")
            if trace:
                tag = f"{w['name']}-seed{SEED}-trace1.trace.json"
                with open(os.path.join(run.OUT, tag)) as f:
                    events = json.load(f)["traceEvents"]
                check(len(events) > 0, f"{what} writes a Chrome trace")


def check_live(workdir: str) -> None:
    """Each check rejects a wrong reference or a wrong output."""
    name = "train-superoffload"
    wl = wls.WORKLOADS[name]
    with open(wls.REFERENCE) as f:
        ref = json.load(f)[name]
    tr = wls.TrainRun(wl, SEED, workdir)
    try:
        for _ in range(wl.check_step):
            tr.step()
    finally:
        tr.close()
    good = wls.check_train(tr.losses, wl.check_step, tr.rollbacks, ref, SEED)
    check(good["ok"] and good["bitwise"] is True,
          "training check passes on the right reference")
    width = ref["loss_hi"] - ref["loss_lo"] + 1.0
    shifted = dict(ref, loss_lo=ref["loss_lo"] + width,
                   loss_hi=ref["loss_hi"] + width)
    check(not wls.check_train(tr.losses, wl.check_step, tr.rollbacks,
                              shifted, SEED)["ok"],
          "training check fails on a wrong loss range")
    wrong = dict(ref, seeds={str(SEED): {
        "loss": (tr.losses[wl.check_step - 1] + 1e-3).hex(),
        "rollbacks": tr.rollbacks}})
    check(wls.check_train(tr.losses, wl.check_step, tr.rollbacks, wrong,
                          SEED)["bitwise"] is False,
          "bitwise flag is false on a wrong per-seed reference")
    check(not wls.check_train(tr.losses[: wl.check_step - 1] + [math.nan],
                              wl.check_step, tr.rollbacks, ref, SEED)["ok"],
          "training check fails on a non-finite loss")

    sw = wls.WORKLOADS["serve-poisson"]
    requests = wls.make_requests(sw, SEED, 0.5)[: sw.solo_checks]
    model = wls.TinyTransformer(sw.spec, seed=SEED)
    with wls.InferenceEngine(model, quantized=True) as engine:
        right = [wls.generate(engine, r.prompt, r.budget, session=i)
                 for i, r in enumerate(requests)]
    check(wls.check_serving(sw, SEED, requests, right)["ok"],
          "serving check passes on solo outputs")
    corrupt = [list(g) for g in right]
    corrupt[0][-1] = (corrupt[0][-1] + 1) % sw.spec.vocab
    check(not wls.check_serving(sw, SEED, requests, corrupt)["ok"],
          "serving check fails on a changed token")
    short = [list(g) for g in right]
    short[1] = short[1][:-1]
    check(not wls.check_serving(sw, SEED, requests, short)["ok"],
          "serving check fails on a missed token budget")


def check_bare_directory() -> None:
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.OUT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "e2ebench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "e2ebench/run.py", "--workload",
             "serve-poisson", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "a bare directory exits non-zero without a result")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    os.makedirs(run.OUT, exist_ok=True)
    before = set(leftovers())
    workdir = tempfile.mkdtemp(prefix="smoke-", dir=run.OUT)
    try:
        record_references(workdir)
        check_live(workdir)
        check(not os.listdir(workdir),
              "trainer spill and checkpoint dirs are removed on close")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_runs(spec)
    check(set(leftovers()) <= before, "runs leave no directories behind")
    check_bare_directory()
    os.remove(wls.REFERENCE)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
