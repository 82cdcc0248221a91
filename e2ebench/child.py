"""Run one workload once, in this fresh process, and print its figures.

``run.py`` starts this file with a pinned environment (``REPRO_TUNE=0``,
BLAS and kernel-pool thread counts set) and reads the JSON object it
prints last.  ``--mode plain`` measures end to end with nothing wrapped;
``--mode traced`` installs the span wrappers first and reports the
per-layer breakdown.

    python3 e2ebench/child.py --workload train-superoffload --seed 1 \\
        --seconds 10 --mode plain --workdir e2ebench/out
"""

from __future__ import annotations

import argparse
import bisect
import ctypes
import glob
import json
import os
import platform
import resource
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads as wls  # noqa: E402
from repro.exec.pool import configure_default_pool  # noqa: E402
from repro.telemetry import (  # noqa: E402
    NULL_TELEMETRY,
    MetricsRegistry,
    NullTracer,
    Telemetry,
)


def blas_threads() -> Optional[int]:
    """Threads OpenBLAS will use, read from the library numpy loaded."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> Dict[str, object]:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "repro_tune": os.environ.get("REPRO_TUNE"),
    }


def steal_jiffies() -> Optional[tuple]:
    """(steal, total) CPU jiffies from ``/proc/stat``: time the host's
    hypervisor ran something else while this machine wanted the CPU."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def counter_total(registry: MetricsRegistry, name: str) -> float:
    return sum(inst.value for kind, inst in registry
               if kind == "counter" and inst.name == name)


def histograms(registry: MetricsRegistry, name: str) -> list:
    return [inst for kind, inst in registry
            if kind == "histogram" and inst.name == name]


class Trace:
    """The traced run's state: span recorder plus counter baselines."""

    COUNTERS = ("collective_bytes_total", "collective_calls_total",
                "spill_bytes_read", "spill_bytes_written",
                "kv_pages_evicted")

    def __init__(self) -> None:
        self.recorder = tracing.Recorder()
        self.metrics = MetricsRegistry()
        self.telemetry = Telemetry(tracer=NullTracer(), metrics=self.metrics)
        self.base: Dict[str, float] = {}
        self.kv_peak = 0
        self.recorder.probes["engine_step"] = self._engine_probe
        self.recorder.install()

    def _engine_probe(self, span, args, result) -> None:
        engine, items = args[0], args[1]
        span.attrs["sessions"] = len(items)
        span.attrs["sids"] = [sid for sid, _ in items]
        span.attrs["tokens"] = int(sum(len(ids) for _, ids in items))
        self.kv_peak = max(self.kv_peak, engine.cache.resident_pages)

    def start(self) -> None:
        self.recorder.clear()
        self.kv_peak = 0
        self.base = {c: counter_total(self.metrics, c) for c in self.COUNTERS}

    def root(self):
        return self.recorder.span("bench", "iteration")

    def delta(self, name: str) -> float:
        return counter_total(self.metrics, name) - self.base[name]

    def pool_figures(self, steps: int) -> Dict[str, float]:
        busy = sum(h.total for h in histograms(self.metrics, "exec_busy_ms"))
        waits = [h.percentile(95) for h in
                 histograms(self.metrics, "exec_queue_wait_ms")
                 if h.count]
        return {
            "exec.busy_ms_per_step": busy / steps,
            "exec.queue_wait_ms_p95": max(waits) if waits else 0.0,
        }


#: Per-layer metrics of layers only training runs (0 on serving) and
#: only serving runs (0 on training), so every run reports all of them.
TRAINING_ONLY = (
    "data.batch_ms_per_step", "numeric.fwd_bwd_ms_per_step",
    "numeric.fwd_bwd_calls_per_step", "optim.adam_ms_per_step",
    "optim.rollback_ms_per_step", "optim.cast_ms_per_step",
    "optim.validate_ms_per_step", "core.self_ms_per_step",
    "core.rollbacks", "core.speculation_hit_ratio",
    "parallel.zero_step_ms_per_step", "parallel.collective_bytes_per_step",
    "parallel.collective_calls_per_step",
    "tensors.spill_bytes_read_per_step",
    "tensors.spill_bytes_written_per_step", "tensors.spill_wait_ms_per_step",
    "training.ckpt_stall_ms_per_save", "training.ckpt_commit_wait_ms",
    "training.self_ms_per_step",
)
SERVING_ONLY = (
    "serving.engine_step_ms_p50", "exec.qmatmul_ms_per_step",
    "tensors.paged_attention_ms_per_step", "serving.batch_tokens_mean",
    "serving.batch_sessions_mean", "serving.scheduler_self_ms_per_step",
    "serving.queue_wait_ms_p50", "serving.queue_wait_ms_p95",
    "serving.loop_idle_frac", "tensors.kv_pages_resident_peak",
    "tensors.kv_pages_evicted",
)

#: Layers whose self time each workload exists to exercise.
DOMINANT = {
    "train-superoffload": ("core", "optim"),
    "train-zero-offload": ("parallel", "tensors", "training"),
    "serve-poisson": ("serving", "exec", "tensors"),
}


def per_layer_training(name: str, res: dict, trace: Trace) -> tuple:
    spans = trace.recorder.spans
    roots = [s for s in spans if s.name == "bench.iteration"]
    bd = tracing.layer_breakdown(spans, roots, "unaccounted")
    n = len(roots)
    span_s, calls, self_by = bd["span_s"], bd["calls"], bd["self_by_name"]

    def per_step(key: str) -> float:
        return span_s.get(key, 0.0) * 1e3 / n

    saves = calls.get("training.ckpt_save", 0)
    wl = wls.WORKLOADS[name]
    rollbacks = res["rollbacks_at_check"] or 0
    stv = wl.trainer == "stv"
    metrics = dict.fromkeys(SERVING_ONLY, 0.0)
    metrics.update({
        "data.batch_ms_per_step": per_step("data.batch"),
        "numeric.fwd_bwd_ms_per_step": per_step("numeric.fwd_bwd"),
        "numeric.fwd_bwd_calls_per_step":
            calls.get("numeric.fwd_bwd", 0) / n,
        "optim.adam_ms_per_step": per_step("optim.adam"),
        "optim.rollback_ms_per_step": per_step("optim.rollback"),
        "optim.cast_ms_per_step": per_step("optim.cast"),
        "optim.validate_ms_per_step": per_step("optim.validate"),
        "core.self_ms_per_step":
            self_by.get("core.step", 0.0) * 1e3 / n,
        "core.rollbacks": float(rollbacks),
        "core.speculation_hit_ratio":
            (wl.check_step - rollbacks) / wl.check_step if stv else 0.0,
        "parallel.zero_step_ms_per_step": per_step("parallel.zero_step"),
        "parallel.collective_bytes_per_step":
            trace.delta("collective_bytes_total") / n,
        "parallel.collective_calls_per_step":
            trace.delta("collective_calls_total") / n,
        "tensors.spill_bytes_read_per_step":
            trace.delta("spill_bytes_read") / n,
        "tensors.spill_bytes_written_per_step":
            trace.delta("spill_bytes_written") / n,
        "tensors.spill_wait_ms_per_step": per_step("tensors.spill_wait"),
        "training.ckpt_stall_ms_per_save":
            span_s.get("training.ckpt_save", 0.0) * 1e3 / saves
            if saves else 0.0,
        "training.ckpt_commit_wait_ms": res["commit_wait_s"] * 1e3,
        "training.self_ms_per_step":
            self_by.get("training.step", 0.0) * 1e3 / n,
        "trace.unaccounted_frac":
            bd["self_s"].get("unaccounted", 0.0) / bd["wall_s"],
    })
    metrics.update(trace.pool_figures(n))
    return metrics, bd, n


def per_layer_serving(res: dict, trace: Trace) -> tuple:
    spans = trace.recorder.spans
    origin = res["origin"]
    roots = sorted(
        (s for s in spans
         if s.name == "serving.scheduler" and s.parent is None
         and s.t0 >= origin),
        key=lambda s: s.t0,
    )
    bd = tracing.layer_breakdown(spans, roots, "serving")
    n = len(roots)
    members = tracing.subtree(spans, roots)
    engine_steps = [s for s in members if s.name == "serving.engine_step"]
    starts = [r.t0 for r in roots]
    waits = []
    for r, s in zip(res["requests"], res["sessions"]):
        if s is None or not s.token_times:
            continue
        i = bisect.bisect_right(starts, s.token_times[0]) - 1
        if i >= 0:
            waits.append((roots[i].t0 - (origin + r.due)) * 1e3)
    busy = sum(r.dur for r in roots)
    window = res["busy_until"] - origin
    span_s, self_by = bd["span_s"], bd["self_by_name"]
    metrics = dict.fromkeys(TRAINING_ONLY, 0.0)
    metrics.update({
        "serving.engine_step_ms_p50": wls.percentile(
            [s.dur * 1e3 for s in engine_steps], 50),
        "exec.qmatmul_ms_per_step":
            span_s.get("exec.qmatmul", 0.0) * 1e3 / n,
        "tensors.paged_attention_ms_per_step":
            span_s.get("tensors.paged_attention", 0.0) * 1e3 / n,
        "serving.batch_tokens_mean": float(np.mean(
            [s.attrs["tokens"] for s in engine_steps])),
        "serving.batch_sessions_mean": float(np.mean(
            [s.attrs["sessions"] for s in engine_steps])),
        "serving.scheduler_self_ms_per_step":
            self_by.get("serving.scheduler", 0.0) * 1e3 / n,
        "serving.queue_wait_ms_p50": wls.percentile(waits, 50),
        "serving.queue_wait_ms_p95": wls.percentile(waits, 95),
        "serving.loop_idle_frac": max(0.0, 1.0 - busy / window),
        "tensors.kv_pages_resident_peak": float(trace.kv_peak),
        "tensors.kv_pages_evicted": trace.delta("kv_pages_evicted"),
        "trace.unaccounted_frac": 0.0,
    })
    metrics.update(trace.pool_figures(n))
    return metrics, bd, n


def load_reference(name: str) -> Optional[dict]:
    try:
        with open(wls.REFERENCE) as f:
            return json.load(f).get(name)
    except FileNotFoundError:
        return None


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(wls.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("plain", "traced"), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-out", default=None,
                    help="Chrome trace path (traced mode)")
    args = ap.parse_args(argv)
    wl = wls.WORKLOADS[args.workload]
    workers = wls.pool_workers(wl)
    configure_default_pool(workers)
    steal0 = steal_jiffies()
    trace = Trace() if args.mode == "traced" else None
    telemetry = trace.telemetry if trace is not None else NULL_TELEMETRY
    out: Dict[str, object] = {"env": environment()}
    out["env"]["pool_workers"] = workers
    if isinstance(wl, wls.TrainWorkload):
        res = wls.run_training(wl, args.seed, args.seconds, args.workdir,
                               workers, telemetry, trace)
        check = wls.check_train(res["run"].losses, wl.check_step,
                                res["rollbacks_at_check"] or 0,
                                load_reference(args.workload), args.seed)
        attempted = res["timed_steps"]
        samples = {"steps": attempted}
    else:
        res = wls.run_serving(wl, args.seed, args.seconds, workers,
                              telemetry, trace)
        check = res["check"]
        attempted = res["attempted"]
        samples = {"requests": attempted, "ttft": int(res["ttft_ms"].size),
                   "itl": int(res["itl_ms"].size)}
    failed = int(res["failed"])
    out.update({
        "correct": bool(check["ok"]),
        "attempted": int(attempted),
        "failed": failed,
        "check": check,
        "samples": samples,
        "primary_ms": res["step_ms_p50"],
    })
    metrics: Dict[str, float] = {
        "tokens_per_s": res["tokens_per_s"],
        "step_ms_p50": res["step_ms_p50"],
        "step_ms_p90": res["step_ms_p90"],
        "response_ms_p50": res["response_ms_p50"],
        "slo_attainment": res["slo_attainment"],
        "setup_s": float(np.median(res["setups"])),
        "peak_rss_mb": peak_rss_mb(),
        "completed_frac": 1.0 - failed / attempted,
    }
    if "late_ms" in res:
        metrics["loadgen.late_ms_p99"] = wls.percentile(res["late_ms"], 99)
        metrics["serving.ttft_ms_p95"] = wls.percentile(res["ttft_ms"], 95)
        metrics["serving.itl_ms_p99"] = wls.percentile(res["itl_ms"], 99)
    if trace is not None:
        if isinstance(wl, wls.TrainWorkload):
            layer, bd, n = per_layer_training(args.workload, res, trace)
        else:
            layer, bd, n = per_layer_serving(res, trace)
        share = {k: v / bd["wall_s"] for k, v in bd["self_s"].items()}
        layer["trace.dominant_share"] = sum(
            share.get(k, 0.0) for k in DOMINANT[args.workload])
        metrics.update(layer)
        out["layer_share"] = share
        out["sums_ok"] = bd["sums_ok"]
        out["traced_steps"] = n
        if args.trace_out:
            tracing.chrome_trace(
                trace.recorder.spans, args.trace_out,
                meta={"workload": args.workload, "seed": args.seed,
                      "layer_share": share},
            )
    steal1 = steal_jiffies()
    if steal0 is not None and steal1 is not None and steal1[1] > steal0[1]:
        out["env"]["steal_frac"] = ((steal1[0] - steal0[0])
                                    / (steal1[1] - steal0[1]))
    out["metrics"] = metrics
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
