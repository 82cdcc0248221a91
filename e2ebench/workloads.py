"""The benchmark's four workloads: shapes, inputs from a seed, the timed
loop, and the correctness checks.

Every workload is a stream of units of work.  A training unit is one
full trainer iteration (closed loop: the next is due when the previous
ends).  A serving unit is one generation request sent on a Poisson
schedule (open loop: it is due at its scheduled time whether or not the
server has caught up).
"""

from __future__ import annotations

import gc
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.engine import SuperOffloadConfig
from repro.data.synthetic import SyntheticPile
from repro.exec.pool import configure_default_pool
from repro.numeric.transformer import TinyTransformer, TransformerParams
from repro.serving.engine import InferenceEngine, generate
from repro.serving.server import StreamingServer
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.training import DataParallelTrainer, InstabilityInjector, STVTrainer

#: Times each workload is set up in one run; ``setup_s`` is the median.
SETUP_REPEATS = 5


@dataclass(frozen=True)
class TrainWorkload:
    """A training workload.

    Attributes:
        trainer: ``"stv"`` (STVTrainer with an InstabilityInjector) or
            ``"dp"`` (DataParallelTrainer).
        spec: model shape.
        batch: global batch (split over ranks for ``"dp"``).
        warmup_steps: untimed steps after construction (part of set-up).
        check_step: the iteration whose loss is checked against the
            reference; runs always reach it.
        step_limit_ms: a step counts toward ``slo_attainment`` when it
            finishes within this many milliseconds.
        ckpt_every: checkpoint cadence for ``"dp"``.
        pool_workers: kernel-pool workers; ``None`` is ``min(2, usable
            cores)``: the program's own default on the 2-core host this
            was tuned on, capped so larger hosts run the same count.
    """

    trainer: str
    spec: TransformerParams
    batch: int
    warmup_steps: int = 3
    check_step: int = 40
    step_limit_ms: float = 300.0
    ckpt_every: int = 4
    pool_workers: Optional[int] = None

    @property
    def tokens_per_step(self) -> int:
        return self.batch * self.spec.max_seq


@dataclass(frozen=True)
class ServeWorkload:
    """An open-loop serving workload.

    Attributes:
        spec: model shape.
        max_batch: server's concurrent-session cap.
        rate: offered load, requests per second.
        chat_prompt / chat_out / summ_prompt / summ_out: inclusive token
            ranges for the two request kinds (half of the requests each).
        ttft_limit_ms / itl_limit_ms: a request meets the SLO when its
            first token lands within ``ttft_limit_ms`` of its due time
            and no gap between two of its tokens exceeds ``itl_limit_ms``.
        solo_checks: how many requests (the first ones sent) are replayed
            alone on a fresh engine and must produce the same tokens.
        drain_timeout_s: how long the run waits for stragglers after the
            last request was sent; unfinished requests count as failed.
        pool_workers: kernel-pool workers.  One: the server loop and the
            load generator already hold the two cores this benchmark was
            tuned on, and with a 2-worker pool the qmatmul fan-out's
            thread hand-offs made ITL p50 move 9-24 ms between identical
            runs (1 worker: 5-6.5 ms).
    """

    spec: TransformerParams
    max_batch: int = 16
    rate: float = 10.0
    chat_prompt: tuple = (4, 16)
    chat_out: tuple = (24, 48)
    summ_prompt: tuple = (64, 112)
    summ_out: tuple = (4, 12)
    ttft_limit_ms: float = 250.0
    itl_limit_ms: float = 150.0
    solo_checks: int = 4
    drain_timeout_s: float = 30.0
    pool_workers: Optional[int] = 1


WORKLOADS: Dict[str, object] = {
    "train-superoffload": TrainWorkload(
        trainer="stv",
        spec=TransformerParams(vocab=4096, max_seq=16, hidden=128,
                               n_layers=4, n_heads=4),
        batch=2, step_limit_ms=200.0,
    ),
    "train-zero-offload": TrainWorkload(
        trainer="dp",
        spec=TransformerParams(vocab=4096, max_seq=16, hidden=128,
                               n_layers=4, n_heads=4),
        batch=2, step_limit_ms=250.0, ckpt_every=4,
    ),
    "serve-poisson": ServeWorkload(
        spec=TransformerParams(vocab=512, max_seq=160, hidden=128,
                               n_layers=4, n_heads=8),
    ),
}


def smoke_sized(workloads: Dict[str, object]) -> Dict[str, object]:
    """The same workloads at tiny sizes, for ``smoke.py``."""
    tiny = {}
    for name, wl in workloads.items():
        if isinstance(wl, TrainWorkload):
            tiny[name] = replace(
                wl, batch=2, check_step=12, warmup_steps=1,
                spec=TransformerParams(vocab=64, max_seq=8, hidden=16,
                                       n_layers=2, n_heads=2),
            )
        else:
            tiny[name] = replace(
                wl, rate=20.0, chat_prompt=(2, 4), chat_out=(3, 6),
                summ_prompt=(8, 16), summ_out=(2, 4),
                spec=TransformerParams(vocab=64, max_seq=48, hidden=32,
                                       n_layers=2, n_heads=4),
            )
    return tiny


#: ``E2EBENCH_SMOKE=1`` shrinks every workload and points the training
#: check at the references ``smoke.py`` records for the tiny shapes.
SMOKE = os.environ.get("E2EBENCH_SMOKE") == "1"
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "out/smoke-reference.json" if SMOKE
                         else "reference.json")
if SMOKE:
    WORKLOADS = smoke_sized(WORKLOADS)


def pool_workers(wl) -> int:
    """The kernel-pool worker count a workload runs with."""
    if wl.pool_workers is not None:
        return wl.pool_workers
    return max(1, min(2, len(os.sched_getaffinity(0))))


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default), NaN if empty."""
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


# -- training -----------------------------------------------------------


class TrainRun:
    """One constructed trainer plus its data stream and scratch dir."""

    def __init__(self, wl: TrainWorkload, seed: int, workdir: str,
                 telemetry: Telemetry = NULL_TELEMETRY):
        self.wl = wl
        self.losses: List[float] = []
        self.tmp: Optional[str] = None
        if wl.trainer == "stv":
            # Warm-up instability, so clip and overflow rollbacks occur.
            injector = InstabilityInjector(seed=seed, overflow_probability=0.2)
            self.trainer = STVTrainer(
                wl.spec, batch=wl.batch,
                config=SuperOffloadConfig(clip_norm=8.0, n_buckets=4),
                injector=injector, seed=seed, telemetry=telemetry,
            )
            self._step: Callable[[], float] = self._stv_step
        else:
            self.tmp = tempfile.mkdtemp(prefix="zero-", dir=workdir)
            self.trainer = DataParallelTrainer(
                wl.spec, world_size=2, clip_norm=8.0, seed=seed,
                telemetry=telemetry, pipeline=True, offload="disk",
                spill_dir=os.path.join(self.tmp, "spill"),
            )
            self.trainer.attach_checkpointer(
                os.path.join(self.tmp, "ckpt"), every=wl.ckpt_every
            )
            self._batches = SyntheticPile(wl.spec.vocab, seed=seed).batches(
                wl.batch, wl.spec.max_seq
            )
            self._step = self._dp_step

    def _stv_step(self) -> float:
        return self.trainer.run(1).losses[0]

    def _dp_step(self) -> float:
        return self.trainer.train_step(*next(self._batches)).loss

    def step(self) -> float:
        loss = self._step()
        self.losses.append(loss)
        return loss

    @property
    def rollbacks(self) -> int:
        if self.wl.trainer == "stv":
            return self.trainer.engine.rollback_count
        return 0

    def finish(self) -> float:
        """Wait for in-flight checkpoint commits; returns the seconds
        waited (0 for trainers that do not checkpoint)."""
        if self.wl.trainer != "dp":
            return 0.0
        t0 = time.perf_counter()
        self.trainer.finish_checkpoints()
        return time.perf_counter() - t0

    def close(self) -> None:
        if self.wl.trainer == "dp":
            ckpt = self.trainer.checkpointer
            if ckpt is not None:
                ckpt.close()
            self.trainer.optimizer.close_spill()
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None


def check_train(losses: List[float], check_step: int, rollbacks_at_check: int,
                ref: Optional[dict], seed: int) -> Dict[str, object]:
    """The training correctness verdict.

    ``ok`` needs every loss finite and the loss after ``check_step``
    iterations inside the reference range recorded across seeds.
    ``bitwise`` says whether that loss and the rollback count equal the
    recorded value for this very seed (``None`` when none is recorded).
    """
    finite = all(math.isfinite(x) for x in losses)
    reached = len(losses) >= check_step
    loss = losses[check_step - 1] if reached else float("nan")
    in_range = (
        reached and ref is not None
        and ref["loss_lo"] <= loss <= ref["loss_hi"]
    )
    bitwise = None
    seeds = (ref or {}).get("seeds", {})
    if reached and str(seed) in seeds:
        want = seeds[str(seed)]
        bitwise = (float.fromhex(want["loss"]) == loss
                   and want["rollbacks"] == rollbacks_at_check)
    return {
        "ok": bool(finite and in_range),
        "finite": finite,
        "check_loss": loss,
        "in_range": bool(in_range),
        "bitwise": bitwise,
    }


def run_training(wl: TrainWorkload, seed: int, seconds: float, workdir: str,
                 workers: int, telemetry: Telemetry = NULL_TELEMETRY,
                 trace=None) -> Dict[str, object]:
    """Set up, warm up, run timed iterations for ``seconds``, check.

    ``trace`` (traced run only) gets ``start()`` when timing begins and
    supplies ``root()``, the span around each timed iteration.
    """
    setups = []
    run: Optional[TrainRun] = None
    for _ in range(SETUP_REPEATS):
        if run is not None:
            # Free the previous set-up first, so peak RSS counts one.
            run.close()
            run = None
            gc.collect()
        t0 = time.perf_counter()
        run = TrainRun(wl, seed, workdir, telemetry)
        for _ in range(wl.warmup_steps):
            run.step()
        setups.append(time.perf_counter() - t0)
    assert run is not None
    configure_default_pool(workers, telemetry=telemetry)
    if trace is not None:
        trace.start()
    step_s: List[float] = []
    failed = 0
    rollbacks_at_check = run.rollbacks if len(run.losses) == wl.check_step \
        else None
    try:
        t_start = time.perf_counter()
        deadline = t_start + seconds
        while True:
            t0 = time.perf_counter()
            if trace is not None:
                with trace.root():
                    loss = run.step()
            else:
                loss = run.step()
            t1 = time.perf_counter()
            step_s.append(t1 - t0)
            if not math.isfinite(loss):
                failed += 1
            if len(run.losses) == wl.check_step:
                rollbacks_at_check = run.rollbacks
            if t1 >= deadline:
                break
        t_end = time.perf_counter()
        commit_wait_s = run.finish()
        # Untimed: make sure the checked iteration is reached.
        while len(run.losses) < wl.check_step:
            run.step()
            if len(run.losses) == wl.check_step:
                rollbacks_at_check = run.rollbacks
    finally:
        run.close()
    timed = len(step_s)
    ms = np.asarray(step_s) * 1e3
    return {
        "run": run,
        "setups": setups,
        "timed_steps": timed,
        "failed": failed,
        "rollbacks_at_check": rollbacks_at_check,
        "commit_wait_s": commit_wait_s,
        "tokens_per_s": wl.tokens_per_step * timed / (t_end - t_start),
        "step_ms_p50": percentile(ms, 50),
        "step_ms_p90": percentile(ms, 90),
        # Closed loop: a step is due when the previous one returns, so the
        # wait for its result is its own wall time.
        "response_ms_p50": percentile(ms, 50),
        "slo_attainment": float(np.mean(ms <= wl.step_limit_ms)),
    }


# -- serving ------------------------------------------------------------


@dataclass
class Request:
    due: float          # seconds after the schedule's origin
    prompt: np.ndarray
    budget: int
    kind: str


def make_requests(wl: ServeWorkload, seed: int, seconds: float
                  ) -> List[Request]:
    """A Poisson schedule of ``round(rate * seconds)`` requests.

    Given their count, the arrival times of a Poisson process are
    independent and uniform over the window, so the times are sorted
    uniform draws.  Exactly half the requests are chat, half summarize,
    in a random order.  Within a kind, prompt lengths and token budgets
    are spread evenly over their ranges and shuffled, so every seed sends
    the same mix of sizes in a different order at different times.
    """
    rng = np.random.default_rng(seed)
    n = max(2, int(round(wl.rate * seconds)))
    times = np.sort(rng.uniform(0.0, seconds, size=n))
    kinds = rng.permutation(np.arange(n) % 2)

    def spread(lo: int, hi: int, count: int) -> np.ndarray:
        return rng.permutation(np.rint(np.linspace(lo, hi, count))
                               .astype(int))

    sizes = {}
    for k, (prompt, out) in enumerate(((wl.chat_prompt, wl.chat_out),
                                       (wl.summ_prompt, wl.summ_out))):
        count = int(np.sum(kinds == k))
        sizes[k] = iter(zip(spread(*prompt, count), spread(*out, count)))
    requests = []
    for t, k in zip(times, kinds):
        plen, budget = next(sizes[k])
        prompt = rng.integers(0, wl.spec.vocab, size=int(plen),
                              dtype=np.int64)
        requests.append(Request(float(t), prompt, int(budget),
                                "chat" if k == 0 else "summarize"))
    return requests


def _build_server(wl: ServeWorkload, seed: int, telemetry: Telemetry
                  ) -> StreamingServer:
    model = TinyTransformer(wl.spec, seed=seed)
    engine = InferenceEngine(model, quantized=True, telemetry=telemetry)
    return StreamingServer(engine, max_batch=wl.max_batch).start()


def _warm(server: StreamingServer, wl: ServeWorkload, seed: int) -> None:
    """One request of each kind, to completion."""
    rng = np.random.default_rng(seed + 1)
    for plen, out in ((wl.chat_prompt[1], wl.chat_out[0]),
                      (wl.summ_prompt[1], wl.summ_out[0])):
        prompt = rng.integers(0, wl.spec.vocab, size=plen, dtype=np.int64)
        server.result(server.submit(prompt, out))


def check_serving(wl: ServeWorkload, seed: int, requests: List[Request],
                  generated: List[Optional[List[int]]]) -> Dict[str, object]:
    """Budgets met, and the first ``solo_checks`` requests replay alone on
    a fresh engine to the same tokens (batched == solo)."""
    budgets_ok = [
        g is not None and len(g) == r.budget
        for r, g in zip(requests, generated)
    ]
    model = TinyTransformer(wl.spec, seed=seed)
    solo_ok = True
    with InferenceEngine(model, quantized=True) as engine:
        for i, r in enumerate(requests[: wl.solo_checks]):
            want = generate(engine, r.prompt, r.budget, session=i)
            if generated[i] != want:
                solo_ok = False
    return {
        "ok": bool(all(budgets_ok) and solo_ok),
        "budgets_ok": int(sum(budgets_ok)),
        "solo_ok": solo_ok,
        "failed": int(len(budgets_ok) - sum(budgets_ok)),
    }


def run_serving(wl: ServeWorkload, seed: int, seconds: float, workers: int,
                telemetry: Telemetry = NULL_TELEMETRY,
                trace=None) -> Dict[str, object]:
    """Set up, then send the Poisson schedule from this one thread.

    ``trace`` (traced run only) gets ``start()`` when the schedule starts.
    """
    setups = []
    server: Optional[StreamingServer] = None
    for _ in range(SETUP_REPEATS):
        if server is not None:
            server.close()
            server = None
            gc.collect()
        t0 = time.perf_counter()
        server = _build_server(wl, seed, telemetry)
        _warm(server, wl, seed)
        setups.append(time.perf_counter() - t0)
    assert server is not None
    requests = make_requests(wl, seed, seconds)
    configure_default_pool(workers, telemetry=telemetry)
    if trace is not None:
        trace.start()
    sids: List[Optional[int]] = []
    late_ms: List[float] = []
    origin = time.perf_counter()
    try:
        for r in requests:
            due = origin + r.due
            now = time.perf_counter()
            if due > now:
                time.sleep(due - now)
            late_ms.append((time.perf_counter() - due) * 1e3)
            try:
                sids.append(server.submit(r.prompt, r.budget))
            except (ValueError, RuntimeError):
                sids.append(None)
        deadline = time.perf_counter() + wl.drain_timeout_s
        registry = server.registry
        while time.perf_counter() < deadline:
            if all(sid is None or registry.get(sid).done for sid in sids):
                break
            time.sleep(0.005)
    finally:
        server.close(drain=False)
    sessions = [None if sid is None else server.registry.get(sid)
                for sid in sids]
    generated = [
        list(s.generated) if s is not None and s.done else None
        for s in sessions
    ]
    ttft_ms, itl_ms, mean_gap_ms, met = [], [], [], 0
    tokens = 0
    last = origin
    for r, s, g in zip(requests, sessions, generated):
        if g is None:
            continue
        due = origin + r.due
        first = (s.token_times[0] - due) * 1e3
        gaps = np.diff(s.token_times) * 1e3
        ttft_ms.append(first)
        itl_ms.extend(gaps.tolist())
        tokens += len(g)
        last = max(last, s.token_times[-1])
        if gaps.size:
            mean_gap_ms.append(float(gaps.mean()))
        worst_gap = float(gaps.max()) if gaps.size else 0.0
        if first <= wl.ttft_limit_ms and worst_gap <= wl.itl_limit_ms:
            met += 1
    check = check_serving(wl, seed, requests, generated)
    n = len(requests)
    return {
        "requests": requests,
        "sessions": sessions,
        "origin": origin,
        "setups": setups,
        "attempted": n,
        "failed": check["failed"],
        "check": check,
        "busy_until": last,
        "tokens_per_s": tokens / max(last - origin, 1e-9),
        "ttft_ms": np.asarray(ttft_ms),
        "itl_ms": np.asarray(itl_ms),
        "late_ms": np.asarray(late_ms),
        "step_ms_p50": percentile(itl_ms, 50),
        # Tail over requests of each one's mean token gap: how slowly the
        # slowest tenth of the streams ran.
        "step_ms_p90": percentile(mean_gap_ms, 90),
        "response_ms_p50": percentile(ttft_ms, 50),
        "slo_attainment": met / n,
    }
