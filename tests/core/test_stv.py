"""Tests for speculation-then-validation: the §4.4 exactness claims.

The central property: STV training is *numerically equivalent* to
synchronize-then-execute training, including iterations that trigger
gradient clipping (rollback + re-execute) and fp16 overflow (rollback +
skip).
"""

import itertools

import numpy as np
import pytest

from repro.core.stv import STVEngine, SynchronousEngine, _bucketize_names
from repro.numeric.transformer import TinyTransformer
from repro.optim import (
    AdamConfig,
    CPUAdam,
    GraceAdam,
    LossScaler,
    RollbackStrategy,
)


def build(engine_cls, tiny_spec, *, clip=0.9, n_buckets=3,
          rollback=RollbackStrategy.SNAPSHOT, seed=7, lr=3e-3):
    model = TinyTransformer(tiny_spec, seed=seed)
    opt = GraceAdam(model.params, AdamConfig(lr=lr, weight_decay=0.01))
    scaler = LossScaler(init_scale=2.0**14, growth_interval=8)
    if engine_cls is STVEngine:
        engine = STVEngine(model, opt, clip_norm=clip, loss_scaler=scaler,
                           n_buckets=n_buckets, rollback=rollback)
    else:
        engine = SynchronousEngine(model, opt, clip_norm=clip,
                                   loss_scaler=scaler)
    return model, engine


def poison(model, name, value, on_call):
    """Make the ``on_call``-th ``loss_and_grads`` call return ``value`` in
    the first element of gradient ``name`` (added if the model has no
    such parameter)."""
    inner = model.loss_and_grads
    calls = itertools.count()

    def loss_and_grads(*args, **kwargs):
        loss, grads = inner(*args, **kwargs)
        if next(calls) == on_call:
            g = grads.get(name, np.zeros(3, np.float32)).copy()
            g.flat[0] = value
            grads[name] = g
        return loss, grads

    model.loss_and_grads = loss_and_grads


def run(engine, batches, injection=None):
    reports = []
    for i, (ids, tg) in enumerate(batches):
        engine.grad_injection = injection(i) if injection else 1.0
        reports.append(engine.train_step(ids, tg))
    engine.grad_injection = 1.0
    return reports


class TestBucketize:
    def test_buckets_partition_params(self, tiny_model):
        buckets = _bucketize_names(tiny_model.params, 4)
        assert len(buckets) == 4
        flat = [n for b in buckets for n in b]
        assert sorted(flat) == sorted(tiny_model.params)

    def test_reverse_order(self, tiny_model):
        buckets = _bucketize_names(tiny_model.params, 2)
        names = list(tiny_model.params)
        # first bucket holds the *last* parameters (backward production order)
        assert names[-1] in buckets[0]

    def test_single_bucket(self, tiny_model):
        buckets = _bucketize_names(tiny_model.params, 1)
        assert len(buckets) == 1

    def test_invalid(self, tiny_model):
        with pytest.raises(ValueError):
            _bucketize_names(tiny_model.params, 0)


class TestSTVEquivalence:
    def test_snapshot_rollback_bitwise_equal_to_ste(self, tiny_spec,
                                                    tiny_batches):
        m_ste, e_ste = build(SynchronousEngine, tiny_spec)
        m_stv, e_stv = build(STVEngine, tiny_spec)
        r_ste = run(e_ste, tiny_batches)
        r_stv = run(e_stv, tiny_batches)
        assert sum(r.clipped for r in r_ste) > 0  # stress actually occurred
        for k in m_ste.params:
            np.testing.assert_array_equal(m_ste.params[k], m_stv.params[k])
        # the event streams agree too
        assert [r.overflow for r in r_ste] == [r.overflow for r in r_stv]
        assert [r.clipped for r in r_ste] == [r.clipped for r in r_stv]

    def test_algebraic_rollback_equivalent_within_tolerance(
        self, tiny_spec, tiny_batches
    ):
        m_ste, e_ste = build(SynchronousEngine, tiny_spec)
        m_alg, e_alg = build(STVEngine, tiny_spec,
                             rollback=RollbackStrategy.ALGEBRAIC)
        run(e_ste, tiny_batches)
        run(e_alg, tiny_batches)
        for k in m_ste.params:
            np.testing.assert_allclose(
                m_ste.params[k], m_alg.params[k], atol=2e-4
            )

    def test_equivalence_without_clipping(self, tiny_spec, tiny_batches):
        m_ste, e_ste = build(SynchronousEngine, tiny_spec, clip=None)
        m_stv, e_stv = build(STVEngine, tiny_spec, clip=None)
        run(e_ste, tiny_batches)
        run(e_stv, tiny_batches)
        assert e_stv.rollback_count == 0
        for k in m_ste.params:
            np.testing.assert_array_equal(m_ste.params[k], m_stv.params[k])

    @pytest.mark.parametrize("n_buckets", [1, 2, 7])
    def test_equivalence_any_bucket_count(self, tiny_spec, tiny_batches,
                                          n_buckets):
        m_ste, e_ste = build(SynchronousEngine, tiny_spec)
        m_stv, e_stv = build(STVEngine, tiny_spec, n_buckets=n_buckets)
        run(e_ste, tiny_batches[:8])
        run(e_stv, tiny_batches[:8])
        for k in m_ste.params:
            np.testing.assert_array_equal(m_ste.params[k], m_stv.params[k])


class TestOverflowHandling:
    def test_injected_overflow_skips_iteration(self, tiny_spec, tiny_batches):
        m, engine = build(STVEngine, tiny_spec, clip=None)
        before = {k: v.copy() for k, v in m.params.items()}
        scale_before = engine.scaler.scale
        report = run(engine, tiny_batches[:1], injection=lambda i: 1e8)[0]
        assert report.overflow
        assert report.rolled_back or engine.rollback_count == 0
        # skipped: parameters unchanged, loss scale backed off
        for k in before:
            np.testing.assert_array_equal(m.params[k], before[k])
        assert engine.scaler.scale < scale_before

    def test_overflow_equivalence_ste_vs_stv(self, tiny_spec, tiny_batches):
        inject = lambda i: 1e8 if i in (2, 5) else 1.0
        m_ste, e_ste = build(SynchronousEngine, tiny_spec)
        m_stv, e_stv = build(STVEngine, tiny_spec)
        r_ste = run(e_ste, tiny_batches[:10], injection=inject)
        r_stv = run(e_stv, tiny_batches[:10], injection=inject)
        assert sum(r.overflow for r in r_ste) == 2
        assert sum(r.overflow for r in r_stv) == 2
        for k in m_ste.params:
            np.testing.assert_array_equal(m_ste.params[k], m_stv.params[k])

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("grad_accum,micro", [(1, 0), (2, 0), (2, 1)])
    def test_non_finite_in_one_gradient_matches_ste(
        self, tiny_spec, tiny_batches, value, grad_accum, micro
    ):
        """One poisoned element in one gradient, in any micro-batch, is
        flagged as overflow and skipped exactly like STE skips it."""
        poisoned_step = 2
        runs = []
        for engine_cls in (SynchronousEngine, STVEngine):
            model, engine = build(engine_cls, tiny_spec)
            name = list(model.params)[len(model.params) // 2]
            poison(model, name, value,
                   on_call=poisoned_step * grad_accum + micro)
            reports = [engine.train_step(ids, tg, grad_accum=grad_accum)
                       for ids, tg in tiny_batches[:5]]
            runs.append((engine, reports))
        (ste, r_ste), (stv, r_stv) = runs
        assert [r.overflow for r in r_ste] == [
            i == poisoned_step for i in range(5)
        ]
        for a, b in zip(r_ste, r_stv):
            assert (a.loss, a.grad_norm, a.overflow, a.clipped,
                    a.loss_scale) == (b.loss, b.grad_norm, b.overflow,
                                      b.clipped, b.loss_scale)
        assert stv.optimizer.step_count == ste.optimizer.step_count == 4
        for k in ste.model.params:
            np.testing.assert_array_equal(ste.model.params[k],
                                          stv.model.params[k])
            np.testing.assert_array_equal(ste.optimizer.state[k].m,
                                          stv.optimizer.state[k].m)
            np.testing.assert_array_equal(ste.optimizer.state[k].v,
                                          stv.optimizer.state[k].v)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("grad_accum", [1, 2])
    @pytest.mark.parametrize("in_arena", [True, False])
    def test_forward_backward_overflow_verdict(
        self, tiny_spec, tiny_batches, value, grad_accum, in_arena
    ):
        """The verdict comes from the landed fp32 gradients, both when
        they all land in the gradient arena and when one does not."""
        model, engine = build(STVEngine, tiny_spec)
        ids, tg = tiny_batches[0]
        assert not engine._forward_backward(ids, tg, grad_accum)[2]
        name = list(model.params)[0] if in_arena else "off_arena"
        poison(model, name, value, on_call=grad_accum - 1)
        assert engine._forward_backward(ids, tg, grad_accum)[2]

    def test_overflow_with_algebraic_rollback_stays_finite(
        self, tiny_spec, tiny_batches
    ):
        """The bucket-local guard keeps non-finite values out of the
        optimizer state so in-place rollback cannot be poisoned."""
        m, engine = build(STVEngine, tiny_spec,
                          rollback=RollbackStrategy.ALGEBRAIC)
        run(engine, tiny_batches[:6], injection=lambda i: 1e8 if i == 1 else 1.0)
        for v in m.params.values():
            assert np.all(np.isfinite(v))


class TestEngineBehaviour:
    def test_rollback_counter_counts_clip_and_overflow(self, tiny_spec,
                                                       tiny_batches):
        _, engine = build(STVEngine, tiny_spec, clip=1e-4)  # clip every step
        reports = run(engine, tiny_batches[:5])
        assert engine.rollback_count == 5
        assert all(r.rolled_back for r in reports)

    def test_training_progresses(self, tiny_spec, tiny_batches):
        _, engine = build(STVEngine, tiny_spec, clip=5.0, lr=5e-3)
        reports = run(engine, tiny_batches)
        first = np.mean([r.loss for r in reports[:4]])
        last = np.mean([r.loss for r in reports[-4:]])
        assert last < first

    def test_cpu_adam_rejected_for_stv(self, tiny_spec):
        model = TinyTransformer(tiny_spec, seed=0)
        opt = CPUAdam(model.params)
        with pytest.raises(TypeError, match="flat"):
            STVEngine(model, opt)

    def test_optimizer_must_wrap_model_params(self, tiny_spec):
        model = TinyTransformer(tiny_spec, seed=0)
        other = TinyTransformer(tiny_spec, seed=1)
        opt = GraceAdam(other.params)
        with pytest.raises(ValueError):
            STVEngine(model, opt)

    def test_fp16_copy_synced_after_step(self, tiny_spec, tiny_batches):
        m, engine = build(STVEngine, tiny_spec)
        run(engine, tiny_batches[:3])
        assert engine.mp.drift() <= float(
            max(np.abs(v).max() for v in m.params.values())
        ) * 2**-10 + 1e-6

    def test_grad_norm_reported(self, tiny_spec, tiny_batches):
        _, engine = build(STVEngine, tiny_spec, clip=None)
        report = run(engine, tiny_batches[:1])[0]
        assert report.grad_norm > 0
        assert report.loss_scale == 2.0**14
