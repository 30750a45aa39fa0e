from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from als_graph.smoothing import (
    LossBreakdown,
    RefinementMatrix,
    alpha_at,
    init_refinement,
    loss_and_grads,
    refinement_op_count,
    smooth_labels,
    softmax_rows,
)

from conftest import (
    central_diff,
    kl_to_uniform,
    random_distribution,
    refine_soft_label,
    rel_err,
)


class TestPacing:
    def test_linear_examples(self):
        sched = dict(kind="linear", r=0.01, alpha_max=0.1)
        assert alpha_at(5, **sched) == pytest.approx(0.05, abs=0)
        assert alpha_at(10**6, **sched) == 0.1

    def test_exponential_decay_starts_at_cap(self):
        sched = dict(kind="exponential", b=0.15, r=-0.1, alpha_max=0.1)
        assert alpha_at(0, **sched) == 0.1  # min(0.15, 0.1)
        assert alpha_at(20, **sched) == pytest.approx(0.15 * np.exp(-2.0), rel=1e-12)

    def test_constant(self):
        assert alpha_at(123, "constant", alpha_const=0.07) == 0.07

    @given(st.floats(0.0, 0.05), st.floats(0.0, 1.0), st.integers(0, 10_000))
    def test_linear_nondecreasing_and_capped(self, r, alpha_max, t):
        sched = dict(kind="linear", r=r, alpha_max=alpha_max)
        assert alpha_at(t, **sched) <= alpha_at(t + 1, **sched) <= alpha_max

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError, match="epoch index must be nonnegative"):
            alpha_at(-1, "linear")

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError, match=r"alpha_max must lie in \[0, 1\]"):
            alpha_at(0, "linear", alpha_max=1.5)
        with pytest.raises(ValueError, match=r"alpha_const must lie in \[0, 1\]"):
            alpha_at(0, "constant", alpha_const=-0.1)
        with pytest.raises(ValueError, match="unknown pacing kind 'warp'"):
            alpha_at(0, "warp")
        with pytest.raises(ValueError, match="initial strength b must be nonnegative"):
            alpha_at(0, "exponential", b=-0.1)


def mixed_target(hard: np.ndarray, **loss_kwargs) -> np.ndarray:
    """The target ``loss_and_grads`` mixes for one node, read back exactly.

    For a batch of one, ``dlogits = p - mix``. With the prediction one-hot at
    class k (the other logits at -1000 underflow to probability 0), every
    entry but k is ``-dlogits`` exactly; readings at k = 0 and 1 cover all.
    """
    c = hard.size
    out = np.empty(c)
    for k in (0, 1):
        logits = np.full((1, c), -1000.0)
        logits[0, k] = 0.0
        _, dlogits, _ = loss_and_grads(logits, hard[None], **loss_kwargs)
        others = np.arange(c) != k
        out[others] = -dlogits[0, others]
    return out


def soft_target(w: RefinementMatrix, yk_row: np.ndarray) -> np.ndarray:
    """The learned soft target softmax(W yk) that ``als`` mode mixes in at alpha = 1."""
    hard = np.zeros(yk_row.size)
    hard[0] = 1.0
    return mixed_target(hard, soft_inputs=yk_row[None], refinement=w, alpha_t=1.0, mode="als")


def kl_term(w: RefinementMatrix, yk_row: np.ndarray) -> float:
    """``loss_and_grads``'s KL-to-uniform term for one node's soft target."""
    c = yk_row.size
    bd, _, _ = loss_and_grads(np.zeros((1, c)), np.eye(c)[:1], yk_row[None], w, 0.5, 1.0, "als")
    return bd.kl_term


class TestRefine:
    def test_zero_matrix_gives_uniform(self):
        w = RefinementMatrix(np.zeros((4, 4)))
        assert np.array_equal(soft_target(w, np.array([0.2, 0.1, 0.0, 0.3])),
                              np.full(4, 0.25))

    def test_zero_input_row_gives_uniform(self, rng):
        w = RefinementMatrix(rng.standard_normal((5, 5)))
        assert np.array_equal(soft_target(w, np.zeros(5)), np.full(5, 0.2))

    def test_strong_diagonal_concentrates_on_seed_class(self):
        w = RefinementMatrix(50.0 * np.eye(3))
        out = soft_target(w, np.array([0.0, 1.0, 0.0]))
        assert out[1] > 1.0 - 1e-9

    def test_rows_sum_to_one(self, rng):
        w = RefinementMatrix(rng.standard_normal((6, 6)))
        for _ in range(20):
            yk_row = rng.random(6)
            out = soft_target(w, yk_row)
            assert out.min() > 0
            assert abs(out.sum() - 1.0) < 1e-12
            assert np.allclose(out, refine_soft_label(w.w, yk_row), rtol=0, atol=1e-15)

    def test_init_scale_keeps_soft_labels_near_uniform(self):
        w = init_refinement(8, seed=0)
        out = soft_target(w, np.ones(8) / 8)
        assert np.abs(out - 0.125).max() < 0.01


class TestSmoothLabel:
    def test_zero_strength_returns_hard_label(self, rng):
        y = np.array([[0.0, 1.0, 0.0]])
        assert np.array_equal(smooth_labels(y, rng.random((1, 3)), 0.0), y)
        w = RefinementMatrix(rng.standard_normal((3, 3)))
        assert np.array_equal(mixed_target(y[0], soft_inputs=rng.random((1, 3)), refinement=w,
                                           alpha_t=0.0, mode="als"), y[0])

    def test_uniform_ls_example(self):
        y = np.array([1.0, 0.0, 0.0, 0.0])
        out = mixed_target(y, alpha_t=0.1, mode="ls")
        assert np.allclose(out, [0.925, 0.025, 0.025, 0.025], atol=1e-15)

    def test_full_strength_returns_soft_target(self, rng):
        y = np.array([1.0, 0.0])
        yk_row = rng.random(2)
        w = RefinementMatrix(rng.standard_normal((2, 2)))
        out = mixed_target(y, soft_inputs=yk_row[None], refinement=w, alpha_t=1.0, mode="als")
        assert np.allclose(out, refine_soft_label(w.w, yk_row), rtol=0, atol=1e-15)
        soft = random_distribution(rng, 2)
        assert np.allclose(smooth_labels(y[None], soft[None], 1.0)[0], soft, rtol=0, atol=1e-15)

    def test_ablate_refinement_renormalizes(self):
        y = np.array([[0.0, 1.0, 0.0]])
        out = smooth_labels(y, np.array([[0.2, 0.0, 0.2]]), 0.5)
        assert np.allclose(out, [[0.25, 0.5, 0.25]])

    def test_ablate_refinement_zero_row_falls_back_to_uniform(self):
        y = np.array([[0.0, 1.0]])
        out = smooth_labels(y, np.zeros((1, 2)), 0.4)
        assert np.allclose(out, [[0.2, 0.8]])

    @given(st.floats(0.0, 1.0), st.integers(2, 8), st.integers(0, 2**31 - 1))
    @settings(max_examples=60)
    def test_result_is_a_distribution(self, alpha, c, seed):
        gen = np.random.default_rng(seed)
        y = np.zeros(c)
        y[int(gen.integers(c))] = 1.0
        yk_row = gen.random(c)
        w = RefinementMatrix(gen.standard_normal((c, c)))
        outs = (mixed_target(y, alpha_t=alpha, mode="ls"),
                mixed_target(y, soft_inputs=yk_row[None], refinement=w, alpha_t=alpha, mode="als"),
                smooth_labels(y[None], yk_row[None], alpha)[0])
        for out in outs:
            assert out.min() >= 0.0
            assert abs(out.sum() - 1.0) < 1e-12

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            smooth_labels(np.array([[1.0, 0.0]]), np.zeros((1, 2)), 1.2)


class TestKlToUniform:
    def test_uniform_is_zero(self):
        assert kl_term(RefinementMatrix(np.zeros((5, 5))), np.ones(5)) == pytest.approx(0.0, abs=1e-15)

    def test_one_hot_is_log_c(self):
        # softmax([0, 0, 1000]) is exactly [0, 0, 1]
        w = RefinementMatrix(np.diag([0.0, 0.0, 1000.0]))
        assert kl_term(w, np.array([0.0, 0.0, 1.0])) == pytest.approx(1.0986122886681098, abs=1e-15)

    def test_two_class_example(self):
        # the first column of W holds the log-probabilities of [0.7, 0.3]
        w = RefinementMatrix(np.log([[0.7, 1.0], [0.3, 1.0]]))
        assert kl_term(w, np.array([1.0, 0.0])) == pytest.approx(0.08228287850505178, abs=1e-12)

    @given(st.integers(2, 10), st.integers(0, 2**31 - 1))
    def test_nonnegative(self, c, seed):
        gen = np.random.default_rng(seed)
        w = RefinementMatrix(gen.standard_normal((c, c)))
        yk_row = gen.random(c)
        kl = kl_term(w, yk_row)
        assert kl >= -1e-15
        assert kl == pytest.approx(kl_to_uniform(refine_soft_label(w.w, yk_row)), abs=1e-12)


def _random_loss_instance(gen, batch=7, c=5):
    logits = gen.standard_normal((batch, c))
    labels = gen.integers(c, size=batch)
    hard = np.zeros((batch, c))
    hard[np.arange(batch), labels] = 1.0
    yk = gen.random((batch, c)) * gen.random((batch, 1))  # row sums <= 1
    w = RefinementMatrix(0.5 * gen.standard_normal((c, c)))
    return logits, hard, yk, w


class TestLossAndGrads:
    def test_plain_uniform_prediction(self):
        c, batch = 4, 6
        logits = np.zeros((batch, c))
        hard = np.zeros((batch, c))
        hard[:, 1] = 1.0
        breakdown, dlogits, dw = loss_and_grads(logits, hard)
        assert breakdown.total == pytest.approx(np.log(c), abs=1e-12)
        assert np.abs(dlogits.sum(axis=1)).max() < 1e-15
        assert not dw.any()

    def test_zero_gradient_at_matched_prediction(self, rng):
        # make softmax(logits) equal the mixed target exactly
        c = 4
        hard = np.zeros((3, c))
        hard[:, 2] = 1.0
        yk = rng.random((3, c))
        w = RefinementMatrix(rng.standard_normal((c, c)))
        soft = softmax_rows(yk @ w.w.T)
        alpha = 0.3
        mix = (1 - alpha) * hard + alpha * soft
        _, dlogits, _ = loss_and_grads(np.log(mix), hard, yk, w, alpha, 0.0, "als")
        assert np.abs(dlogits).max() < 1e-12

    def test_rows_of_dlogits_sum_to_zero(self, rng):
        for mode in ("plain", "ls", "als"):
            logits, hard, yk, w = _random_loss_instance(rng)
            _, dlogits, _ = loss_and_grads(logits, hard, yk, w, 0.4, 0.2, mode)
            assert np.abs(dlogits.sum(axis=1)).max() < 1e-14

    def test_gradients_match_finite_differences(self):
        gen = np.random.default_rng(5)
        logits, hard, yk, w = _random_loss_instance(gen)
        alpha, gamma = 0.35, 0.8

        def total() -> float:
            return loss_and_grads(logits, hard, yk, w, alpha, gamma, "als")[0].total

        _, dlogits, dw = loss_and_grads(logits, hard, yk, w, alpha, gamma, "als")
        fd_logits = central_diff(total, logits)
        fd_w = central_diff(total, w.w)
        assert rel_err(dlogits, fd_logits) < 1e-6
        assert rel_err(dw, fd_w) < 1e-6

    def test_stop_gradient_drops_soft_pull(self, rng):
        logits, hard, yk, w = _random_loss_instance(rng)
        alpha = 0.4
        full_bd, full_dl, full_dw = loss_and_grads(logits, hard, yk, w, alpha, 0.1, "als")
        stop_bd, stop_dl, stop_dw = loss_and_grads(logits, hard, yk, w, alpha, 0.1, "als",
                                                   stop_gradient_yhat=True)
        probs = softmax_rows(logits)
        assert np.allclose(stop_dl, (1 - alpha) * (probs - hard) / logits.shape[0])
        assert full_bd.total == stop_bd.total
        assert np.array_equal(full_dw, stop_dw)
        assert not np.allclose(full_dl, stop_dl)

    def test_linearity_identity_on_random_instances(self):
        # mixing the targets then taking cross-entropy equals mixing the
        # cross-entropies; the loss composition relies on this identity
        gen = np.random.default_rng(11)
        for _ in range(200):
            c = int(gen.integers(2, 9))
            y = np.zeros(c)
            y[int(gen.integers(c))] = 1.0
            soft = random_distribution(gen, c)
            pred = random_distribution(gen, c)
            alpha = float(gen.random())
            lhs = -np.sum(((1 - alpha) * y + alpha * soft) * np.log(pred))
            rhs = (1 - alpha) * -np.sum(y * np.log(pred)) + alpha * -np.sum(soft * np.log(pred))
            assert abs(lhs - rhs) < 1e-12

    def test_als_with_zero_strength_equals_plain_exactly(self, rng):
        for _ in range(20):
            logits, hard, yk, w = _random_loss_instance(rng)
            plain_bd, plain_dl, plain_dw = loss_and_grads(logits, hard)
            als_bd, als_dl, als_dw = loss_and_grads(logits, hard, yk, w, 0.0, 0.0, "als")
            assert als_bd.total == plain_bd.total
            assert np.array_equal(als_dl, plain_dl)
            assert np.array_equal(als_dw, plain_dw)

    def test_als_with_zero_relevance_equals_ls_exactly(self, rng):
        for _ in range(20):
            logits, hard, yk, _ = _random_loss_instance(rng)
            c = logits.shape[1]
            zero_w = RefinementMatrix(np.zeros((c, c)))
            alpha = float(rng.random())
            ls_bd, ls_dl, _ = loss_and_grads(logits, hard, alpha_t=alpha, mode="ls")
            als_bd, als_dl, _ = loss_and_grads(logits, hard, yk, zero_w, alpha, 0.0, "als")
            assert als_bd.total == ls_bd.total
            assert als_bd.ce_hard == ls_bd.ce_hard
            assert als_bd.ce_soft == ls_bd.ce_soft
            assert np.array_equal(als_dl, ls_dl)

    def test_breakdown_identity_in_als_mode(self, rng):
        for _ in range(50):
            logits, hard, yk, w = _random_loss_instance(rng)
            alpha, gamma = float(rng.random()), float(rng.random())
            bd, _, _ = loss_and_grads(logits, hard, yk, w, alpha, gamma, "als")
            recomposed = (1 - alpha) * bd.ce_hard + alpha * bd.ce_soft + gamma * bd.kl_term
            assert abs(bd.total - recomposed) < 1e-12

    def test_refinement_cost_scales_as_batch_times_classes_squared(self, rng):
        def madds(batch, c):
            gen = np.random.default_rng(0)
            logits, hard, yk, w = _random_loss_instance(gen, batch=batch, c=c)
            before = refinement_op_count()
            loss_and_grads(logits, hard, yk, w, 0.3, 0.1, "als")
            return refinement_op_count() - before

        base = madds(8, 4)
        assert madds(16, 4) == 2 * base
        assert madds(8, 8) == 4 * base
        before = refinement_op_count()
        loss_and_grads(*_random_loss_instance(rng)[:2])  # plain path costs nothing
        assert refinement_op_count() == before

    def test_errors(self, rng):
        logits, hard, yk, w = _random_loss_instance(rng)
        with pytest.raises(ValueError, match="empty"):
            loss_and_grads(np.zeros((0, 3)), np.zeros((0, 3)))
        with pytest.raises(ValueError):
            loss_and_grads(logits, hard, yk, w, -0.1, 0.0, "als")
        with pytest.raises(ValueError):
            loss_and_grads(logits, hard, yk, w, 0.1, -1.0, "als")
        with pytest.raises(ValueError, match="als mode"):
            loss_and_grads(logits, hard, None, None, 0.1, 0.0, "als")
        with pytest.raises(ValueError, match="mode"):
            loss_and_grads(logits, hard, mode="scaled")

    def test_breakdown_is_frozen(self):
        bd = LossBreakdown(1.0, 1.0, 0.0, 0.0)
        with pytest.raises(AttributeError):
            bd.total = 2.0
