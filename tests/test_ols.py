import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olsofu.errors import InvalidArgumentError
from olsofu.estimator import MarginalEstimate
from olsofu.models import forward, init_model, with_updates
from olsofu.numkit import is_simplex, make_rng, project_simplex
from olsofu.ofu import build_context
from olsofu.ols import (
    AlgoParams,
    AtlasStrategy,
    BaseStrategy,
    FlhftlStrategy,
    FthStrategy,
    FtfwhStrategy,
    RogdStrategy,
    UogdStrategy,
    atlas_pool_size,
    atlas_step_pool,
    head_risks_and_grads,
    per_class_risk_jacobian,
    reweight_probs,
)
from olsofu.numkit import softmax
from olsofu.synthdata import LabeledSet, class_layout

UNIFORM4 = np.full(4, 0.25)


def est(v):
    v = np.asarray(v, dtype=float)
    return MarginalEstimate(v, project_simplex(v))


def random_estimates(rng, n, k=4):
    return [est(project_simplex(rng.normal(size=k))) for _ in range(n)]


def stacked(*heads):
    """Stack (w, b) pairs into the (N, K, h+1) layout of the head strategies."""
    return np.stack([np.column_stack([w, b]) for w, b in heads])


def class_labels(ctx):
    """The label of each column of the class-ordered ``ctx.xt``."""
    return np.concatenate([np.full(sl.stop - sl.start, k)
                           for k, sl in enumerate(ctx.classes.slices)])


def reference_risk_grad(feats, labels, w, b, s):
    """Row-major, one-head value and gradient of sum_k s_k * R_k(w, b)."""
    n = feats.shape[0]
    class_counts = np.bincount(labels, minlength=s.size)
    probs = softmax(feats @ w.T + b)
    picked = np.maximum(probs[np.arange(n), labels], 1e-300)
    per_sample = s[labels] / class_counts[labels]
    value = float((per_sample * -np.log(picked)).sum())
    d = probs.copy()
    d[np.arange(n), labels] -= 1.0
    d *= per_sample[:, None]
    return value, d.T @ feats, d.sum(axis=0)


class ReferenceAtlas:
    """ATLAS as a plain loop over separate UOGD experts."""

    def __init__(self, f0, etas, eps, radius=100.0):
        self.experts = [
            [f0.linear_w.copy(), f0.linear_b.copy(), float(e)] for e in etas
        ]
        self.eps = eps
        self.radius = radius
        self.cum_risk = np.zeros(len(etas))
        self.meta = np.full(len(etas), 1.0 / len(etas))

    def step(self, ctx, s):
        feats = ctx.xt[:-1].T
        for i, (w, b, eta) in enumerate(self.experts):
            risk, gw, gb = reference_risk_grad(
                feats, class_labels(ctx), w, b, s
            )
            self.cum_risk[i] += risk
            w, b = w - eta * gw, b - eta * gb
            norm = np.sqrt((w * w).sum() + (b * b).sum())
            if norm > self.radius:
                w, b = w * (self.radius / norm), b * (self.radius / norm)
            self.experts[i] = [w, b, eta]
        logits = -self.eps * self.cum_risk
        logits -= logits.max()
        w = np.exp(logits)
        self.meta = w / w.sum()

    def head(self):
        w = sum(p * e[0] for p, e in zip(self.meta, self.experts))
        b = sum(p * e[1] for p, e in zip(self.meta, self.experts))
        return w, b


class TestReweight:
    def test_identity_ratio(self):
        probs = np.array([0.2, 0.5, 0.3])
        np.testing.assert_allclose(reweight_probs(probs, np.ones(3)), probs)

    def test_one_hot_prediction_unchanged(self):
        probs = np.array([0.0, 1.0, 0.0])
        out = reweight_probs(probs, np.array([5.0, 0.2, 1.0]))
        np.testing.assert_allclose(out, probs)

    def test_direct_arithmetic(self):
        out = reweight_probs(np.array([0.5, 0.5]), np.array([2.0, 1.0]))
        np.testing.assert_allclose(out, [2 / 3, 1 / 3])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
        st.lists(st.floats(0.01, 5.0), min_size=3, max_size=3),
        st.floats(0.1, 20.0),
    )
    def test_argmax_invariant_to_ratio_scaling(self, probs, ratio, scale):
        p = np.asarray(probs) / np.sum(probs)
        r = np.asarray(ratio)
        a = reweight_probs(p, r)
        b = reweight_probs(p, scale * r)
        assert np.argmax(a) == np.argmax(b)
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestFth:
    def test_first_step_returns_first_estimate(self):
        strat = FthStrategy(UNIFORM4)
        s1 = est([0.7, 0.1, 0.1, 0.1])
        strat.step(None, s1)
        np.testing.assert_array_equal(strat.reweight_vector(), s1.clipped)

    def test_symmetric_mean(self):
        strat = FthStrategy(np.array([0.5, 0.5]))
        strat.step(None, est([1.0, 0.0]))
        strat.step(None, est([0.0, 1.0]))
        np.testing.assert_allclose(strat.reweight_vector(), [0.5, 0.5])

    def test_matches_brute_force(self, rng):
        strat = FthStrategy(UNIFORM4)
        seen = []
        for e in random_estimates(rng, 10):
            strat.step(None, e)
            seen.append(e.clipped)
            brute = np.mean(seen, axis=0)
            assert np.abs(strat.reweight_vector() - brute).max() <= 1e-12


class TestFtfwh:
    def test_wide_window_equals_fth(self, rng):
        wide = FtfwhStrategy(UNIFORM4, AlgoParams(window=50))
        fth = FthStrategy(UNIFORM4)
        for e in random_estimates(rng, 20):
            wide.step(None, e)
            fth.step(None, e)
        np.testing.assert_allclose(
            wide.reweight_vector(), fth.reweight_vector(), atol=1e-12
        )

    def test_window_one_follows_latest(self, rng):
        strat = FtfwhStrategy(UNIFORM4, AlgoParams(window=1))
        for e in random_estimates(rng, 5):
            strat.step(None, e)
            np.testing.assert_array_equal(strat.reweight_vector(), e.clipped)

    def test_window_three_over_five(self, rng):
        strat = FtfwhStrategy(UNIFORM4, AlgoParams(window=3))
        estimates = random_estimates(rng, 5)
        for e in estimates:
            strat.step(None, e)
        brute = np.mean([e.clipped for e in estimates[-3:]], axis=0)
        assert np.abs(strat.reweight_vector() - brute).max() <= 1e-12


class TestRogd:
    def test_zero_step_size_keeps_weights(self, small_pretrained):
        pre = small_pretrained
        ctx = build_context(pre.model, pre.train)
        strat = RogdStrategy(pre.q0, 100, AlgoParams(eta=0.0))
        before = strat.reweight_vector()
        strat.step(ctx, est([0.7, 0.1, 0.1, 0.1]))
        np.testing.assert_array_equal(strat.reweight_vector(), before)

    def test_jacobian_matches_finite_differences(self, small_pretrained):
        pre = small_pretrained
        ctx = build_context(pre.model, pre.train)
        p = np.array([0.4, 0.3, 0.2, 0.1])

        def risks(pvec):
            out = np.empty(4)
            ratio = pvec / pre.q0
            for k in range(4):
                a = ctx.train_probs[ctx.classes.slices[k]]
                g = a[:, k] * ratio[k] / (a @ ratio)
                out[k] = 1.0 - g.mean()
            return out

        jac = per_class_risk_jacobian(ctx.train_probs, ctx.classes, p, pre.q0)
        eps = 1e-6
        for m_coord in range(4):
            bump = np.zeros(4)
            bump[m_coord] = eps
            fd = (risks(p + bump) - risks(p - bump)) / (2 * eps)
            rel = np.abs(jac[:, m_coord] - fd) / np.maximum(np.abs(fd), 1e-6)
            assert rel.max() < 1e-3

    def test_saturated_predictions_have_zero_jacobian(self):
        # Exactly one-hot train predictions make every per-class risk flat.
        probs = np.eye(4)[np.repeat(np.arange(4), 5)]
        jac = per_class_risk_jacobian(probs, class_layout([5] * 4), UNIFORM4.copy(), UNIFORM4)
        np.testing.assert_allclose(jac, 0.0, atol=1e-14)

    def test_matches_per_class_reference(self, small_pretrained, rng):
        pre = small_pretrained
        ctx = build_context(pre.model, pre.train)

        def reference(train_probs, class_slices, p, q0):
            ratio = p / q0
            jac = np.zeros((4, 4))
            for k, sl in enumerate(class_slices):
                a = train_probs[sl]
                denom = a @ ratio
                g_k = a[:, k] * ratio[k] / denom
                jac[k] = ((g_k / denom)[:, None] * a).mean(axis=0) / q0
                jac[k, k] -= (a[:, k] / denom).mean() / q0[k]
            return jac

        for p in [UNIFORM4, np.array([0.7, 0.1, 0.1, 0.1]), *rng.dirichlet(np.ones(4), 5)]:
            np.testing.assert_allclose(
                per_class_risk_jacobian(ctx.train_probs, ctx.classes, p, pre.q0),
                reference(ctx.train_probs, ctx.classes.slices, p, pre.q0), rtol=0, atol=1e-13)

    def test_empty_class_is_named(self):
        probs = np.full((15, 4), 0.25)
        classes = class_layout([5, 5, 0, 5])
        with pytest.raises(InvalidArgumentError, match="class 2"):
            per_class_risk_jacobian(probs, classes, UNIFORM4.copy(), UNIFORM4)

    def test_stays_on_simplex(self, small_pretrained, rng):
        pre = small_pretrained
        ctx = build_context(pre.model, pre.train)
        strat = RogdStrategy(pre.q0, horizon=50)
        for e in random_estimates(rng, 25):
            strat.step(ctx, e)
            assert is_simplex(strat.reweight_vector())


class TestFlhftl:
    def test_single_step_returns_estimate(self):
        strat = FlhftlStrategy(UNIFORM4)
        s1 = est([0.6, 0.2, 0.1, 0.1])
        strat.step(None, s1)
        np.testing.assert_allclose(strat.reweight_vector(), s1.clipped, atol=1e-12)

    def test_constant_sequence_converges_exactly(self):
        strat = FlhftlStrategy(UNIFORM4)
        v = np.array([0.4, 0.3, 0.2, 0.1])
        for t in range(50):
            strat.step(None, est(v))
            if t >= 1:
                np.testing.assert_allclose(strat.reweight_vector(), v, atol=1e-6)

    def test_tracks_piecewise_constant_faster_than_ftl(self):
        v = np.array([0.7, 0.1, 0.1, 0.1])
        u = np.array([0.1, 0.1, 0.1, 0.7])
        strat = FlhftlStrategy(UNIFORM4)
        seen = []
        for t in range(100):
            s = v if t < 50 else u
            strat.step(None, est(s))
            seen.append(s)
        ftl_prediction = np.mean(seen, axis=0)
        adaptive_err = np.abs(strat.reweight_vector() - u).sum()
        ftl_err = np.abs(ftl_prediction - u).sum()
        assert adaptive_err < 0.05
        assert adaptive_err < ftl_err

    def test_live_experts_follow_geometric_lifetimes(self):
        # Expert j = r * 2^m, r odd, is dropped at step j + 4 * 2^m.
        strat = FlhftlStrategy(UNIFORM4)
        e = est([0.4, 0.3, 0.2, 0.1])
        for t in range(1, 2001):
            strat.step(None, e)
            expected = [j for j in range(1, t + 1) if j + 4 * (j & -j) > t]
            np.testing.assert_array_equal(strat.births, expected)
            assert strat.births.size <= 2 * (int(np.log2(t)) + 1)
            assert strat.weights.size == strat.sums.shape[0] == strat.births.size
        assert strat.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_first_steps_before_any_expiry_are_unchanged(self):
        # Step 5 drops expert 1, the first to expire. These are the outputs
        # of the capped implementation the lifetime rule replaced, whose cap
        # the first steps did not reach.
        expected = [
            ["0x0.0p+0", "0x1.2291181d33057p-1", "0x1.baddcfc599f52p-2", "0x0.0p+0"],
            ["0x0.0p+0", "0x1.836c2026eeb1fp-3", "0x1.5f4784df5725fp-1",
             "0x1.feeb98b7696d3p-4"],
            ["0x1.95886ab307612p-5", "0x1.6146413ef314ap-4", "0x1.9dd9acd1af596p-1",
             "0x1.ca5045b41cdffp-5"],
            ["0x1.32713cb8fa4dbp-2", "0x1.01b62a5fa96b0p-4", "0x1.b47ae186d41b5p-2",
             "0x1.b14cae508e78ep-3"],
        ]
        gen = np.random.default_rng(11)
        strat = FlhftlStrategy(UNIFORM4)
        for want in expected:
            strat.step(None, est(gen.normal(size=4)))
            assert [x.hex() for x in strat.reweight_vector()] == want


def project_as_row(v):
    """``project_simplex`` through its (m, K) path, which its one-vector
    path must match bit for bit."""
    return project_simplex(v[None])[0]


class ReferenceFtfwh(BaseStrategy):
    """FTFWH with its window as a list of estimate copies."""

    def __init__(self, q0, params):
        super().__init__(q0)
        self.window = params.window
        self.history = []

    def step(self, ctx, est):
        self.history.append(est.clipped.copy())
        if len(self.history) > self.window:
            self.history.pop(0)
        self.p = np.mean(self.history, axis=0)


class ReferenceRogd(RogdStrategy):
    """ROGD reading each row's own-class probability at every step."""

    def step(self, ctx, est):
        jac = per_class_risk_jacobian(ctx.train_probs, ctx.classes, self.p, self.q0)
        grad = jac.T @ est.s
        self.t += 1
        if self.t <= self.warmup:
            self.lhat = max(self.lhat, float(np.linalg.norm(grad)))
        if self.eta is not None:
            eta_t = self.eta
        elif self.lhat > 0:
            eta_t = math.sqrt(2.0 / self.horizon) / self.lhat
        else:
            eta_t = 0.0
        self.p = project_as_row(self.p - eta_t * grad)


class ReferenceFlhftl(BaseStrategy):
    """FLH-FTL growing and pruning its expert arrays by concatenation and
    masks, and recomputing the forecasts it scores."""

    def __init__(self, q0):
        super().__init__(q0)
        k = self.q0.shape[0]
        self.eta = k / 2.0
        self.sums = np.zeros((0, k))
        self.births = np.zeros(0, dtype=int)
        self.weights = np.zeros(0)
        self.t = 0

    def step(self, ctx, est):
        s = est.clipped
        self.t += 1
        if self.weights.size:
            preds = self.sums / (self.t - self.births)[:, None]
            losses = ((preds - s) ** 2).sum(axis=1)
            logw = np.log(np.maximum(self.weights, 1e-300)) - self.eta * losses
            logw -= logw.max()
            w = np.exp(logw)
            self.weights = w / w.sum()
        new_share = 1.0 / (self.t + 1.0)
        self.weights = np.concatenate([self.weights * (1.0 - new_share), [new_share]])
        self.weights = self.weights / self.weights.sum()
        self.sums = np.vstack([self.sums + s, s[None, :]])
        self.births = np.append(self.births, self.t)
        live = self.births + 4 * (self.births & -self.births) > self.t
        if not live.all():
            self.weights = self.weights[live] / self.weights[live].sum()
            self.sums, self.births = self.sums[live], self.births[live]
        preds = self.sums / (self.t + 1 - self.births)[:, None]
        self.p = project_as_row(self.weights @ preds)


def extreme_estimates(rng, n, k=4):
    """Raw estimates from near-simplex to the +-1e6 range, off-simplex
    mostly, with their clipped projections."""
    scales = (1e-3, 0.1, 1.0, 1e3, 1e6)
    out = []
    for i in range(n):
        raw = rng.dirichlet(np.ones(k)) + scales[i % len(scales)] * rng.uniform(-1, 1, k)
        out.append(est(np.clip(raw, -1e6, 1e6)))
    return out


def assert_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestReferenceTrajectories:
    """The array-state steps retrace the references above bit for bit."""

    @pytest.mark.parametrize("window", [1, 3, 100])
    def test_ftfwh(self, window, rng):
        params = AlgoParams(window=window)
        strat, ref = FtfwhStrategy(UNIFORM4, params), ReferenceFtfwh(UNIFORM4, params)
        for t, e in enumerate(extreme_estimates(rng, 2 * window + 40), 1):
            strat.step(None, e)
            ref.step(None, e)
            assert len(strat.history) == min(t, window)
            assert_bits(strat.history, np.array(ref.history))
            assert_bits(strat.p, ref.p)
            assert_bits(strat.snapshot(), ref.snapshot())

    @pytest.mark.parametrize("k", [4, 9])
    def test_flhftl_without_horizon(self, k, rng):
        q0 = np.full(k, 1.0 / k)
        strat, ref = FlhftlStrategy(q0), ReferenceFlhftl(q0)
        for e in extreme_estimates(rng, 2100, k):
            strat.step(None, e)
            ref.step(None, e)
            for got, want in ((strat.p, ref.p), (strat.snapshot(), ref.snapshot()),
                              (strat.births, ref.births), (strat.weights, ref.weights),
                              (strat.sums, ref.sums)):
                assert_bits(got, want)

    def test_rogd_on_alternating_contexts(self, small_pretrained, rng):
        pre = small_pretrained
        ctxs = [build_context(m, pre.train, reads=RogdStrategy.reads)
                for m in (pre.model, with_updates(pre.model, temperature=2.0))]
        assert not np.array_equal(ctxs[0].own_probs, ctxs[1].own_probs)
        pairs = [(RogdStrategy(pre.q0, 300, params), ReferenceRogd(pre.q0, 300, params))
                 for params in (AlgoParams(warmup=20), AlgoParams(eta=5.0))]
        for t, e in enumerate(extreme_estimates(rng, 300)):
            for strat, ref in pairs:
                strat.step(ctxs[t % 2], e)
                ref.step(ctxs[t % 2], e)
                assert_bits(strat.p, ref.p)
                assert_bits(strat.snapshot(), ref.snapshot())
                assert strat.lhat == ref.lhat


class TestCheckedParams:
    # The strategies read their hyperparameters from a checked AlgoParams:
    # a window of 0 would average nothing (NaN).
    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: FtfwhStrategy(UNIFORM4, AlgoParams(window=0)), "window"),
        ],
        ids=["ftfwh-window"],
    )
    def test_zero_rejected_naming_field(self, build, field):
        with pytest.raises(InvalidArgumentError, match=f"^{field} ") as exc:
            build()
        assert exc.value.field == field


class TestUogd:
    def test_zero_step_size_keeps_head(self, small_pretrained):
        pre = small_pretrained
        ctx = build_context(pre.model, pre.train)
        strat = UogdStrategy(pre.model, eta=0.0)
        w0, b0 = strat.head()
        strat.step(ctx, est([0.7, 0.1, 0.1, 0.1]))
        w1, b1 = strat.head()
        np.testing.assert_array_equal(w0, w1)
        np.testing.assert_array_equal(b0, b1)

    def test_one_hot_estimate_reduces_to_single_class_gradient(self, small_pretrained):
        pre = small_pretrained
        ctx = build_context(pre.model, pre.train)
        s = np.eye(4)[2]
        _, grads = head_risks_and_grads(
            ctx.xt, ctx.classes, ctx.class_sums,
            stacked((pre.model.linear_w, pre.model.linear_b)), s,
        )
        feats_k = ctx.xt[:-1, ctx.classes.slices[2]].T
        probs = softmax(feats_k @ pre.model.linear_w.T + pre.model.linear_b)
        d = probs.copy()
        d[:, 2] -= 1.0
        d /= feats_k.shape[0]
        np.testing.assert_allclose(grads[0, :, :-1], d.T @ feats_k, atol=1e-12)
        np.testing.assert_allclose(grads[0, :, -1], d.sum(axis=0), atol=1e-12)

    def test_weighted_risk_gradient_matches_finite_differences(self, small_pretrained):
        pre = small_pretrained
        ctx = build_context(pre.model, pre.train)
        s = np.array([0.5, 0.2, 0.2, 0.1])
        w0, b0 = pre.model.linear_w, pre.model.linear_b
        h = w0.shape[1]
        rng = np.random.default_rng(3)
        heads = stacked(
            (w0, b0),
            (0.5 * w0 + 0.1 * rng.standard_normal(w0.shape), -b0),
            (rng.standard_normal(w0.shape), rng.standard_normal(b0.shape)),
        )

        def risks(hs):
            return head_risks_and_grads(
                ctx.xt, ctx.classes, ctx.class_sums, hs, s
            )[0]

        _, grads = head_risks_and_grads(
            ctx.xt, ctx.classes, ctx.class_sums, heads, s
        )
        eps = 1e-6
        # (class, column): three w entries and every class's bias (column h).
        entries = [(0, 3), (2, 10), (3, 0)] + [(c, h) for c in range(4)]
        for i in range(heads.shape[0]):
            for idx in entries:
                bumped = heads.copy()
                bumped[(i, *idx)] += eps
                up = risks(bumped)[i]
                bumped[(i, *idx)] -= 2 * eps
                down = risks(bumped)[i]
                fd = (up - down) / (2 * eps)
                assert abs(grads[(i, *idx)] - fd) / max(abs(fd), 1e-8) < 1e-4

    def test_non_finite_logits_rejected(self, small_pretrained):
        pre = small_pretrained
        ctx = build_context(pre.model, pre.train)
        heads = stacked((pre.model.linear_w, pre.model.linear_b))
        heads[0, 1, 0] = np.nan
        with pytest.raises(InvalidArgumentError):
            head_risks_and_grads(
                ctx.xt, ctx.classes, ctx.class_sums, heads, UNIFORM4
            )

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_feature_rejected(self, small_pretrained, bad):
        # An infinite feature makes its column's logits infinite or NaN;
        # the unclamped risk must not turn that into a silent value.
        pre = small_pretrained
        ctx = build_context(pre.model, pre.train)
        xt = ctx.xt.copy()
        xt[5, ctx.classes.slices[1].start + 3] = bad
        heads = stacked((pre.model.linear_w, pre.model.linear_b))
        with pytest.raises(InvalidArgumentError, match="logits must be finite"):
            head_risks_and_grads(xt, ctx.classes, ctx.class_sums, heads, UNIFORM4)

    def test_matches_row_major_reference_for_distinct_heads(self, small_pretrained):
        # Seven heads as ATLAS holds them: the pretrained one, perturbed and
        # random ones, and two on the radius-0.5 ball; s has a negative entry,
        # as a raw estimate may.
        pre = small_pretrained
        ctx = build_context(pre.model, pre.train)
        w0, b0 = pre.model.linear_w, pre.model.linear_b
        rng = np.random.default_rng(17)
        pairs = [(w0, b0), (0.5 * w0, -b0), (2.0 * w0, b0 + 1.0)]
        pairs += [(rng.standard_normal(w0.shape), rng.standard_normal(b0.shape))
                  for _ in range(2)]
        for _ in range(2):
            w, b = rng.standard_normal(w0.shape), rng.standard_normal(b0.shape)
            scale = 0.5 / np.sqrt((w * w).sum() + (b * b).sum())
            pairs.append((scale * w, scale * b))
        s = np.array([0.6, -0.1, 0.3, 0.2])
        risks, grads = head_risks_and_grads(
            ctx.xt, ctx.classes, ctx.class_sums, stacked(*pairs), s
        )
        feats = ctx.xt[:-1].T
        for i, (w, b) in enumerate(pairs):
            risk, gw, gb = reference_risk_grad(feats, class_labels(ctx), w, b, s)
            assert abs(risks[i] - risk) <= 1e-12 * abs(risk)
            ref = np.column_stack([gw, gb])
            assert np.abs(grads[i] - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_norm_ball_projection(self, small_pretrained):
        pre = small_pretrained
        strat = UogdStrategy(pre.model, 1.0, AlgoParams(radius=0.5))
        ctx = build_context(pre.model, pre.train)
        strat.step(ctx, est([0.7, 0.1, 0.1, 0.1]))
        w, b = strat.head()
        norm = np.sqrt((w ** 2).sum() + (b ** 2).sum())
        assert norm <= 0.5 + 1e-12


class TestAtlas:
    def test_pool_formula(self):
        assert atlas_pool_size(1000) == 7
        pool = atlas_step_pool(1000, 4, 0.7)
        assert pool.size == 7
        np.testing.assert_allclose(pool[1:] / pool[:-1], 2.0)

    def test_initial_meta_weights_uniform(self, small_pretrained):
        strat = AtlasStrategy(small_pretrained.model, atlas_step_pool(1000, 4, 0.7),
                              eps=0.1)
        np.testing.assert_array_equal(strat.meta, np.full(7, 1.0 / 7.0))

    def test_singleton_pool_equals_uogd(self, small_pretrained, rng):
        pre = small_pretrained
        ctx = build_context(pre.model, pre.train)
        # UogdStrategy is this pool at meta rate 0: with one expert the rate
        # is irrelevant.
        atlas = AtlasStrategy(pre.model, [0.05], eps=0.1)
        uogd = UogdStrategy(pre.model, eta=0.05)
        for e in random_estimates(rng, 10):
            atlas.step(ctx, e)
            uogd.step(ctx, e)
        np.testing.assert_array_equal(atlas.head()[0], uogd.head()[0])
        np.testing.assert_array_equal(atlas.head()[1], uogd.head()[1])

    def test_identical_experts_collapse(self, small_pretrained, rng):
        pre = small_pretrained
        ctx = build_context(pre.model, pre.train)
        atlas = AtlasStrategy(pre.model, [0.03, 0.03, 0.03], eps=0.2)
        single = UogdStrategy(pre.model, eta=0.03)
        for e in random_estimates(rng, 8):
            atlas.step(ctx, e)
            single.step(ctx, e)
            assert is_simplex(atlas.meta)
        np.testing.assert_allclose(atlas.head()[0], single.head()[0], atol=1e-12)

    def test_meta_weights_favor_smaller_risk(self, small_pretrained, rng):
        pre = small_pretrained
        ctx = build_context(pre.model, pre.train)
        atlas = AtlasStrategy(pre.model, atlas_step_pool(200, 4, pre.confusion.sigma_min),
                              eps=1.0)
        for e in random_estimates(rng, 30):
            atlas.step(ctx, e)
        assert is_simplex(atlas.meta)
        assert atlas.cum_risk.min() > 0

    @pytest.mark.parametrize("radius", [100.0, 0.5])
    def test_batched_experts_match_per_expert_loop(self, small_pretrained, radius):
        pre = small_pretrained
        ctx = build_context(pre.model, pre.train)
        etas = atlas_step_pool(1000, 4, pre.confusion.sigma_min)
        atlas = AtlasStrategy(pre.model, etas, 0.3, AlgoParams(radius=radius))
        ref = ReferenceAtlas(pre.model, etas, eps=0.3, radius=radius)
        rng = np.random.default_rng(11)
        for _ in range(60):
            e = est(rng.normal(0.25, 0.5, size=4))
            atlas.step(ctx, e)
            ref.step(ctx, e.s)
            np.testing.assert_allclose(atlas.cum_risk, ref.cum_risk, rtol=0, atol=1e-12)
            np.testing.assert_allclose(atlas.meta, ref.meta, rtol=0, atol=1e-12)
        assert len(ref.experts) == atlas.heads.shape[0] == 7
        for i, (w, b, _) in enumerate(ref.experts):
            np.testing.assert_allclose(atlas.heads[i, :, :-1], w, rtol=0, atol=1e-12)
            np.testing.assert_allclose(atlas.heads[i, :, -1], b, rtol=0, atol=1e-12)
        for got, want in zip(atlas.head(), ref.head()):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_train_row_order_does_not_matter(self, small_pretrained):
        # Interleaving the classes' train rows differently, each class
        # keeping its rows' relative order, leaves the class-ordered context
        # and so the whole trajectory unchanged, bit for bit.
        pre = small_pretrained
        labels = pre.train.labels
        mixed = np.random.default_rng(23).permutation(labels)
        perm = np.empty(labels.size, dtype=int)
        for c in range(4):
            perm[mixed == c] = np.flatnonzero(labels == c)
        shuffled = LabeledSet(pre.train.inputs[perm], labels[perm])
        assert not np.array_equal(shuffled.labels, labels)
        ctxs = [build_context(pre.model, train) for train in (pre.train, shuffled)]
        assert ctxs[0].classes.slices == ctxs[1].classes.slices
        for name in ("xt", "class_sums", "train_probs", "own_probs"):
            np.testing.assert_array_equal(getattr(ctxs[0], name), getattr(ctxs[1], name))
        etas = atlas_step_pool(1000, 4, pre.confusion.sigma_min)
        runs = [AtlasStrategy(pre.model, etas, 0.3) for _ in ctxs]
        rng = np.random.default_rng(29)
        for _ in range(60):
            e = est(rng.normal(0.25, 0.5, size=4))
            for atlas, ctx in zip(runs, ctxs):
                atlas.step(ctx, e)
            np.testing.assert_array_equal(runs[0].cum_risk, runs[1].cum_risk)
            np.testing.assert_array_equal(runs[0].heads, runs[1].heads)
            np.testing.assert_array_equal(runs[0].played, runs[1].played)

    def test_context_class_layout_matches_the_class_runs(self, small_pretrained):
        pre = small_pretrained
        classes = build_context(pre.model, pre.train).classes
        counts = np.bincount(pre.train.labels, minlength=4)
        np.testing.assert_array_equal(classes.counts, counts)
        np.testing.assert_array_equal(classes.starts, [sl.start for sl in classes.slices])
        assert [sl.stop - sl.start for sl in classes.slices] == list(counts)
        np.testing.assert_array_equal(classes.labels, np.sort(pre.train.labels))
        np.testing.assert_array_equal(classes.labels, pre.train.labels[classes.order])
        empty = class_layout([2, 0, 3])
        assert empty.slices == (slice(0, 2), slice(2, 2), slice(2, 5))
        np.testing.assert_array_equal(empty.labels, [0, 0, 2, 2, 2])
        np.testing.assert_array_equal(empty.order, np.arange(5))

    def test_contexts_on_one_train_set_share_its_layout(self, small_pretrained):
        # The train set is grouped by class once; every context built on it,
        # a refresh's included, reads that one layout.
        pre = small_pretrained
        first = build_context(pre.model, pre.train, reads=())
        assert first.classes is build_context(pre.model, pre.train).classes
        assert first.classes is pre.train.class_layout(4)


class TestHeadStrategyProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4),
            min_size=1, max_size=6,
        ),
        st.sampled_from([0.5, 5.0, 100.0]),
    )
    def test_arbitrary_estimates_keep_heads_bounded(self, small_pretrained,
                                                    estimates, radius):
        pre = small_pretrained
        ctx = build_context(pre.model, pre.train)
        uogd = UogdStrategy(pre.model, 0.05, AlgoParams(radius=radius))
        atlas = AtlasStrategy(pre.model, atlas_step_pool(100, 4, pre.confusion.sigma_min),
                              0.3, AlgoParams(radius=radius))
        for s in estimates:
            e = est(s)
            uogd.step(ctx, e)
            atlas.step(ctx, e)
            heads = [uogd.head(), atlas.head()]
            heads += [(hd[:, :-1], hd[:, -1]) for hd in atlas.heads]
            for w, b in heads:
                assert np.sqrt((w * w).sum() + (b * b).sum()) <= radius + 1e-12
            for state in (uogd.heads, atlas.heads, atlas.cum_risk, atlas.meta,
                          uogd.snapshot(), atlas.snapshot()):
                assert np.isfinite(state).all()
            assert is_simplex(atlas.meta)


class TestReweightStrategyProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4),
            min_size=1, max_size=8,
        ),
    )
    def test_arbitrary_estimates_keep_reweighting_on_simplex(self, small_pretrained,
                                                           estimates):
        # Off-simplex and extreme raw estimates, short windows and warm-ups,
        # and runs long enough for FLH experts to expire.
        pre = small_pretrained
        ctx = build_context(pre.model, pre.train, reads=RogdStrategy.reads)
        fth = FthStrategy(pre.q0)
        ftfwh = FtfwhStrategy(pre.q0, AlgoParams(window=3))
        rogd = RogdStrategy(pre.q0, 100, AlgoParams(warmup=3))
        rogd_fixed = RogdStrategy(pre.q0, 100, AlgoParams(eta=5.0))
        flh = FlhftlStrategy(pre.q0)
        for s in estimates:
            e = est(s)
            for strat in (fth, ftfwh, rogd, rogd_fixed, flh):
                strat.step(ctx, e)
                assert is_simplex(strat.reweight_vector())
                assert np.isfinite(strat.snapshot()).all()
            for state in (fth.running_sum, *ftfwh.history, rogd.p, rogd.lhat,
                          rogd_fixed.p, flh.sums, flh.births, flh.weights,
                          flh.p):
                assert np.isfinite(state).all()
            assert is_simplex(flh.weights)


class TestDeterminism:
    def test_identical_runs_produce_identical_trajectories(self, small_pretrained):
        pre = small_pretrained
        ctx = build_context(pre.model, pre.train)
        estimates = random_estimates(np.random.default_rng(5), 15)

        def run():
            strat = FlhftlStrategy(pre.q0)
            outs = []
            for e in estimates:
                strat.step(ctx, e)
                outs.append(strat.reweight_vector())
            return np.array(outs)

        np.testing.assert_array_equal(run(), run())
