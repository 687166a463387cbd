"""Tests for logistic-regression training and CTR calibration."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bt import Example, ModelTrainer
from repro.bt.model import _irls


def make_examples(n, p_click_with, p_click_without, seed=0, kw="dell"):
    """Synthetic examples where feature presence drives the click rate."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        has_kw = rng.random() < 0.4
        p = p_click_with if has_kw else p_click_without
        y = int(rng.random() < p)
        features = {kw: 1.0} if has_kw else {}
        out.append(Example(user=f"u{i}", ad="ad", time=i, y=y, features=features))
    return out


IDENTITY = staticmethod(lambda ad, f: f)


def identity(ad, features):
    return features


class TestTraining:
    def test_learns_positive_weight(self):
        examples = make_examples(2000, 0.6, 0.05)
        model = ModelTrainer(seed=1).fit("ad", examples, identity)
        idx = model.feature_index["dell"]
        assert model.weights[idx] > 1.0

    def test_learns_negative_weight(self):
        examples = make_examples(2000, 0.01, 0.3)
        model = ModelTrainer(seed=1).fit("ad", examples, identity)
        idx = model.feature_index["dell"]
        assert model.weights[idx] < -1.0

    def test_prediction_orders_examples(self):
        examples = make_examples(2000, 0.6, 0.05)
        model = ModelTrainer(seed=1).fit("ad", examples, identity)
        assert model.predict({"dell": 1.0}) > model.predict({})

    def test_balanced_sampling_equalizes_classes(self):
        examples = make_examples(3000, 0.5, 0.02)
        trainer = ModelTrainer(seed=1, balance_negatives=True)
        model = trainer.fit("ad", examples, identity)
        # balanced: positives about half of the training set
        ratio = model.stats.num_positives / model.stats.num_examples
        assert 0.4 < ratio < 0.6

    def test_unbalanced_keeps_all(self):
        examples = make_examples(1000, 0.5, 0.02)
        trainer = ModelTrainer(seed=1, balance_negatives=False, validation_fraction=0.0)
        model = trainer.fit("ad", examples, identity)
        assert model.stats.num_examples == 1000

    def test_no_positives_degenerates_gracefully(self):
        examples = [
            Example(user=f"u{i}", ad="ad", time=i, y=0, features={"k": 1.0})
            for i in range(50)
        ]
        model = ModelTrainer(seed=1).fit("ad", examples, identity)
        assert model.predict({"k": 1.0}) < 0.5

    def test_stats_populated(self):
        examples = make_examples(500, 0.5, 0.05)
        model = ModelTrainer(seed=1).fit("ad", examples, identity)
        s = model.stats
        assert s.num_features >= 1
        assert s.learn_seconds > 0
        assert s.iterations >= 1
        assert s.avg_profile_entries > 0

    def test_deterministic_given_seed(self):
        examples = make_examples(800, 0.5, 0.05)
        m1 = ModelTrainer(seed=3).fit("ad", list(examples), identity)
        m2 = ModelTrainer(seed=3).fit("ad", list(examples), identity)
        assert m1.intercept == m2.intercept
        assert np.array_equal(m1.weights, m2.weights)


class TestCalibration:
    def test_calibrated_ctr_tracks_true_rates(self):
        examples = make_examples(6000, 0.6, 0.05, seed=2)
        model = ModelTrainer(seed=1, validation_fraction=0.3).fit(
            "ad", examples, identity
        )
        ctr_with = model.predict_ctr({"dell": 1.0})
        ctr_without = model.predict_ctr({})
        assert ctr_with > ctr_without
        assert 0.3 < ctr_with < 0.9
        assert ctr_without < 0.2

    def test_calibration_monotone_on_avg(self):
        examples = make_examples(6000, 0.6, 0.05, seed=2)
        model = ModelTrainer(seed=1).fit("ad", examples, identity)
        lo = model.calibrate(0.1)
        hi = model.calibrate(0.9)
        assert hi >= lo

    def test_empty_calibration_passthrough(self):
        examples = make_examples(200, 0.6, 0.05)
        trainer = ModelTrainer(seed=1, validation_fraction=0.0)
        model = trainer.fit("ad", examples, identity)
        assert model.calibrate(0.37) == 0.37


class TestLearningTimeScaling:
    def test_more_features_cost_more(self):
        """Section V-D: F-Ex's higher dimensionality slows learning."""
        rng = np.random.default_rng(0)
        few, many = [], []
        for i in range(1500):
            y = int(rng.random() < 0.3)
            few.append(Example(f"u{i}", "ad", i, y, {f"k{rng.integers(5)}": 1.0}))
            many.append(
                Example(
                    f"u{i}", "ad", i, y,
                    {f"k{rng.integers(800)}": 1.0 for _ in range(6)},
                )
            )
        t_few = ModelTrainer(seed=1).fit("ad", few, identity).stats
        t_many = ModelTrainer(seed=1).fit("ad", many, identity).stats
        assert t_many.num_features > t_few.num_features
        assert t_many.learn_seconds > t_few.learn_seconds


# -- dense IRLS ≡ the sparse IRLS it replaced ---------------------------------


def ref_irls(x, y, l2, max_iter, tol):
    """The parent's ``_irls`` (scipy-sparse per iteration), verbatim."""
    from scipy import sparse
    from scipy.sparse.linalg import spsolve

    n, d = x.shape
    xb = sparse.hstack([sparse.csr_matrix(np.ones((n, 1))), x], format="csr")
    beta = np.zeros(d + 1)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        eta = xb @ beta
        mu = 1.0 / (1.0 + np.exp(-eta))
        w = np.maximum(mu * (1.0 - mu), 1e-6)
        grad = xb.T @ (y - mu) - l2 * np.concatenate([[0.0], beta[1:]])
        hess = (xb.T @ sparse.diags(w) @ xb).tocsc() + l2 * sparse.eye(d + 1, format="csc")
        step = spsolve(hess, grad)
        beta = beta + step
        if np.max(np.abs(step)) < tol:
            break
    return beta[1:], float(beta[0]), iterations


@st.composite
def designs(draw):
    """(x, y): sparse-ish counts, including no columns and one class."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(0, 6))
    cell = st.one_of(st.just(0.0), st.just(0.0), st.floats(0.5, 9.0).map(lambda v: round(v, 1)))
    x = np.array(draw(st.lists(st.lists(cell, min_size=d, max_size=d), min_size=n, max_size=n)))
    label = draw(st.sampled_from([st.integers(0, 1), st.just(0), st.just(1)]))
    y = np.array(draw(st.lists(label, min_size=n, max_size=n)), dtype=float)
    return x.reshape(n, d), y


class TestDenseIrls:
    @settings(max_examples=60, deadline=None)
    @given(designs(), st.sampled_from([1.0, 0.1, 5.0]))
    def test_same_iterates_as_the_sparse_solver(self, design, l2):
        from scipy import sparse

        x, y = design
        xb = np.hstack([np.ones((len(y), 1)), x])
        weights, intercept, iterations = _irls(xb, y, l2, 25, 1e-6)
        ref_w, ref_b, ref_iterations = ref_irls(sparse.csr_matrix(x), y, l2, 25, 1e-6)
        assert iterations == ref_iterations
        np.testing.assert_allclose(
            np.append(weights, intercept), np.append(ref_w, ref_b), rtol=1e-9, atol=1e-12
        )

    def test_fit_builds_no_scipy_sparse_object(self, monkeypatch):
        from scipy.sparse import _base

        built = []
        original = _base._spbase.__init__

        def counting(self, *args, **kwargs):
            built.append(type(self).__name__)
            original(self, *args, **kwargs)

        monkeypatch.setattr(_base._spbase, "__init__", counting)
        ref_irls(np.ones((2, 1)), np.array([0.0, 1.0]), 1.0, 1, 1e-6)
        assert built  # the wrap does see the old route
        del built[:]
        model = ModelTrainer(seed=1).fit("ad", make_examples(400, 0.6, 0.05), identity)
        assert model.stats.iterations >= 1 and built == []

    def test_fit_weights_is_fit_without_calibration_and_stats(self):
        examples = make_examples(900, 0.5, 0.05)
        transformed = []

        def transform(ad, features):
            transformed.append(1)
            return features

        full = ModelTrainer(seed=3).fit("ad", examples, transform)
        full_calls = len(transformed)
        del transformed[:]
        bare = ModelTrainer(seed=3).fit_weights("ad", examples, transform)
        assert bare.intercept == full.intercept
        assert np.array_equal(bare.weights, full.weights)
        assert bare.feature_index == full.feature_index
        assert bare.stats.iterations == full.stats.iterations
        # one transform per *training* row; fit adds one per validation
        # row and one more per example
        assert len(transformed) == bare.stats.num_examples
        assert full_calls == len(transformed) + int(900 * 0.25) + 900
        assert bare.calibrate(0.37) == 0.37 and full.calibrate(0.37) != 0.37
