"""Tests + property tests for CART trees and random forests."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.models import RandomForestModel
from repro.core.persistence import (
    fingerprint_model,
    load_model,
    model_fingerprint,
    save_model,
)
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor


@pytest.fixture()
def xor_data(rng):
    """XOR: requires depth >= 2, impossible for a linear model."""
    X = rng.uniform(-1, 1, size=(400, 2))
    y = ["a" if (x[0] > 0) != (x[1] > 0) else "b" for x in X]
    return X, y


class TestDecisionTreeClassifier:
    def test_fits_xor(self, xor_data):
        X, y = xor_data
        tree = DecisionTreeClassifier(max_depth=6).fit(X, y)
        assert tree.score(X, y) > 0.95

    def test_max_depth_one_is_a_stump(self, xor_data):
        X, y = xor_data
        tree = DecisionTreeClassifier(max_depth=1).fit(X, y)
        assert tree.depth_ <= 1
        assert tree.n_nodes_ <= 3

    def test_pure_node_stops(self):
        X = np.array([[0.0], [1.0], [2.0]])
        tree = DecisionTreeClassifier().fit(X, ["a", "a", "a"])
        assert tree.n_nodes_ == 1

    def test_min_samples_leaf(self, rng):
        X = rng.normal(size=(50, 2))
        y = ["a" if v > 0 else "b" for v in X[:, 0]]
        tree = DecisionTreeClassifier(min_samples_leaf=25).fit(X, y)
        assert tree.n_nodes_ <= 3

    def test_deterministic_given_seed(self, xor_data):
        X, y = xor_data
        a = DecisionTreeClassifier(max_features=1, random_state=3).fit(X, y)
        b = DecisionTreeClassifier(max_features=1, random_state=3).fit(X, y)
        assert a.predict(X) == b.predict(X)

    def test_proba_shape_and_simplex(self, xor_data):
        X, y = xor_data
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        probs = tree.predict_proba(X)
        assert probs.shape == (len(X), 2)
        assert np.allclose(probs.sum(axis=1), 1.0)

    @given(
        st.integers(10, 60),
        st.integers(1, 4),
    )
    @settings(max_examples=15, deadline=None)
    def test_training_accuracy_improves_with_depth(self, n, dim):
        rng = np.random.default_rng(n * dim)
        X = rng.normal(size=(n, dim))
        y = ["a" if v > 0 else "b" for v in X[:, 0]]
        if len(set(y)) < 2:
            return
        shallow = DecisionTreeClassifier(max_depth=1).fit(X, y)
        deep = DecisionTreeClassifier(max_depth=12).fit(X, y)
        assert deep.score(X, y) >= shallow.score(X, y) - 1e-9


class TestDecisionTreeRegressor:
    def test_step_function(self):
        X = np.linspace(0, 1, 100)[:, None]
        y = np.where(X[:, 0] > 0.5, 10.0, -10.0)
        tree = DecisionTreeRegressor(max_depth=4).fit(X, y)
        pred = tree.predict(X)
        # quantile-capped thresholds may need a couple of splits to isolate
        # the boundary exactly; with depth 4 the fit must be exact
        assert np.abs(pred - y).max() < 1e-9

    def test_smooth_function_approximation(self, rng):
        X = rng.uniform(0, 1, size=(500, 1))
        y = np.sin(2 * np.pi * X[:, 0])
        tree = DecisionTreeRegressor(max_depth=8).fit(X, y)
        mse = float(np.mean((tree.predict(X) - y) ** 2))
        assert mse < 0.01


class TestRandomForest:
    def test_classifier_beats_single_stump(self, xor_data):
        X, y = xor_data
        forest = RandomForestClassifier(n_estimators=20, max_depth=6).fit(X, y)
        assert forest.score(X, y) > 0.95

    def test_deterministic_given_seed(self, xor_data):
        X, y = xor_data
        a = RandomForestClassifier(n_estimators=5, random_state=1).fit(X, y)
        b = RandomForestClassifier(n_estimators=5, random_state=1).fit(X, y)
        assert a.predict(X) == b.predict(X)

    def test_proba_simplex(self, xor_data):
        X, y = xor_data
        forest = RandomForestClassifier(n_estimators=7).fit(X, y)
        probs = forest.predict_proba(X)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert probs.min() >= 0.0

    def test_regressor(self, rng):
        X = rng.uniform(0, 1, size=(400, 2))
        y = 3.0 * X[:, 0] + np.sin(6 * X[:, 1])
        forest = RandomForestRegressor(n_estimators=20, max_depth=10).fit(X, y)
        mse = float(np.mean((forest.predict(X) - y) ** 2))
        assert mse < 0.05

    def test_no_bootstrap_option(self, xor_data):
        X, y = xor_data
        forest = RandomForestClassifier(
            n_estimators=3, bootstrap=False, max_features=None
        ).fit(X, y)
        assert forest.score(X, y) > 0.9

    def test_permutation_importance_finds_signal(self, rng):
        X = rng.normal(size=(300, 3))
        y = ["a" if v > 0 else "b" for v in X[:, 1]]
        forest = RandomForestClassifier(n_estimators=15, max_depth=6).fit(X, y)
        importances = forest.feature_importances(X, y, random_state=0)
        assert int(np.argmax(importances)) == 1


def _tree_leaf_values(tree, X):
    """Reference: one tree at a time, routing only the rows not yet at a
    leaf (the per-tree loop the packed forest replaced)."""
    node = np.zeros(X.shape[0], dtype=np.int64)
    active = tree._feature[node] != -1
    while np.any(active):
        idx = np.nonzero(active)[0]
        current = node[idx]
        go_left = X[idx, tree._feature[current]] <= tree._threshold[current]
        node[idx] = np.where(go_left, tree._left[current], tree._right[current])
        active = tree._feature[node] != -1
    return tree._value[node]


def _tree_by_tree_mean(forest, X):
    """Reference: per-tree leaf values summed in estimator order."""
    total = np.zeros((X.shape[0], forest.estimators_[0]._value.shape[1]))
    for tree in forest.estimators_:
        total += _tree_leaf_values(tree, X)
    return total / len(forest.estimators_)


def _assert_same_bits(actual, expected):
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual, expected)
    assert actual.tobytes() == expected.tobytes()


@st.composite
def _forest_problem(draw):
    """A small dataset (ties, pure labels and 1-row inputs included) plus
    forest sizes; integer-valued features make ties and repeats common."""
    seed = draw(st.integers(0, 2**31 - 1))
    n_rows = draw(st.integers(1, 40))
    n_features = draw(st.integers(1, 5))
    n_classes = draw(st.integers(1, 4))
    levels = draw(st.integers(2, 12))
    n_test = draw(st.sampled_from([1, 2, 7, 30]))
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels, size=(n_rows, n_features)).astype(float)
    X += draw(st.sampled_from([0.0, 0.5])) * rng.normal(size=X.shape)
    X_test = rng.integers(-1, levels + 1, size=(n_test, n_features)) * 1.0
    y_class = rng.integers(0, n_classes, size=n_rows)
    y_value = rng.normal(size=n_rows) * draw(st.sampled_from([0.0, -0.0, 3.0]))
    return {
        "X": X, "X_test": X_test, "y_class": y_class, "y_value": y_value,
        "n_estimators": draw(st.integers(1, 12)),
        "max_depth": draw(st.integers(1, 8)),
        "bootstrap": draw(st.booleans()),
        "random_state": seed % 1000,
    }


class TestPackedPrediction:
    """The packed, level-synchronous forest predicts the same bits as the
    tree-by-tree descent."""

    @given(_forest_problem())
    @settings(max_examples=60, deadline=None)
    def test_forests_match_tree_by_tree_bits(self, problem):
        params = {
            key: problem[key]
            for key in ("n_estimators", "max_depth", "bootstrap",
                        "random_state")
        }
        X, X_test = problem["X"], problem["X_test"]
        classifier = RandomForestClassifier(**params).fit(X, problem["y_class"])
        regressor = RandomForestRegressor(**params).fit(X, problem["y_value"])
        for rows in (X, X_test, X_test[:1]):
            _assert_same_bits(
                classifier.predict_proba(rows),
                _tree_by_tree_mean(classifier, rows),
            )
            _assert_same_bits(
                regressor.predict(rows), _tree_by_tree_mean(regressor, rows)[:, 0]
            )

    @given(_forest_problem())
    @settings(max_examples=30, deadline=None)
    def test_single_trees_match_tree_by_tree_bits(self, problem):
        X, X_test = problem["X"], problem["X_test"]
        depth = problem["max_depth"]
        classifier = DecisionTreeClassifier(max_depth=depth).fit(
            X, problem["y_class"]
        )
        regressor = DecisionTreeRegressor(max_depth=depth).fit(
            X, problem["y_value"]
        )
        for rows in (X, X_test, X_test[:1]):
            _assert_same_bits(
                classifier.predict_proba(rows), _tree_leaf_values(classifier, rows)
            )
            _assert_same_bits(
                regressor.predict(rows), _tree_leaf_values(regressor, rows)[:, 0]
            )

    def test_pure_labels_give_single_node_trees(self):
        X = np.arange(12.0).reshape(6, 2)
        forest = RandomForestClassifier(n_estimators=4).fit(X, ["a"] * 6)
        assert {tree.n_nodes_ for tree in forest.estimators_} == {1}
        _assert_same_bits(forest.predict_proba(X[:1]), np.ones((1, 1)))
        # Every leaf holds -0.0 (a subnormal mean rounds to it); the running
        # sum started from 0.0 gives +0.0.
        y = [-5e-324, 0.0, 0.0, 0.0, 0.0, 0.0]
        regressor = RandomForestRegressor(n_estimators=3, bootstrap=False)
        regressor.fit(X, y)
        assert {str(t._value[0, 0]) for t in regressor.estimators_} == {"-0.0"}
        _assert_same_bits(regressor.predict(X), np.zeros(6))
        _assert_same_bits(
            regressor.predict(X), _tree_by_tree_mean(regressor, X)[:, 0]
        )

    def test_mixed_depth_forest_on_real_features(self, xor_data):
        X, y = xor_data
        forest = RandomForestClassifier(n_estimators=9, max_depth=25).fit(X, y)
        assert len({tree.depth_ for tree in forest.estimators_}) > 1
        _assert_same_bits(forest.predict_proba(X), _tree_by_tree_mean(forest, X))


class TestForestArtifacts:
    """The packed node table is derived state: it never reaches a pickle."""

    @pytest.fixture()
    def forest(self, xor_data):
        X, y = xor_data
        return RandomForestClassifier(n_estimators=6, max_depth=6).fit(X, y)

    def test_pickle_bytes_unchanged_by_prediction(self, forest, xor_data):
        before = pickle.dumps(forest, protocol=pickle.HIGHEST_PROTOCOL)
        forest.predict_proba(xor_data[0])
        assert pickle.dumps(forest, protocol=pickle.HIGHEST_PROTOCOL) == before
        assert "_nodes" not in forest.__getstate__()

    @pytest.mark.parametrize("protocol", [4, 5])
    def test_tree_views_pickle_like_copies(self, forest, protocol):
        for tree in forest.estimators_:
            for name in ("_feature", "_threshold", "_value"):
                array = getattr(tree, name)
                assert array.base is not None  # a view into the table
                assert pickle.dumps(array, protocol=protocol) == pickle.dumps(
                    array.copy(), protocol=protocol
                )

    def test_unpickled_forest_repacks(self, forest, xor_data):
        X = xor_data[0]
        clone = pickle.loads(pickle.dumps(forest))
        assert clone._nodes is not forest._nodes
        _assert_same_bits(clone.predict_proba(X), forest.predict_proba(X))
        _assert_same_bits(clone.predict_proba(X), _tree_by_tree_mean(clone, X))

    def test_save_load_keeps_bits_and_fingerprint(self, small_corpus, tmp_path):
        model = RandomForestModel(n_estimators=5, random_state=3)
        model.fit(small_corpus.dataset)
        profiles = small_corpus.dataset.profiles[:40]
        expected = model.predict_proba(profiles)
        path = tmp_path / "rf.model"
        save_model(model, path)
        loaded = load_model(path)
        _assert_same_bits(loaded.predict_proba(profiles), expected)
        assert model_fingerprint(path) == fingerprint_model(model)
        assert fingerprint_model(loaded) == fingerprint_model(model)
        save_model(loaded, tmp_path / "again.model")
        assert model_fingerprint(tmp_path / "again.model") == model_fingerprint(
            path
        )

    def test_refit_replaces_the_table(self, forest, xor_data, rng):
        X, y = xor_data
        forest.predict_proba(X)
        old_nodes = forest._nodes
        X_other = rng.uniform(-1, 1, size=(120, 2))
        y_other = ["a" if v > 0.3 else "b" for v in X_other[:, 1]]
        forest.fit(X_other, y_other)
        fresh = RandomForestClassifier(**forest.get_params()).fit(X_other, y_other)
        assert forest._nodes is not old_nodes
        _assert_same_bits(forest.predict_proba(X), fresh.predict_proba(X))
        _assert_same_bits(forest.predict_proba(X), _tree_by_tree_mean(forest, X))
