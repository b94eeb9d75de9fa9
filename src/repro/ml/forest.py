"""Random forests built on the CART trees in :mod:`repro.ml.tree`.

The paper's best type-inference model is a Random Forest (grid: NumEstimator
in {5,25,50,75,100}, MaxDepth in {5,10,25,50,100}); downstream models also use
Random Forests for both classification and regression.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.ml.base import (
    BaseEstimator,
    ClassifierMixin,
    RegressorMixin,
    check_array,
    check_X_y,
)
from repro.ml.preprocessing import LabelEncoder
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.ml.tree import pack_trees, route


class _BaseForest(BaseEstimator):
    """``fit`` and unpickling pack the trees into one node table, ``_nodes``,
    that predicts for all trees at once; the trees' arrays become views into
    it.  Pickles leave the table out, so artifact bytes do not change."""

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_nodes", None)
        return state

    def __setstate__(self, state: dict) -> None:
        # Interned names, as pickle's default BUILD makes them: re-pickling
        # then memoizes them the same way and writes the same bytes.
        self.__dict__.update({sys.intern(k): v for k, v in state.items()})
        if "estimators_" in state:
            self._pack()

    def _pack(self) -> None:
        nodes = pack_trees(self.estimators_)
        stops = [*nodes.roots[1:], nodes.feature.shape[0]]
        for tree, start, stop in zip(self.estimators_, nodes.roots, stops):
            tree._feature = nodes.feature[start:stop]
            tree._threshold = nodes.threshold[start:stop]
            tree._value = nodes.value[start:stop]
        self._nodes = nodes

    def _mean_leaf_value(self, X) -> np.ndarray:
        """Mean leaf value per row.  ``accumulate`` adds the trees in
        estimator order (``np.sum`` may add pairwise, changing the bits);
        ``+ 0.0`` is the zero a running sum starts from."""
        self._check_fitted("_nodes")
        X = check_array(X)
        leaf = self._nodes.value[route(self._nodes, X)]
        total = np.add.accumulate(leaf, axis=1)[:, -1] + 0.0
        return total / len(self.estimators_)

    def _bootstrap_index(self, n_samples: int, rng: np.random.Generator):
        if self.bootstrap:
            return rng.integers(0, n_samples, size=n_samples)
        return np.arange(n_samples)

    def _tree_params(self) -> dict:
        return {
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
            "max_thresholds": self.max_thresholds,
        }


class RandomForestClassifier(_BaseForest, ClassifierMixin):
    """Bagged CART classifiers with per-node feature subsampling."""

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int = 25,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = "sqrt",
        max_thresholds: int = 24,
        bootstrap: bool = True,
        random_state: int = 0,
    ):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.max_thresholds = max_thresholds
        self.bootstrap = bootstrap
        self.random_state = random_state

    def fit(self, X, y) -> "RandomForestClassifier":
        X, y = check_X_y(X, y)
        self._encoder = LabelEncoder().fit(y)
        self.classes_ = self._encoder.classes_
        codes = self._encoder.transform(y)
        rng = np.random.default_rng(self.random_state)
        self.estimators_: list[DecisionTreeClassifier] = []
        for tree_index in range(self.n_estimators):
            index = self._bootstrap_index(X.shape[0], rng)
            tree = DecisionTreeClassifier(
                random_state=int(rng.integers(0, 2**31)), **self._tree_params()
            )
            # Fit on codes directly so every tree shares the class ordering.
            tree._encoder = self._encoder
            tree.classes_ = self.classes_
            sub_X, sub_y = X[index], codes[index]
            tree._fit_tree(sub_X, sub_y, len(self.classes_))
            self.estimators_.append(tree)
        self._pack()
        assert self._nodes.value.shape[1] == len(self.classes_)
        return self

    def predict_proba(self, X) -> np.ndarray:
        return self._mean_leaf_value(X)

    def predict(self, X) -> list:
        probs = self.predict_proba(X)
        return self._encoder.inverse_transform(np.argmax(probs, axis=1))

    def feature_importances(self, X, y, n_repeats: int = 1, random_state: int = 0):
        """Permutation importance (accuracy drop per shuffled feature)."""
        X, y = check_X_y(X, y)
        baseline = self.score(X, y)
        rng = np.random.default_rng(random_state)
        importances = np.zeros(X.shape[1])
        for feature in range(X.shape[1]):
            drops = []
            for _ in range(n_repeats):
                shuffled = X.copy()
                rng.shuffle(shuffled[:, feature])
                drops.append(baseline - self.score(shuffled, y))
            importances[feature] = float(np.mean(drops))
        return importances


class RandomForestRegressor(_BaseForest, RegressorMixin):
    """Bagged CART regressors with per-node feature subsampling."""

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int = 25,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = "sqrt",
        max_thresholds: int = 24,
        bootstrap: bool = True,
        random_state: int = 0,
    ):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.max_thresholds = max_thresholds
        self.bootstrap = bootstrap
        self.random_state = random_state

    def fit(self, X, y) -> "RandomForestRegressor":
        X, y = check_X_y(X, y)
        y = y.astype(float)
        rng = np.random.default_rng(self.random_state)
        self.estimators_: list[DecisionTreeRegressor] = []
        for tree_index in range(self.n_estimators):
            index = self._bootstrap_index(X.shape[0], rng)
            tree = DecisionTreeRegressor(
                random_state=int(rng.integers(0, 2**31)), **self._tree_params()
            )
            tree.fit(X[index], y[index])
            self.estimators_.append(tree)
        self._pack()
        return self

    def predict(self, X) -> np.ndarray:
        return self._mean_leaf_value(X)[:, 0]
