"""CART decision trees (classification with Gini, regression with MSE).

Implemented from scratch on numpy.  Split search is vectorized: for each
candidate feature the gain of up to ``max_thresholds`` quantile thresholds is
evaluated in one broadcasted pass, which keeps pure-Python overhead per node
small enough for random forests at benchmark scale.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.ml.base import (
    BaseEstimator,
    ClassifierMixin,
    RegressorMixin,
    check_array,
    check_X_y,
)
from repro.ml.preprocessing import LabelEncoder

_LEAF = -1


class _TreeBuilder:
    """Grows one CART tree; shared by the classifier and regressor."""

    def __init__(
        self,
        is_classifier: bool,
        n_classes: int,
        max_depth: int,
        min_samples_split: int,
        min_samples_leaf: int,
        max_features: int | None,
        max_thresholds: int,
        rng: np.random.Generator,
    ):
        self.is_classifier = is_classifier
        self.n_classes = n_classes
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.max_thresholds = max_thresholds
        self.rng = rng
        # flat tree arrays, grown dynamically
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[np.ndarray] = []

    def build(self, X: np.ndarray, y: np.ndarray) -> None:
        if self.is_classifier:
            onehot = np.zeros((y.shape[0], self.n_classes))
            onehot[np.arange(y.shape[0]), y] = 1.0
        else:
            onehot = None
        stack = [(np.arange(X.shape[0]), 0, None, False)]
        while stack:
            index, depth, parent, is_right = stack.pop()
            node_id = self._new_node(y, index)
            if parent is not None:
                if is_right:
                    self.right[parent] = node_id
                else:
                    self.left[parent] = node_id
            if (
                depth >= self.max_depth
                or index.shape[0] < self.min_samples_split
                or self._is_pure(y, index)
            ):
                continue
            split = self._best_split(X, y, onehot, index)
            if split is None:
                continue
            feature, threshold, left_index, right_index = split
            self.feature[node_id] = feature
            self.threshold[node_id] = threshold
            stack.append((right_index, depth + 1, node_id, True))
            stack.append((left_index, depth + 1, node_id, False))

    def _new_node(self, y: np.ndarray, index: np.ndarray) -> int:
        node_id = len(self.feature)
        self.feature.append(_LEAF)
        self.threshold.append(0.0)
        self.left.append(_LEAF)
        self.right.append(_LEAF)
        if self.is_classifier:
            counts = np.bincount(y[index], minlength=self.n_classes).astype(float)
            self.value.append(counts / counts.sum())
        else:
            self.value.append(np.array([float(np.mean(y[index]))]))
        return node_id

    def _is_pure(self, y: np.ndarray, index: np.ndarray) -> bool:
        sub = y[index]
        return bool(np.all(sub == sub[0]))

    def _candidate_thresholds(self, values: np.ndarray) -> np.ndarray:
        unique = np.unique(values)
        if unique.shape[0] < 2:
            return np.empty(0)
        midpoints = (unique[:-1] + unique[1:]) / 2.0
        if midpoints.shape[0] <= self.max_thresholds:
            return midpoints
        quantiles = np.linspace(0, midpoints.shape[0] - 1, self.max_thresholds)
        return midpoints[quantiles.astype(int)]

    def _best_split(self, X, y, onehot, index):
        n = index.shape[0]
        n_features = X.shape[1]
        if self.max_features is not None and self.max_features < n_features:
            features = self.rng.choice(n_features, self.max_features, replace=False)
        else:
            features = np.arange(n_features)

        best_gain = 1e-12
        best = None
        x_node = X[index]
        y_node = y[index]
        if self.is_classifier:
            onehot_node = onehot[index]
            parent_impurity = _gini(np.sum(onehot_node, axis=0))
        else:
            parent_impurity = float(np.var(y_node))
            y_float = y_node.astype(float)

        for feature in features:
            values = x_node[:, feature]
            thresholds = self._candidate_thresholds(values)
            if thresholds.shape[0] == 0:
                continue
            mask = values[:, None] <= thresholds[None, :]  # (n, t)
            n_left = mask.sum(axis=0).astype(float)
            n_right = n - n_left
            valid = (n_left >= self.min_samples_leaf) & (
                n_right >= self.min_samples_leaf
            )
            if not np.any(valid):
                continue
            if self.is_classifier:
                left_counts = onehot_node.T @ mask  # (classes, t)
                total = np.sum(onehot_node, axis=0)[:, None]
                right_counts = total - left_counts
                imp_left = _gini_columns(left_counts, n_left)
                imp_right = _gini_columns(right_counts, n_right)
            else:
                sum_left = y_float @ mask
                sumsq_left = (y_float * y_float) @ mask
                sum_total = float(y_float.sum())
                sumsq_total = float((y_float * y_float).sum())
                imp_left = _variance_columns(sum_left, sumsq_left, n_left)
                imp_right = _variance_columns(
                    sum_total - sum_left, sumsq_total - sumsq_left, n_right
                )
            child = (n_left * imp_left + n_right * imp_right) / n
            gain = parent_impurity - child
            gain[~valid] = -np.inf
            t_best = int(np.argmax(gain))
            if gain[t_best] > best_gain:
                best_gain = float(gain[t_best])
                best = (int(feature), float(thresholds[t_best]), mask[:, t_best])

        if best is None:
            return None
        feature, threshold, left_mask = best
        return feature, threshold, index[left_mask], index[~left_mask]


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    probs = counts / total
    return float(1.0 - np.sum(probs * probs))


def _gini_columns(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Gini impurity per threshold column; counts is (classes, t)."""
    safe = np.where(totals > 0, totals, 1.0)
    probs = counts / safe[None, :]
    return 1.0 - np.sum(probs * probs, axis=0)


def _variance_columns(sums, sumsqs, totals) -> np.ndarray:
    safe = np.where(totals > 0, totals, 1.0)
    mean = sums / safe
    return np.maximum(sumsqs / safe - mean * mean, 0.0)


class NodeTable(NamedTuple):
    """Trees' arrays end to end; children are global ids, a leaf its own."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray


def pack_trees(trees) -> NodeTable:
    """Concatenate fitted trees into one :class:`NodeTable`."""
    sizes = [tree._feature.shape[0] for tree in trees]
    starts = np.cumsum([0] + sizes, dtype=np.int32)
    offset = np.repeat(starts[:-1], sizes)
    own = np.arange(starts[-1], dtype=np.int32)

    def joined(name: str, dtype=None) -> np.ndarray:
        # By default keep the trees' own dtype object: pickle memoizes
        # dtypes by identity, so views of the result pickle as before.
        arrays = [getattr(tree, name) for tree in trees]
        return np.concatenate(arrays, dtype=dtype or arrays[0].dtype)

    def children(name: str) -> np.ndarray:
        local = joined(name, np.int32)
        return np.where(local == _LEAF, own, local + offset)

    return NodeTable(
        feature=joined("_feature"),
        threshold=joined("_threshold"),
        left=children("_left"),
        right=children("_right"),
        value=joined("_value"),
        roots=starts[:-1],
    )


def route(nodes: NodeTable, X: np.ndarray) -> np.ndarray:
    """Leaf id of every row in every tree, shape ``(n_rows, n_trees)``.

    All (row, tree) entries descend one level per pass; an entry at a leaf
    stays put (its read of column ``-1`` only picks between equal
    children), so each row makes exactly the ``<=`` comparisons of a
    tree-by-tree descent.  ``X[row, feature]`` is read from the flattened X.
    """
    node = np.repeat(nodes.roots[None, :], X.shape[0], axis=0)
    row_start = (np.arange(X.shape[0]) * X.shape[1])[:, None]
    flat = X.ravel()
    while True:
        feature = np.take(nodes.feature, node)
        if np.all(feature == _LEAF):
            return node
        x = np.take(flat, row_start + feature)
        go_left = x <= np.take(nodes.threshold, node)
        left, right = np.take(nodes.left, node), np.take(nodes.right, node)
        node = np.where(go_left, left, right)


class _BaseDecisionTree(BaseEstimator):
    def _fit_tree(self, X: np.ndarray, y_codes: np.ndarray, n_classes: int) -> None:
        rng = np.random.default_rng(self.random_state)
        max_features = self._resolve_max_features(X.shape[1])
        builder = _TreeBuilder(
            is_classifier=self._estimator_kind == "classifier",
            n_classes=n_classes,
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=max_features,
            max_thresholds=self.max_thresholds,
            rng=rng,
        )
        builder.build(X, y_codes)
        self._feature = np.array(builder.feature, dtype=np.int64)
        self._threshold = np.array(builder.threshold, dtype=float)
        self._left = np.array(builder.left, dtype=np.int64)
        self._right = np.array(builder.right, dtype=np.int64)
        self._value = np.stack(builder.value)

    def _resolve_max_features(self, n_features: int) -> int | None:
        if self.max_features is None:
            return None
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if self.max_features == "log2":
            return max(1, int(np.log2(n_features)))
        if isinstance(self.max_features, int):
            return max(1, min(self.max_features, n_features))
        raise ValueError(f"bad max_features: {self.max_features!r}")

    def _leaf_values(self, X: np.ndarray) -> np.ndarray:
        """Route every row to its leaf; returns the per-row value vectors."""
        self._check_fitted("_feature")
        nodes = pack_trees([self])
        return nodes.value[route(nodes, X)[:, 0]]

    @property
    def n_nodes_(self) -> int:
        self._check_fitted("_feature")
        return int(self._feature.shape[0])

    @property
    def depth_(self) -> int:
        self._check_fitted("_feature")
        depth = np.zeros(self.n_nodes_, dtype=np.int64)
        for node in range(self.n_nodes_):
            for child in (self._left[node], self._right[node]):
                if child != _LEAF:
                    depth[child] = depth[node] + 1
        return int(depth.max()) if self.n_nodes_ else 0


class DecisionTreeClassifier(_BaseDecisionTree, ClassifierMixin):
    """CART classifier with Gini impurity and quantile-capped thresholds."""

    def __init__(
        self,
        max_depth: int = 25,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        max_thresholds: int = 24,
        random_state: int = 0,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.max_thresholds = max_thresholds
        self.random_state = random_state

    def fit(self, X, y) -> "DecisionTreeClassifier":
        X, y = check_X_y(X, y)
        self._encoder = LabelEncoder().fit(y)
        self.classes_ = self._encoder.classes_
        codes = self._encoder.transform(y)
        self._fit_tree(X, codes, len(self.classes_))
        return self

    def predict_proba(self, X) -> np.ndarray:
        X = check_array(X)
        return self._leaf_values(X)

    def predict(self, X) -> list:
        probs = self.predict_proba(X)
        return self._encoder.inverse_transform(np.argmax(probs, axis=1))


class DecisionTreeRegressor(_BaseDecisionTree, RegressorMixin):
    """CART regressor with variance reduction."""

    def __init__(
        self,
        max_depth: int = 25,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        max_thresholds: int = 24,
        random_state: int = 0,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.max_thresholds = max_thresholds
        self.random_state = random_state

    def fit(self, X, y) -> "DecisionTreeRegressor":
        X, y = check_X_y(X, y)
        self._fit_tree(X, y.astype(float), n_classes=0)
        return self

    def predict(self, X) -> np.ndarray:
        X = check_array(X)
        return self._leaf_values(X)[:, 0]
