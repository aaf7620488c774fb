"""CART: impurity, split search against brute force, growth invariants."""

import builtins
import hashlib
import json
import math

import pytest

import pvml.trees

from pvml.core import CATEGORICAL, REAL, CategoricalOutput, RealOutput, build_dataset, make_example
from pvml.data import InMemoryDataSource
from pvml.ensemble import ADABOOST, BAGGING, RANDOM_FOREST, EnsembleConfig, train_ensemble
from pvml.errors import EmptyNode
from pvml.persist import model_to_container
from pvml.provenance import provenance_hash
from pvml.rng import Xoshiro256StarStar
from pvml.trees import (
    EXHAUSTIVE,
    LEAF,
    RANDOM_THRESHOLD,
    CartTrainer,
    TreeModel,
    TreeConfig,
    _Row,
    _node_of_rows,
    best_split,
    best_splits,
    gini_impurity,
    train_cart,
    weighted_variance,
)


class TestImpurity:
    def test_uniform_two_class_gini(self):
        assert gini_impurity({"a": 1.0, "b": 1.0}) == 0.5

    def test_pure_node_gini(self):
        assert gini_impurity({"a": 5.0}) == 0.0

    def test_weighted_gini(self):
        # weights 3:1 -> 1 - (0.75^2 + 0.25^2) = 0.375
        assert gini_impurity({"a": 3.0, "b": 1.0}) == pytest.approx(0.375, abs=1e-15)

    def test_variance_of_two_targets(self):
        assert weighted_variance([1.0, 3.0], [1.0, 1.0]) == 1.0

    def test_variance_squares_by_product_not_pow(self):
        """libm's ``pow``, and so ``x ** 2``, can round otherwise than ``x * x``,
        and glibc picks its variant by the CPU; the variance uses the product."""
        rng = Xoshiro256StarStar(7)
        sample = (1e3 * (2.0 * rng.next_float() - 1.0) for _ in range(20_000))
        x = next((x for x in sample if x**2 != x * x), None)
        if x is None:
            pytest.skip("this platform's pow squares every sampled value as the product does")
        # the mean is 0.0, so each deviation is exactly x or -x
        assert weighted_variance([x, -x], [1.0, 1.0]) == x * x

    def test_empty_node_rejected(self):
        with pytest.raises(EmptyNode):
            gini_impurity({})
        with pytest.raises(EmptyNode):
            weighted_variance([], [])

    @pytest.mark.parametrize("task", [CATEGORICAL, REAL])
    def test_a_node_s_impurity_is_the_formula_s_to_the_bit(self, task):
        # the search adds each node's rows as tables; it must round as these formulas do
        rng = Xoshiro256StarStar(8)
        for _ in range(200):
            rows = [
                _Row(
                    {0: 1.0},
                    "abc"[rng.next_below(3)] if task == CATEGORICAL else 1e3 * rng.next_float() - 500.0,
                    0.1 + 3.0 * rng.next_float(),
                )
                for _ in range(1 + rng.next_below(30))
            ]
            if task == CATEGORICAL:
                per_label = {}
                for r in rows:
                    per_label[r.target] = per_label.get(r.target, 0.0) + r.weight
                expected = gini_impurity(per_label)
            else:
                expected = weighted_variance([r.target for r in rows], [r.weight for r in rows])
            assert _node_of_rows(rows, [0], task).impurity.hex() == expected.hex()


def _rows(points):
    """points: list of (values-dict-by-id, target, weight)."""
    return [_Row(dict(v), t, w) for v, t, w in points]


def _brute_force_split(rows, feature_ids, cfg, task):
    """Independent oracle: try every (feature, midpoint) pair directly."""

    def impurity(rs):
        if task == CATEGORICAL:
            weights = {}
            for r in rs:
                weights[r.target] = weights.get(r.target, 0.0) + r.weight
            total = sum(weights[k] for k in sorted(weights))
            return 1.0 - sum((weights[k] / total) ** 2 for k in sorted(weights))
        total = sum(r.weight for r in rs)
        mean = sum(r.target * r.weight for r in rs) / total
        return sum(r.weight * (r.target - mean) ** 2 for r in rs) / total

    parent = impurity(rows)
    if parent == 0.0:
        return None
    total_w = sum(r.weight for r in rows)
    best = None
    for fid in feature_ids:
        values = sorted({r.values.get(fid, 0.0) for r in rows})
        for lo, hi in zip(values, values[1:]):
            thr = (lo + hi) / 2.0
            left = [r for r in rows if r.values.get(fid, 0.0) <= thr]
            right = [r for r in rows if r.values.get(fid, 0.0) > thr]
            if len(left) < cfg.min_examples_per_leaf or len(right) < cfg.min_examples_per_leaf:
                continue
            decrease = parent - (len_w(left) * impurity(left) + len_w(right) * impurity(right)) / total_w
            key = (-decrease, fid, thr)
            if best is None or key < best[0]:
                best = (key, fid, thr, decrease)
    if best is None or best[3] < cfg.min_impurity_decrease:
        return None
    return best[1], best[2], best[3]


def len_w(rows):
    return sum(r.weight for r in rows)


class TestBestSplit:
    def test_separating_threshold_found(self):
        rows = _rows([({0: 1.0}, "a", 1.0), ({0: 2.0}, "a", 1.0), ({0: 10.0}, "b", 1.0), ({0: 11.0}, "b", 1.0)])
        cfg = TreeConfig(max_depth=3)
        split = best_split(rows, [0], cfg, CATEGORICAL)
        assert split.feature_id == 0
        assert split.threshold == 6.0
        assert split.impurity_decrease == pytest.approx(0.5, abs=1e-15)

    def test_pure_node_returns_none(self):
        rows = _rows([({0: 1.0}, "a", 1.0), ({0: 2.0}, "a", 1.0)])
        assert best_split(rows, [0], TreeConfig(max_depth=3), CATEGORICAL) is None

    def test_tied_features_pick_lower_id(self):
        # feature 0 and feature 1 are identical copies
        rows = _rows(
            [({0: v, 1: v}, t, 1.0) for v, t in ((0.0, "a"), (1.0, "a"), (2.0, "b"), (3.0, "b"))]
        )
        split = best_split(rows, [0, 1], TreeConfig(max_depth=3), CATEGORICAL)
        assert split.feature_id == 0

    def test_min_leaf_constraint_blocks_extreme_cuts(self):
        rows = _rows([({0: float(i)}, "a" if i < 3 else "b", 1.0) for i in range(4)])
        cfg = TreeConfig(max_depth=3, min_examples_per_leaf=2)
        split = best_split(rows, [0], cfg, CATEGORICAL)
        assert split.threshold == 1.5  # the 3-1 cut at 2.5 is forbidden

    def test_min_impurity_decrease_gate(self):
        rows = _rows([({0: 0.0}, "a", 1.0), ({0: 1.0}, "b", 1.0), ({0: 2.0}, "a", 1.0), ({0: 3.0}, "b", 1.0)])
        permissive = best_split(rows, [0], TreeConfig(max_depth=3), CATEGORICAL)
        strict = best_split(
            rows, [0], TreeConfig(max_depth=3, min_impurity_decrease=0.4), CATEGORICAL
        )
        assert permissive is not None
        assert strict is None

    def test_absent_features_read_as_zero(self):
        rows = _rows([({}, "a", 1.0), ({}, "a", 1.0), ({0: 2.0}, "b", 1.0), ({0: 2.0}, "b", 1.0)])
        split = best_split(rows, [0], TreeConfig(max_depth=3), CATEGORICAL)
        assert split.threshold == 1.0  # midpoint of implicit 0.0 and 2.0

    def test_matches_bruteforce_on_random_instances(self):
        rng = Xoshiro256StarStar(2024)
        # values that are adjacent doubles, whose midpoints round onto one of them
        tight = [1.0, 1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51, 1.0 + 3 * 2.0 ** -52]
        for trial in range(240):
            task = CATEGORICAL if trial % 2 == 0 else REAL
            cfg = TreeConfig(max_depth=3, min_examples_per_leaf=1 + (trial // 2) % 3)
            weighted = trial % 4 >= 2
            offset = 1e6 if trial % 8 >= 4 else 0.0
            n = 2 + rng.next_below(15)
            n_features = 1 + rng.next_below(4)
            rows = []
            for _ in range(n):
                values = {
                    fid: (tight[rng.next_below(4)] if trial % 16 >= 8 and fid == 0 else rng.next_below(8) / 2.0)
                    for fid in range(n_features)
                    if rng.next_float() < 0.8
                }
                if task == CATEGORICAL:
                    target = ("x", "y", "z")[rng.next_below(3)]
                else:
                    target = offset + rng.next_below(5) / 2.0 + rng.next_float() * 1e-3
                weight = 0.1 + rng.next_float() * 3.0 if weighted else 1.0
                rows.append(_Row(values, target, weight))
            expected = _brute_force_split(rows, list(range(n_features)), cfg, task)
            actual = best_split(rows, list(range(n_features)), cfg, task)
            if expected is None:
                assert actual is None
            else:
                assert (actual.feature_id, actual.threshold) == expected[:2]
                assert abs(actual.impurity_decrease - expected[2]) <= 1e-12

    @pytest.mark.parametrize("split_kind", [EXHAUSTIVE, RANDOM_THRESHOLD])
    @pytest.mark.parametrize("task", [CATEGORICAL, REAL])
    def test_no_rows_is_an_empty_node(self, task, split_kind):
        cfg = TreeConfig(max_depth=3, split_kind=split_kind)
        for candidates in ([0], []):
            with pytest.raises(EmptyNode):
                best_split([], candidates, cfg, task, Xoshiro256StarStar(1))

    def test_random_threshold_draws_in_range(self):
        rows = _rows([({0: float(i)}, "a" if i < 5 else "b", 1.0) for i in range(10)])
        cfg = TreeConfig(max_depth=3, split_kind=RANDOM_THRESHOLD)
        split = best_split(rows, [0], cfg, CATEGORICAL, Xoshiro256StarStar(4))
        assert 0.0 <= split.threshold < 9.0

    def test_random_threshold_on_a_value_sends_it_left(self):
        class ZeroDraws:
            def next_float(self):
                return 0.0

        rows = _rows([({0: 0.0}, "a", 1.0), ({0: 0.0}, "a", 1.0), ({0: 1.0}, "b", 1.0), ({0: 2.0}, "b", 1.0)])
        cfg = TreeConfig(max_depth=3, split_kind=RANDOM_THRESHOLD)
        split = best_split(rows, [0], cfg, CATEGORICAL, ZeroDraws())
        assert (split.feature_id, split.threshold, split.impurity_decrease) == (0, 0.0, 0.5)

    def test_random_threshold_deterministic_per_seed(self):
        rows = _rows([({0: float(i)}, "a" if i < 5 else "b", 1.0) for i in range(10)])
        cfg = TreeConfig(max_depth=3, split_kind=RANDOM_THRESHOLD)
        a = best_split(rows, [0], cfg, CATEGORICAL, Xoshiro256StarStar(4))
        b = best_split(rows, [0], cfg, CATEGORICAL, Xoshiro256StarStar(4))
        assert a == b


def _depth(model):
    """The depth of the deepest row of the node table, whose children follow their parents."""
    depths = [0] * len(model.nodes)
    for i, (_, _, left, right) in enumerate(model.nodes):
        if left >= 0:
            depths[left] = depths[right] = depths[i] + 1
    return max(depths)


SPLIT = (0, 0.5, 1, 2)  # a split whose children are rows 1 and 2
TABLES = {
    "empty": ([], {}),
    "right-child-is-the-split": ([(0, 0.5, 1, 0), LEAF, LEAF], {1: (1, 0.0), 2: (1, 1.0)}),
    "right-child-past-the-end": ([(0, 0.5, 1, 3), LEAF, LEAF], {1: (1, 0.0), 2: (1, 1.0)}),
    "right-child-is-the-left": ([(0, 0.5, 1, 1), LEAF, LEAF], {1: (1, 0.0), 2: (1, 1.0)}),
    "right-subtree-first": ([(0, 0.5, 2, 1), LEAF, LEAF], {1: (1, 0.0), 2: (1, 1.0)}),
    "child-before-its-parent": ([LEAF, (0, 0.5, 0, 2), LEAF], {0: (1, 0.0), 2: (1, 1.0)}),
    "cycle": ([SPLIT, (0, 0.5, 0, 2), LEAF], {2: (1, 1.0)}),
    "float-child": ([(0, 0.5, 1.0, 2), LEAF, LEAF], {1: (1, 0.0), 2: (1, 1.0)}),
    "unreachable-row": ([LEAF, LEAF], {0: (1, 0.0), 1: (1, 1.0)}),
    "leaf-missing": ([SPLIT, LEAF, LEAF], {1: (1, 0.0)}),
    "leaf-at-a-split": ([SPLIT, LEAF, LEAF], {0: (1, 0.0), 1: (1, 0.0), 2: (1, 1.0)}),
    "feature-past-the-domain": ([(2, 0.5, 1, 2), LEAF, LEAF], {1: (1, 0.0), 2: (1, 1.0)}),
    "negative-feature": ([(-1, 0.5, 1, 2), LEAF, LEAF], {1: (1, 0.0), 2: (1, 1.0)}),
    "bool-feature": ([(True, 0.5, 1, 2), LEAF, LEAF], {1: (1, 0.0), 2: (1, 1.0)}),
    "float-feature": ([(0.0, 0.5, 1, 2), LEAF, LEAF], {1: (1, 0.0), 2: (1, 1.0)}),
}


class TestNodeTable:
    """The constructor accepts only a tree in growth order over the domain's
    features, with a leaf entry for exactly each leaf row."""

    def _tree(self, regression_dataset, nodes, leaves):
        assert len(regression_dataset.feature_domain) == 2
        trained = train_cart(regression_dataset, TreeConfig(max_depth=1))
        return TreeModel("t", trained.provenance, trained.feature_domain, trained.output_domain, nodes, leaves)

    def test_a_good_table(self, regression_dataset):
        tree = self._tree(regression_dataset, [SPLIT, LEAF, LEAF], {1: (1, -2.0), 2: (1, 3.0)})
        assert [tree.predict(make_example([("f1", v)])).output.value for v in (0.5, 0.75)] == [-2.0, 3.0]

    @pytest.mark.parametrize("case", sorted(TABLES))
    def test_a_bad_table(self, regression_dataset, case):
        with pytest.raises(ValueError):
            self._tree(regression_dataset, *TABLES[case])

    def test_trained_rows_are_in_growth_order(self, interleaved_dataset):
        model = train_cart(interleaved_dataset, TreeConfig(max_depth=4))
        splits = [(i, left, right) for i, (_, _, left, right) in enumerate(model.nodes) if left >= 0]
        assert len(splits) > 2
        for i, left, right in splits:
            # the left child follows its parent; the right follows the left subtree
            assert left == i + 1
            assert right == left + _size(model, left)


def _size(model, i):
    """The number of rows in the subtree at row ``i``."""
    _, _, left, right = model.nodes[i]
    return 1 if left < 0 else 1 + _size(model, left) + _size(model, right)


class TestTrainCart:
    def test_xor_solved_at_depth_two(self, xor_dataset):
        model = train_cart(xor_dataset, TreeConfig(max_depth=2))
        errors = sum(
            1 for ex in xor_dataset.examples if model.predict(ex).output != ex.output
        )
        assert errors == 0

    def test_xor_stump_cannot_separate(self, xor_dataset):
        model = train_cart(xor_dataset, TreeConfig(max_depth=1))
        errors = sum(
            1 for ex in xor_dataset.examples if model.predict(ex).output != ex.output
        )
        assert errors >= 1

    def test_same_seed_same_structure(self, clf_csv):
        from pvml.data import load_csv

        path, schema = clf_csv
        ds = build_dataset(load_csv(str(path), schema))
        cfg = TreeConfig(max_depth=4, feature_subsampling_fraction=0.5, seed=17)
        a = train_cart(ds, cfg)
        b = train_cart(ds, cfg)
        assert (a.nodes, a.leaves) == (b.nodes, b.leaves)
        assert provenance_hash(a.provenance) == provenance_hash(b.provenance)

    def test_depth_and_leaf_size_bounds(self, interleaved_dataset):
        cfg = TreeConfig(max_depth=3, min_examples_per_leaf=2)
        model = train_cart(interleaved_dataset, cfg)
        assert _depth(model) <= 3
        assert all(n_examples >= 2 for n_examples, _ in model.leaves.values())

    def test_every_example_lands_in_a_leaf_containing_it(self, interleaved_dataset):
        model = train_cart(interleaved_dataset, TreeConfig(max_depth=4))
        domain = interleaved_dataset.feature_domain
        for ex in interleaved_dataset.examples:
            i = 0
            sparse = {domain.ids[f.name]: f.value for f in ex.features}
            feature, threshold, left, right = model.nodes[i]
            while left >= 0:
                i = left if sparse.get(feature, 0.0) <= threshold else right
                feature, threshold, left, right = model.nodes[i]
            _, counts = model.leaves[i]
            assert counts.get(ex.output.label, 0.0) > 0

    def test_accepted_splits_respect_min_decrease(self, interleaved_dataset):
        cfg = TreeConfig(max_depth=4, min_impurity_decrease=0.05)
        model = train_cart(interleaved_dataset, cfg)
        domain = interleaved_dataset.feature_domain
        rows = [
            _Row({domain.ids[f.name]: f.value for f in ex.features}, ex.output.label, ex.weight)
            for ex in interleaved_dataset.examples
        ]

        def audit(i, node_rows):
            feature, threshold, left, right = model.nodes[i]
            if left < 0:
                return
            result = _brute_force_split(node_rows, [0], cfg, CATEGORICAL)
            assert result is not None and result[2] >= cfg.min_impurity_decrease
            audit(left, [r for r in node_rows if r.values.get(feature, 0.0) <= threshold])
            audit(right, [r for r in node_rows if r.values.get(feature, 0.0) > threshold])

        audit(0, rows)

    def test_regression_tree_predicts_leaf_means(self, regression_dataset):
        model = train_cart(regression_dataset, TreeConfig(max_depth=3))
        preds = [model.predict(ex).output.value for ex in regression_dataset.examples]
        assert all(isinstance(p, float) for p in preds)
        # a depth-3 tree over 6 points should fit well
        targets = [ex.output.value for ex in regression_dataset.examples]
        assert sum((p - t) ** 2 for p, t in zip(preds, targets)) < sum(t * t for t in targets)

    def test_extremely_randomized_variant_trains(self, clf_csv):
        from pvml.data import load_csv

        path, schema = clf_csv
        ds = build_dataset(load_csv(str(path), schema))
        cfg = TreeConfig(max_depth=4, split_kind=RANDOM_THRESHOLD, seed=23)
        model = train_cart(ds, cfg)
        accuracy = sum(
            1 for ex in ds.examples if model.predict(ex).output == ex.output
        ) / len(ds.examples)
        assert accuracy >= 0.75


def _golden_dataset(task: str, seed: int):
    """Weighted examples with repeated, absent and far-from-zero values."""
    rng = Xoshiro256StarStar(seed)
    examples = []
    for _ in range(150):
        pairs = [
            (f"x{j}", rng.next_below(40) / 4.0 - 3.0) for j in range(5) if rng.next_float() < 0.85
        ]
        pairs.append(("noise", rng.next_float()))
        signal = sum(v for name, v in pairs if name in ("x0", "x1")) + rng.next_float()
        if task == CATEGORICAL:
            output = CategoricalOutput("abc"[min(2, max(0, int(signal // 3) + 1))])
        else:
            output = RealOutput(1e3 + signal)
        examples.append(make_example(pairs, output, weight=0.5 + rng.next_below(4) / 2.0))
    return build_dataset(InMemoryDataSource(examples))


def _parameter_sha256(model) -> str:
    """SHA-256 of the parameter block as compact sorted-key JSON, members nested."""

    def block(container):
        params = container["parameters"]
        if "members" in params:
            params = {
                "memberWeights": params["memberWeights"],
                "members": [block(m) for m in params["members"]],
            }
        return params

    text = json.dumps(block(model_to_container(model)), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class TestGoldenTrees:
    """Trained parameters pinned bit for bit, so a change to any tree fails here."""

    def test_exhaustive_gini_tree(self):
        model = train_cart(_golden_dataset(CATEGORICAL, 11), TreeConfig(max_depth=5, seed=3))
        assert _parameter_sha256(model) == GOLDEN_EXHAUSTIVE_GINI

    def test_random_forest_regressor(self):
        base = CartTrainer(TreeConfig(max_depth=4, min_examples_per_leaf=2, feature_subsampling_fraction=0.5, seed=5))
        cfg = EnsembleConfig(base_trainer=base, num_members=4, seed=7, variant=RANDOM_FOREST)
        model = train_ensemble(_golden_dataset(REAL, 12), cfg)
        assert _parameter_sha256(model) == GOLDEN_FOREST_REGRESSOR

    def test_random_threshold_tree(self):
        cfg = TreeConfig(max_depth=6, split_kind=RANDOM_THRESHOLD, seed=9)
        model = train_cart(_golden_dataset(CATEGORICAL, 13), cfg)
        assert _parameter_sha256(model) == GOLDEN_RANDOM_THRESHOLD

    def test_bagged_gini_classifier(self):
        # bootstrap samples hold the same example more than once
        base = CartTrainer(TreeConfig(max_depth=4, seed=15))
        cfg = EnsembleConfig(base_trainer=base, num_members=3, seed=16, variant=BAGGING)
        model = train_ensemble(_golden_dataset(CATEGORICAL, 14), cfg)
        assert _parameter_sha256(model) == GOLDEN_BAGGED_GINI

    def test_samme_adaboost(self):
        # every round after the first trains on non-uniform example weights
        base = CartTrainer(TreeConfig(max_depth=2, seed=17))
        cfg = EnsembleConfig(base_trainer=base, num_members=4, seed=18, variant=ADABOOST)
        model = train_ensemble(_golden_dataset(CATEGORICAL, 15), cfg)
        assert len(model.members) == 4
        assert _parameter_sha256(model) == GOLDEN_SAMME_ADABOOST


def _compensated(real_sum):
    """Builtin ``sum`` as Python 3.12 and later add floats: with Neumaier
    compensation.  Anything but a nonempty run of floats goes to ``real_sum``."""

    def compensated(iterable, /, start=0):
        items = list(iterable)
        if not items or not all(type(v) is float for v in items):
            return real_sum(items, start)
        total, compensation = float(start), 0.0
        for v in items:
            t = total + v
            if abs(total) >= abs(v):
                compensation += (total - t) + v
            else:
                compensation += (v - t) + total
            total = t
        return total + compensation if compensation and math.isfinite(compensation) else total

    return compensated


class TestGoldenTreesUnderCompensatedSum(TestGoldenTrees):
    """The same goldens with builtin ``sum`` compensating floats, as from
    Python 3.12 on: training adds in a fixed order, whatever the version."""

    @pytest.fixture(autouse=True)
    def compensated_sum(self, monkeypatch):
        monkeypatch.setattr(builtins, "sum", _compensated(builtins.sum))

    def test_the_patch_compensates(self):
        assert sum([1e16, 1.0, -1e16]) == 1.0
        assert sum(x for x in (1, 2)) == 3


def _split_bits(split):
    if split is None:
        return None
    return split.feature_id, split.threshold.hex(), split.impurity_decrease.hex()


class _Replay:
    """A random stream that yields recorded threshold draws, in order."""

    def __init__(self, draws):
        self.draws = [] if draws is None else draws.tolist()

    def next_float(self):
        return self.draws.pop(0)


def _searched(monkeypatch):
    """Record every ``(node, candidates, draws)`` tree growth searches, with its split."""
    search, seen = pvml.trees.best_splits, []

    def keep(searches, cfg):
        splits = search(searches, cfg)
        seen.extend((*s, cfg, split) for s, split in zip(searches, splits))
        return splits

    monkeypatch.setattr(pvml.trees, "best_splits", keep)
    return seen


class TestNodeView:
    """Tree growth passes node views; a list of the same rows must search alike."""

    @pytest.mark.parametrize("split_kind", [EXHAUSTIVE, RANDOM_THRESHOLD])
    @pytest.mark.parametrize("task", [CATEGORICAL, REAL])
    def test_view_and_row_list_give_the_same_split(self, monkeypatch, task, split_kind):
        seen = _searched(monkeypatch)
        base = CartTrainer(
            TreeConfig(
                max_depth=5,
                min_examples_per_leaf=2,
                feature_subsampling_fraction=0.5,
                split_kind=split_kind,
                seed=19,
            )
        )
        cfg = EnsembleConfig(base_trainer=base, num_members=2, seed=20, variant=RANDOM_FOREST)
        train_ensemble(_golden_dataset(task, 16), cfg)
        monkeypatch.undo()
        splits = []
        for node, candidates, draws, node_cfg, split in seen:
            rows = list(node)
            assert len(rows) == len(node)
            replay = _Replay(draws)
            assert _split_bits(best_split(rows, candidates, node_cfg, task, replay)) == _split_bits(split)
            assert replay.draws == []  # the row list drew what growth drew for the node
            splits.append(split)
        assert len(splits) > 10 and any(s is not None for s in splits)

    def test_root_view_yields_the_dataset_rows(self, monkeypatch):
        dataset = _golden_dataset(CATEGORICAL, 17)
        domain = dataset.feature_domain
        expected = [
            _Row({domain.ids[f.name]: f.value for f in ex.features}, ex.output.label, ex.weight)
            for ex in dataset.examples
        ]
        seen = _searched(monkeypatch)
        train_cart(dataset, TreeConfig(max_depth=2))
        assert list(seen[0][0]) == expected

    @pytest.mark.parametrize("split_kind", [EXHAUSTIVE, RANDOM_THRESHOLD])
    def test_a_node_searches_alike_after_growth(self, monkeypatch, split_kind):
        calls = _searched(monkeypatch)
        cfg = TreeConfig(max_depth=4, min_examples_per_leaf=2, split_kind=split_kind, seed=3)
        train_cart(_golden_dataset(CATEGORICAL, 11), cfg)
        monkeypatch.undo()
        assert len(calls) > 10
        for node, candidates, draws, node_cfg, split in calls:
            assert _split_bits(best_splits([(node, candidates, draws)], node_cfg)[0]) == _split_bits(split)


def _bagged_gini():
    base = CartTrainer(TreeConfig(max_depth=4, seed=15))
    return EnsembleConfig(base_trainer=base, num_members=3, seed=16, variant=BAGGING)


def _forest(split_kind, fraction=0.5):
    base = CartTrainer(
        TreeConfig(max_depth=5, min_examples_per_leaf=2, feature_subsampling_fraction=fraction, split_kind=split_kind, seed=5)
    )
    return EnsembleConfig(base_trainer=base, num_members=4, seed=7, variant=RANDOM_FOREST)


GROWTHS = {
    "single-cart": (CATEGORICAL, lambda dataset: train_cart(dataset, TreeConfig(max_depth=5, seed=3))),
    "bagged-gini": (CATEGORICAL, lambda dataset: train_ensemble(dataset, _bagged_gini())),
    "forest-exhaustive": (REAL, lambda dataset: train_ensemble(dataset, _forest(EXHAUSTIVE))),
    "forest-random-threshold": (REAL, lambda dataset: train_ensemble(dataset, _forest(RANDOM_THRESHOLD))),
    # one candidate a node against three labels, so the label tables bound a pass
    "forest-gini-one-candidate": (CATEGORICAL, lambda dataset: train_ensemble(dataset, _forest(EXHAUSTIVE, 0.1))),
}


class TestBatchedSearch:
    """Trees grown together offer their next nodes to one search; each
    node's split must be the one the search gives that node alone."""

    @pytest.mark.parametrize("growth", sorted(GROWTHS))
    def test_each_node_splits_as_alone(self, monkeypatch, growth):
        task, train = GROWTHS[growth]
        seen = _searched(monkeypatch)
        train(_golden_dataset(task, 18))
        monkeypatch.undo()
        assert len(seen) > 10 and any(split is not None for *_, split in seen)
        for node, candidates, draws, cfg, split in seen:
            alone = best_split(node, candidates, cfg, task, _Replay(draws))
            assert _split_bits(alone) == _split_bits(split)

    @pytest.mark.parametrize("growth", sorted(GROWTHS))
    def test_no_table_outgrows_the_largest_tree_sample(self, monkeypatch, growth):
        task, train = GROWTHS[growth]
        search, sums, two_pass = pvml.trees._search_pass, pvml.trees._running_sums, pvml.trees._two_pass
        passes, tables = [], []

        def keep(searches, cfg):
            sample = searches[0][0].sample
            labels = 1 if sample.labels is None else len(sample.labels)
            width = max(len(node) for node, _, _ in searches)
            block = max(sum(len(c) for _, c, _ in searches), labels * len(searches)) * width
            passes.append((len(searches), block, sample.cells))
            return search(searches, cfg)

        monkeypatch.setattr(pvml.trees, "_search_pass", keep)
        monkeypatch.setattr(pvml.trees, "_running_sums", lambda q, cells, *a: tables.append(cells.size) or sums(q, cells, *a))
        monkeypatch.setattr(pvml.trees, "_two_pass", lambda w, y, keep: tables.append(y.size) or two_pass(w, y, keep))
        dataset = _golden_dataset(task, 18)
        train(dataset)
        # the largest x of one tree: a bootstrap sample's domain is the part of the dataset's it draws
        assert all(cells <= bound <= len(dataset) * len(dataset.feature_domain) for _, cells, bound in passes)
        # every swept column and every impurity table, a classification one holding a row per label
        assert tables and max(tables) <= min(bound for _, _, bound in passes)
        if growth != "single-cart":
            assert max(nodes for nodes, _, _ in passes) > 1  # some pass searches several trees' nodes

    def test_rescoring_many_tied_thresholds_stays_within_the_bound(self, monkeypatch):
        # six copies of one column tie at every threshold, so the best is rescored once per copy
        rows = [_Row({f: float(i % 7) for f in range(6)}, "abc"[i % 3], 1.0) for i in range(60)]
        node = _node_of_rows(rows, range(6), CATEGORICAL)
        two_pass, tables = pvml.trees._two_pass, []
        monkeypatch.setattr(pvml.trees, "_two_pass", lambda w, y, keep: tables.append(y.size) or two_pass(w, y, keep))
        split = best_split(node, range(6), TreeConfig(max_depth=3), CATEGORICAL)
        assert split.feature_id == 0 and len(tables) > 2  # each copy rescored, the first kept
        assert max(tables) <= node.sample.cells == 6 * 60

    def test_a_forest_grows_in_groups_within_the_lockstep_bound(self, monkeypatch):
        dataset = _golden_dataset(REAL, 18)

        def forest():  # a fresh base trainer, so both trainings count invocations alike
            base = CartTrainer(TreeConfig(max_depth=4, feature_subsampling_fraction=0.5, seed=5))
            return EnsembleConfig(base_trainer=base, num_members=12, seed=7, variant=RANDOM_FOREST)

        expected = _parameter_sha256(train_ensemble(dataset, forest()))
        one_tree = len(dataset) * len(dataset.feature_domain)  # any one member's x, but for its padding row
        monkeypatch.setattr(pvml.trees, "LOCKSTEP_CELLS", 3 * one_tree)
        draw, stack, events = pvml.ensemble.bootstrap_sample, pvml.trees._Sample, []
        monkeypatch.setattr(pvml.ensemble, "bootstrap_sample", lambda *a, **k: events.append(None) or draw(*a, **k))

        def stacked(trees, labels):
            sample = stack(trees, labels)
            events.append((len(trees), sample.x.size))
            return sample

        monkeypatch.setattr(pvml.trees, "_Sample", stacked)
        assert _parameter_sha256(train_ensemble(dataset, forest())) == expected
        groups = [event for event in events if event is not None]
        assert sum(n for n, _ in groups) == 12 and len(groups) >= 3 and max(n for n, _ in groups) > 1
        assert all(n == 1 or cells <= 3 * one_tree for n, cells in groups)
        # a group is grown before more than the one sample that did not join it is drawn
        drawn = grown = 0
        for event in events:
            if event is None:
                drawn += 1
            else:
                grown += event[0]
                assert drawn <= grown + 1
        assert drawn == grown


# Recorded with the search that rescanned every row for every threshold.  The
# sorted sweep, which sorts only each node's candidate columns, must reproduce
# these trees bit for bit, and so must any search that replaces it.
GOLDEN_EXHAUSTIVE_GINI = "1a5dfca40e456a175d04a76a99cae75e2f9ab1aba49e2817ea46404a4cec0cf0"
GOLDEN_FOREST_REGRESSOR = "c2a8b7fd570446714a4365a0579704fe17b207393354a71605ca10bae5b637fb"
GOLDEN_RANDOM_THRESHOLD = "f3f1a0361f5f3ea512b216f922793d1ceb041dc12dcdd5e7cf83882f3e56475d"
# Recorded with the search that gathered every node's columns from per-row
# dicts; they pin trees grown from repeated rows and from uneven weights.
GOLDEN_BAGGED_GINI = "1c5b89bcea0e3cb3cf617a2bf263bfe8e9e98fbeee291f786c2077d45d9625a3"
GOLDEN_SAMME_ADABOOST = "9a00debbb958b361ec61a02db534ede8ae95e1cc593b772fd4a29082df7483d0"
