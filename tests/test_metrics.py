"""Ranking and multi-label metrics against brute-force reference scorers."""

import math
import random
import statistics

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gdprkit.errors import UndefinedMetricError
from gdprkit.knowledge import article_catalog
from gdprkit.metrics import (
    GRANULARITIES,
    LabeledInstance,
    LabelMetrics,
    RankedInstance,
    count_labels,
    evaluate_rankings,
    first_correct_rank,
)


def ranked(prediction, ground_truth, granularity="file"):
    return RankedInstance(
        granularity=granularity,
        prediction=tuple(prediction),
        ground_truth=frozenset(ground_truth),
    )


def labeled(prediction, ground_truth):
    return LabeledInstance(prediction=frozenset(prediction), ground_truth=frozenset(ground_truth))


def file_accuracy_at(instances):
    """accuracy@k by k of ``instances``, which are all at file granularity."""
    return evaluate_rankings(instances)["file"].accuracy_at


# -- reference scorers, written straight from the metric definitions --------


def brute_accuracy_at_k(instances, k):
    hits = 0
    for inst in instances:
        hit = False
        for article in inst.prediction[:k]:
            if article in inst.ground_truth:
                hit = True
        hits += 1 if hit else 0
    return hits / len(instances)


def brute_label_metrics(instances, universe):
    universe = sorted(universe)
    cells = 0
    agree = 0
    precisions, recalls, f1s = [], [], []
    for article in universe:
        tp = fp = fn = 0
        for inst in instances:
            in_pred = article in inst.prediction
            in_gt = article in inst.ground_truth
            if in_pred and in_gt:
                tp += 1
            elif in_pred:
                fp += 1
            elif in_gt:
                fn += 1
        p = tp / (tp + fp) if tp + fp > 0 else 0.0
        r = tp / (tp + fn) if tp + fn > 0 else 0.0
        f = 2 * p * r / (p + r) if p + r > 0 else 0.0
        precisions.append(p)
        recalls.append(r)
        f1s.append(f)
    for inst in instances:
        for article in universe:
            cells += 1
            if (article in inst.prediction) == (article in inst.ground_truth):
                agree += 1
    return {
        "accuracy": agree / cells,
        "macro_precision": sum(precisions) / len(universe),
        "macro_recall": sum(recalls) / len(universe),
        "macro_f1": sum(f1s) / len(universe),
    }


class TestFirstCorrectRank:
    def test_second_position_hit(self):
        assert first_correct_rank((6, 5, 32), frozenset({5})) == 2

    def test_empty_prediction_has_no_rank(self):
        assert first_correct_rank((), frozenset({5})) is None

    def test_any_ground_truth_article_counts(self):
        assert first_correct_rank((5,), frozenset({5, 6})) == 1

    def test_miss_after_full_scan(self):
        assert first_correct_rank((7, 8, 9), frozenset({5})) is None


class TestAccuracyAtK:
    FIXTURE = [
        ranked([5], {5}),          # rank 1
        ranked([7, 8, 5], {5}),    # rank 3
        ranked([7], {5}),          # absent
    ]

    def test_mixed_rank_fixture(self):
        accuracy_at = file_accuracy_at(self.FIXTURE)
        assert accuracy_at[1] == pytest.approx(1 / 3)
        assert accuracy_at[3] == pytest.approx(2 / 3)
        assert accuracy_at[5] == pytest.approx(2 / 3)

    def test_all_rank_one(self):
        instances = [ranked([6], {6}) for _ in range(4)]
        assert file_accuracy_at(instances) == {k: 1.0 for k in range(1, 6)}

    def test_single_instance_rank_two(self):
        instances = [ranked([9, 6], {6})]
        assert file_accuracy_at(instances)[1] == 0.0
        assert file_accuracy_at(instances)[2] == 1.0

    def test_k_is_one_to_five(self):
        assert list(file_accuracy_at(self.FIXTURE)) == [1, 2, 3, 4, 5]

    def test_empty_population_reports_nothing(self):
        assert evaluate_rankings([]) == {}
        assert "line" not in evaluate_rankings(self.FIXTURE)

    def test_evaluate_rankings_only_reports_present_granularities(self):
        instances = [ranked([5], {5}, "file"), ranked([5], {5}, "line")]
        out = evaluate_rankings(instances)
        assert set(out) == {"file", "line"}
        assert out["file"].n_instances == 1
        assert out["file"].accuracy_at[1] == 1.0


class TestLabelMetrics:
    def test_two_article_worked_fixture(self):
        instances = [labeled({5, 6}, {5}), labeled({5}, {5, 6})]
        metrics = count_labels(instances).over({5, 6})
        assert metrics.per_article[5] == (1.0, 1.0, 1.0)
        assert metrics.per_article[6] == (0.0, 0.0, 0.0)
        assert metrics.macro_precision == pytest.approx(0.5)
        assert metrics.macro_recall == pytest.approx(0.5)
        assert metrics.macro_f1 == pytest.approx(0.5)
        assert metrics.accuracy == pytest.approx(0.5)

    def test_perfect_predictor(self):
        instances = [labeled({5}, {5}), labeled({6, 32}, {6, 32})]
        metrics = count_labels(instances).over()
        assert (metrics.macro_precision, metrics.macro_recall, metrics.macro_f1) == (
            1.0,
            1.0,
            1.0,
        )
        assert metrics.accuracy == 1.0

    def test_all_empty_predictions(self):
        instances = [labeled(set(), {5}), labeled(set(), {6})]
        metrics = count_labels(instances).over()
        assert (metrics.macro_precision, metrics.macro_recall, metrics.macro_f1) == (
            0.0,
            0.0,
            0.0,
        )

    def test_single_cell_miss(self):
        assert count_labels([labeled(set(), {5})]).over({5}).accuracy == 0.0

    def test_unused_universe_article_scores_zero_not_nan(self):
        instances = [labeled({5}, {5})]
        metrics = count_labels(instances).over({5, 99})
        assert metrics.per_article[99] == (0.0, 0.0, 0.0)
        assert metrics.accuracy == 1.0  # article 99 agrees vacuously in every cell

    def test_default_universe_is_ground_truth_union(self):
        instances = [labeled({5}, {5}), labeled({6}, {32})]
        metrics = count_labels(instances).over()
        assert metrics.universe == (5, 32)

    def test_no_instances_undefined(self):
        with pytest.raises(UndefinedMetricError):
            count_labels([]).over()

    def test_empty_universe_undefined(self):
        with pytest.raises(UndefinedMetricError):
            count_labels([labeled({5}, {5})]).over(set())


articles = st.integers(1, 6)
ranking_instances = st.lists(
    st.builds(
        ranked,
        st.lists(articles, max_size=6, unique=True),
        st.sets(articles, min_size=1, max_size=4),
    ),
    min_size=1,
    max_size=8,
)
label_instances = st.lists(
    st.builds(
        labeled,
        st.sets(articles, max_size=4),
        st.sets(articles, max_size=4),
    ),
    min_size=1,
    max_size=8,
)


class TestProperties:
    @given(instances=ranking_instances, k=st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_accuracy_at_k_matches_brute_force(self, instances, k):
        assert file_accuracy_at(instances)[k] == pytest.approx(
            brute_accuracy_at_k(instances, k), abs=1e-12
        )

    @given(instances=ranking_instances)
    @settings(max_examples=200, deadline=None)
    def test_accuracy_non_decreasing_in_k(self, instances):
        values = [file_accuracy_at(instances)[k] for k in range(1, 6)]
        assert values == sorted(values)

    @given(instances=label_instances)
    @settings(max_examples=200, deadline=None)
    def test_label_metrics_match_brute_force(self, instances):
        universe = set(range(1, 7))
        metrics = count_labels(instances).over(universe)
        expected = brute_label_metrics(instances, universe)
        assert metrics.accuracy == pytest.approx(expected["accuracy"], abs=1e-12)
        assert metrics.macro_precision == pytest.approx(
            expected["macro_precision"], abs=1e-12
        )
        assert metrics.macro_recall == pytest.approx(expected["macro_recall"], abs=1e-12)
        assert metrics.macro_f1 == pytest.approx(expected["macro_f1"], abs=1e-12)

    @given(instances=label_instances, universe=st.sampled_from([None, frozenset(range(1, 7))]))
    @settings(max_examples=200, deadline=None)
    def test_macro_means_equal_statistics_fmean(self, instances, universe):
        assume(universe or any(inst.ground_truth for inst in instances))
        metrics = count_labels(instances).over(universe)
        columns = list(zip(*metrics.per_article.values()))
        assert metrics.macro_precision == statistics.fmean(columns[0])
        assert metrics.macro_recall == statistics.fmean(columns[1])
        assert metrics.macro_f1 == statistics.fmean(columns[2])

    @given(instances=ranking_instances, seed=st.integers(0, 2**16))
    @settings(max_examples=100, deadline=None)
    def test_instance_order_is_irrelevant(self, instances, seed):
        shuffled = list(instances)
        random.Random(seed).shuffle(shuffled)
        assert evaluate_rankings(instances) == evaluate_rankings(shuffled)


def per_article_sum_label_metrics(instances, universe):
    """``count_labels(...).over(universe)`` as three sums per article and a count of agreeing cells."""
    if universe is None:
        universe = set().union(*(inst.ground_truth for inst in instances))
    resolved = tuple(sorted(set(universe)))
    per_article = {}
    for article in resolved:
        tp = sum(1 for i in instances if article in i.prediction and article in i.ground_truth)
        fp = sum(1 for i in instances if article in i.prediction and article not in i.ground_truth)
        fn = sum(1 for i in instances if article not in i.prediction and article in i.ground_truth)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_article[article] = (precision, recall, f1)
    return LabelMetrics(
        n_instances=len(instances),
        universe=resolved,
        accuracy=sum(
            (article in i.prediction) == (article in i.ground_truth) for i in instances for article in resolved
        )
        / (len(instances) * len(resolved)),
        macro_precision=math.fsum(v[0] for v in per_article.values()) / len(per_article),
        macro_recall=math.fsum(v[1] for v in per_article.values()) / len(per_article),
        macro_f1=math.fsum(v[2] for v in per_article.values()) / len(per_article),
        per_article=per_article,
    )


CATALOG = frozenset(article_catalog())
# labels mostly from the catalog, some outside it; either side may be empty
catalog_labels = st.sets(st.sampled_from(sorted(CATALOG)) | st.sampled_from([1, 2, 99]), max_size=4)
catalog_label_instances = st.lists(
    st.builds(labeled, catalog_labels, catalog_labels), min_size=1, max_size=30
)
mixed_ranking_instances = st.lists(
    st.builds(
        ranked,
        st.lists(articles, max_size=6, unique=True),
        st.sets(articles, min_size=1, max_size=4),
        st.sampled_from(GRANULARITIES),
    ),
    min_size=1,
    max_size=30,
)


class TestOnePassScoring:
    @given(instances=catalog_label_instances, universe=st.sampled_from([None, CATALOG]))
    @settings(max_examples=300, deadline=None)
    def test_label_metrics_equal_per_article_sums(self, instances, universe):
        assume(universe or any(inst.ground_truth for inst in instances))
        assert count_labels(instances).over(universe) == per_article_sum_label_metrics(instances, universe)

    @given(instances=catalog_label_instances)
    @settings(max_examples=300, deadline=None)
    def test_one_count_scores_both_universes(self, instances):
        assume(any(inst.ground_truth for inst in instances))
        counts = count_labels(instances)
        truth, catalog = counts.over(), counts.over(CATALOG)
        assert truth == per_article_sum_label_metrics(instances, None)
        assert catalog == per_article_sum_label_metrics(instances, CATALOG)
        # the ceiling of report.md: a catalog article without ground truth scores 0
        assert catalog.per_article == {a: truth.per_article.get(a, (0.0, 0.0, 0.0)) for a in catalog.universe}

    @given(instances=mixed_ranking_instances)
    @settings(max_examples=300, deadline=None)
    def test_rankings_equal_brute_force_per_granularity(self, instances):
        metrics = evaluate_rankings(instances)
        assert set(metrics) == {inst.granularity for inst in instances}
        for granularity, got in metrics.items():
            subset = [inst for inst in instances if inst.granularity == granularity]
            assert got.n_instances == len(subset)
            assert got.accuracy_at == {k: brute_accuracy_at_k(subset, k) for k in range(1, 6)}
