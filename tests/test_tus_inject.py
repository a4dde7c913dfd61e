"""Tests for homograph removal + injection (repro.lakes.tus_inject, §4.3)."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.graph import incidences
from repro.core.normalize import ATTR_COL, VALUE_COL
from repro.lakes.tus import definition2_truth, tus_lake
from repro.lakes.tus_inject import inject_homographs, remove_homographs
from tests.fixtures import shuffled

SF = 0.08


@pytest.fixture(scope="module")
def lake(spark):
    return tus_lake(spark, sf=SF, seed=4)


@pytest.fixture(scope="module")
def clean(spark, lake):
    cells, truth = remove_homographs(spark, lake)
    return cells.cache()


@pytest.fixture(scope="module")
def col_domains(spark, lake):
    return lake.column_domains(spark).cache()


def test_removal_leaves_no_homographs(spark, lake, clean, col_domains):
    residual = definition2_truth(clean, col_domains).is_homograph.sum()
    assert residual == 0


def test_removal_only_drops_homographs(spark, lake, clean, col_domains):
    before = incidences(lake.cells).toPandas()
    after = incidences(clean)
    truth = definition2_truth(lake.cells, col_domains)
    n_hom_incidences = before[VALUE_COL].isin(truth.label[truth.is_homograph]).sum()
    assert len(before) - after.count() == n_hom_incidences


def test_injected_tokens_have_exact_meanings(spark, clean, col_domains):
    inj = inject_homographs(
        spark, clean, col_domains, n=5, meanings=3, min_cardinality=0, seed=1
    )
    assert len(inj.injected) == 5
    inc = incidences(inj.cells).toPandas()
    cd = col_domains.toPandas()
    col_dom = dict(zip(cd[ATTR_COL], cd["domain"]))
    inc["domain"] = inc[ATTR_COL].map(col_dom)
    doms = inc.groupby(VALUE_COL)["domain"].nunique()
    for token in inj.injected:
        assert doms[token] == 3, token


def test_replaced_values_disappear(spark, clean, col_domains):
    inj = inject_homographs(
        spark, clean, col_domains, n=4, meanings=2, min_cardinality=0, seed=2
    )
    remaining = (
        incidences(inj.cells)
        .where(F.col(VALUE_COL).isin(list(inj.plan.replaced_value)))
        .count()
    )
    assert remaining == 0


def test_injection_preserves_cell_count(spark, clean, col_domains):
    inj = inject_homographs(
        spark, clean, col_domains, n=4, meanings=2, min_cardinality=0, seed=3
    )
    assert inj.cells.count() == clean.count()


def test_injected_are_new_definition2_homographs(spark, clean, col_domains):
    inj = inject_homographs(
        spark, clean, col_domains, n=6, meanings=2, min_cardinality=0, seed=4
    )
    truth = definition2_truth(inj.cells, col_domains)
    homs = set(truth.label[truth.is_homograph])
    assert set(inj.injected) <= homs


def test_cardinality_threshold_respected(spark, clean, col_domains):
    thr = 30
    inj = inject_homographs(
        spark, clean, col_domains, n=5, meanings=2, min_cardinality=thr, seed=5
    )
    inc = incidences(clean).toPandas()
    # every replaced value must occur in ≥1 column with cardinality ≥ thr
    col_card = inc.groupby(ATTR_COL).size()
    for v in inj.plan.replaced_value:
        cols = inc.loc[inc[VALUE_COL] == v, ATTR_COL]
        assert max(col_card[c] for c in cols) >= thr, v


def test_replaced_values_are_strings(spark, clean, col_domains):
    inj = inject_homographs(
        spark, clean, col_domains, n=5, meanings=2, min_cardinality=0, seed=6
    )
    assert (inj.plan.replaced_value.str.len() >= 3).all()
    assert not inj.plan.replaced_value.str.fullmatch(r"[0-9.,\- ]+").any()


def test_plan_domains_distinct_per_token(spark, clean, col_domains):
    inj = inject_homographs(
        spark, clean, col_domains, n=8, meanings=2, min_cardinality=0, seed=7
    )
    assert (inj.plan.groupby("token")["domain"].nunique() == 2).all()
    # no original value replaced twice
    assert inj.plan.replaced_value.is_unique


def test_impossible_meanings_raises(spark, clean, col_domains):
    n_dom = col_domains.select("domain").distinct().count()
    with pytest.raises(ValueError):
        inject_homographs(
            spark, clean, col_domains, n=1, meanings=n_dom + 1,
            min_cardinality=0, seed=8,
        )


def test_deterministic_in_seed(spark, clean, col_domains):
    a = inject_homographs(spark, clean, col_domains, n=3, meanings=2, seed=9)
    b = inject_homographs(spark, clean, col_domains, n=3, meanings=2, seed=9)
    assert a.plan.equals(b.plan)


def test_plan_independent_of_row_order(spark, clean, col_domains):
    a = inject_homographs(spark, clean, col_domains, n=5, meanings=2, seed=1)
    b = inject_homographs(
        spark, shuffled(spark, clean, 11), col_domains, n=5, meanings=2, seed=1
    )
    pd.testing.assert_frame_equal(a.plan, b.plan)
