"""Tests for the D4-lite baseline (repro.baselines.d4)."""
import pandas as pd
import pytest

from repro.baselines.d4 import D4Result, discover_domains
from repro.core.graph import incidences
from repro.lakes.datalake import lake_from_tables
from repro.lakes.tus import tus_lake
from tests.fixtures import shuffled


def _two_domain_lake(spark):
    """Two clean domains, each shared by three columns."""
    animals = [f"animal{i}" for i in range(20)]
    cars = [f"car{i}" for i in range(20)]
    return lake_from_tables(
        spark,
        {
            "T1": {"a": animals, "x": cars},
            "T2": {"a": animals[:18], "x": cars[:18]},
            "T3": {"a": animals[2:], "x": cars[2:]},
        },
    )


def test_clean_lake_two_domains(spark):
    res = discover_domains(incidences(_two_domain_lake(spark)))
    assert res.n_domains == 2
    sizes = sorted(len(v) for v in res.domains.values())
    assert sizes == [20, 20]


def test_clean_lake_no_homographs(spark):
    res = discover_domains(incidences(_two_domain_lake(spark)))
    assert res.homographs() == []


def test_shared_value_in_both_domains_detected(spark):
    animals = [f"animal{i}" for i in range(20)] + ["JAGUAR"]
    cars = [f"car{i}" for i in range(20)] + ["JAGUAR"]
    lake = lake_from_tables(
        spark,
        {
            "T1": {"a": animals, "x": cars},
            "T2": {"a": animals, "x": cars},
            "T3": {"a": animals, "x": cars},
        },
    )
    res = discover_domains(incidences(lake))
    assert res.n_domains == 2
    assert res.homographs() == ["JAGUAR"]


def test_numeric_columns_excluded(spark):
    lake = lake_from_tables(
        spark,
        {
            "T1": {"a": [f"v{i}" for i in range(10)], "n": [str(i) for i in range(10)]},
            "T2": {"a": [f"v{i}" for i in range(10)], "n": [str(i) for i in range(10)]},
        },
    )
    res = discover_domains(incidences(lake))
    assert set(res.string_attrs) == {"T1.a", "T2.a"}
    assert res.n_domains == 1


def test_min_support_coverage_gap(spark):
    # a vocabulary appearing in a single column gets no strong domain.
    lake = lake_from_tables(
        spark,
        {
            "T1": {"a": [f"v{i}" for i in range(10)], "solo": [f"s{i}" for i in range(10)]},
            "T2": {"a": [f"v{i}" for i in range(10)]},
        },
    )
    res = discover_domains(incidences(lake))
    assert res.n_domains == 1
    covered = set(res.column_domains.attr)
    assert "T1.solo" not in covered


def test_low_overlap_columns_not_merged(spark):
    # columns sharing <50% of values stay separate → dropped by support.
    lake = lake_from_tables(
        spark,
        {
            "T1": {"a": [f"v{i}" for i in range(10)]},
            "T2": {"a": [f"v{i}" for i in range(8, 40)]},
        },
    )
    res = discover_domains(incidences(lake))
    assert res.n_domains == 0


def test_injected_singleton_becomes_own_domain(spark):
    # h appears in exactly one column of each vocabulary → splinters into
    # its own 2-column strong domain (the §5.5 inflation mechanism).
    animals = [f"animal{i}" for i in range(20)]
    cars = [f"car{i}" for i in range(20)]
    lake = lake_from_tables(
        spark,
        {
            "T1": {"a": animals + ["HOMO"], "x": cars},
            "T2": {"a": animals, "x": cars + ["HOMO"]},
            "T3": {"a": animals, "x": cars},
        },
    )
    res = discover_domains(incidences(lake))
    assert res.n_domains == 3
    assert frozenset(["HOMO"]) in set(res.domains.values())


def test_domains_per_column_stats(spark):
    res = discover_domains(incidences(_two_domain_lake(spark)))
    mx, avg = res.domains_per_column()
    assert mx == 1
    assert avg == pytest.approx(1.0)


def test_domains_independent_of_row_order(spark):
    # Planted multi-domain tokens give value classes of equal size, so the
    # tie-breaks between them must not follow the collect order.
    cells = tus_lake(spark, sf=0.08, seed=4).cells
    a = discover_domains(incidences(cells))
    b = discover_domains(incidences(shuffled(spark, cells, 5)))
    assert a.domains == b.domains
    pd.testing.assert_frame_equal(a.column_domains, b.column_domains)


def test_empty_result_api():
    res = D4Result(
        domains={},
        column_domains=pd.DataFrame(columns=["attr", "domain_id"]),
        string_attrs=[],
    )
    assert res.n_domains == 0
    assert res.homographs() == []
    assert res.domains_per_column() == (0, 0.0)
