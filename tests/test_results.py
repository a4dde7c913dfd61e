"""The recorded results as a test: every experiment of
:data:`~repro.eval.experiments.EXPERIMENTS` runs at its recorded
settings, in the session's Spark, through the ``run_experiment`` that
writes ``results/<name>.txt``, and must return that file character for
character. Only measured seconds are masked: ``time=…s``,
``constructed in …s`` and ``approx-BC …s``. Precisions, counts and
scores have no tolerance. The module took 117 s on a 4-core box with a
2 GB driver.
"""
import re

import pytest

from repro.eval.experiments import EXPERIMENTS, RESULTS, run_experiment

#: A measured number of seconds and the words that precede it.
SECONDS = re.compile(r"(time=|constructed in |approx-BC )\d+\.\d+s")


def _masked(text: str) -> str:
    return SECONDS.sub(r"\1…s", text)


def test_mask_covers_only_seconds():
    line = "samples=250: P@4152=0.475 time=2.1s approx-BC 0.09s"
    assert _masked(line) == "samples=250: P@4152=0.475 time=…s approx-BC …s"


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_recorded_results(spark, name):
    got = run_experiment(spark, name)
    recorded = (RESULTS / f"{name}.txt").read_text(encoding="utf-8")
    assert _masked(got) == _masked(recorded)
