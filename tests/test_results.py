"""The recorded results as a test: every experiment of
:data:`~repro.eval.experiments.EXPERIMENTS` runs at its recorded
settings, in the session's Spark, and must print ``results/<name>.txt``
character for character. Only measured seconds are masked: ``time=…s``,
``constructed in …s`` and ``approx-BC …s``. Precisions, counts and
scores have no tolerance.

The whole module took 148 s on a 4-core box with a 2 GB driver: the
work of ``sh results/run_all.sh`` without its seven Spark start-ups.
"""
import re
from pathlib import Path

import pytest

from repro.eval.experiments import EXPERIMENTS

RESULTS = Path(__file__).resolve().parents[1] / "results"
#: A measured number of seconds and the words that precede it.
SECONDS = re.compile(r"(time=|constructed in |approx-BC )\d+\.\d+s")


def _masked(text: str) -> str:
    return SECONDS.sub(r"\1…s", text)


def test_mask_covers_only_seconds():
    line = "samples=250: P@4152=0.475 time=2.1s approx-BC 0.09s"
    assert _masked(line) == "samples=250: P@4152=0.475 time=…s approx-BC …s"


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_recorded_results(spark, capsys, name):
    for harness in EXPERIMENTS[name]:
        harness(spark)
    got = capsys.readouterr().out
    assert _masked(got) == _masked((RESULTS / f"{name}.txt").read_text())
