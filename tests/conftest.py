import os
from pathlib import Path

import numpy as np
import pytest

from cetseg import TimeSeries
from cetseg.io import parse_hadcet
from cetseg.search import GAParams

CET_ENV = "CETSEG_CET_DATA"
CET_FILE_HINT = (
    "the Met Office annual-layout file (rows: year, 12 monthly means, annual mean); "
    "download https://www.metoffice.gov.uk/hadobs/hadcet/data/legacy/cetml1659on.dat "
    f"and place it at data/cetml1659on.dat, or point ${CET_ENV} at it"
)


def _cet_candidates():
    env = os.environ.get(CET_ENV)
    if env:
        yield Path(env)
    root = Path(__file__).resolve().parent.parent
    yield root / "data" / "cetml1659on.dat"
    yield root / "data" / "hadcet.dat"


def load_cet_or_skip() -> TimeSeries:
    for path in _cet_candidates():
        if path.is_file():
            series = parse_hadcet(path.read_text(encoding="utf-8"))
            if series.first_year > 1659 or series.last_year < 2020:
                pytest.skip(
                    f"BLOCKED: {path} spans {series.first_year}-{series.last_year}, "
                    "need 1659-2020"
                )
            return series.restrict(1659, 2020)
    pytest.skip(f"BLOCKED: reference temperature data not present; need {CET_FILE_HINT}")


@pytest.fixture(scope="session")
def cet_series() -> TimeSeries:
    return load_cet_or_skip()


def lean_ga(seed: int = 0, **kw) -> GAParams:
    """Small GA parameters that keep oracle-scale tests fast."""
    base = dict(population_size=80, max_generations=80, stagnation_limit=30, seed=seed)
    base.update(kw)
    return GAParams(**base)


def patient_ga(seed: int = 0, **kw) -> GAParams:
    """GA parameters calibrated for mean-shift searches on short series.

    With unit minimum segment lengths the score optimum often sits in a
    dense near-saturated basin separated from sparse configurations by a
    score barrier; reaching it from a sparse population needs many
    simultaneous bit flips, so the mutation rate here is set to flip
    roughly a third of the loci per child at these lengths.
    """
    base = dict(
        population_size=100,
        mutation_rate=4.0,
        stagnation_limit=150,
        max_generations=4000,
        seed=seed,
    )
    base.update(kw)
    return GAParams(**base)


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)
