import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cetseg import (
    ChangepointConfiguration,
    DomainError,
    ErrorModel,
    FitResult,
    MeanStructure,
    ModelSpec,
    Penalty,
    TimeSeries,
)
from cetseg.core import Regimes


class TestTimeSeries:
    def test_year_index_maps(self):
        ts = TimeSeries(1659, np.zeros(362))
        assert ts.year_of(1) == 1659
        assert ts.year_of(42) == 1700
        assert ts.year_of(362) == 2020
        assert ts.last_year == 2020

    def test_out_of_range(self):
        ts = TimeSeries(2000, [1.0, 2.0])
        with pytest.raises(DomainError):
            ts.year_of(0)
        with pytest.raises(DomainError):
            ts.year_of(3)

    def test_rejects_bad_values(self):
        with pytest.raises(DomainError):
            TimeSeries(2000, [])
        with pytest.raises(DomainError):
            TimeSeries(2000, [1.0, float("nan")])
        with pytest.raises(DomainError):
            TimeSeries(2000, [[1.0, 2.0]])
        with pytest.raises(DomainError, match="sum of squares overflows"):
            TimeSeries(2000, [1e200, -1e200] * 20)

    def test_values_read_only(self):
        ts = TimeSeries(2000, [1.0, 2.0])
        with pytest.raises(ValueError):
            ts.values[0] = 5.0

    def test_restrict(self):
        ts = TimeSeries(1900, np.arange(10.0))
        sub = ts.restrict(1903, 1905)
        assert sub.first_year == 1903
        assert list(sub.values) == [3.0, 4.0, 5.0]
        assert ts.restrict() == ts
        with pytest.raises(DomainError):
            ts.restrict(1899, 1905)
        with pytest.raises(DomainError):
            ts.restrict(1905, 1903)

    def test_equality(self):
        a = TimeSeries(2000, [1.0, 2.0])
        assert a == TimeSeries(2000, [1.0, 2.0])
        assert a != TimeSeries(2001, [1.0, 2.0])
        assert a != TimeSeries(2000, [1.0, 2.5])


class TestConfiguration:
    def test_validation(self):
        with pytest.raises(DomainError):
            ChangepointConfiguration((0,))
        with pytest.raises(DomainError):
            ChangepointConfiguration((5, 5))
        with pytest.raises(DomainError):
            ChangepointConfiguration((5, 3))

    def test_boundaries_and_lengths(self):
        cfg = ChangepointConfiguration((41, 80, 329))
        assert cfg.m == 3
        assert cfg.boundaries(362) == (0, 41, 80, 329, 362)
        assert cfg.regime_lengths(362) == (41, 39, 249, 33)
        assert sum(cfg.regime_lengths(362)) == 362

    def test_not_interior(self):
        cfg = ChangepointConfiguration((10,))
        with pytest.raises(DomainError):
            cfg.boundaries(10)

    def test_validate_for_min_length(self):
        cfg = ChangepointConfiguration((3, 6))
        cfg.validate_for(9, 3)
        with pytest.raises(DomainError):
            cfg.validate_for(8, 3)
        with pytest.raises(DomainError):
            ChangepointConfiguration((2,)).validate_for(10, 3)

    def test_slices_partition_array(self):
        cfg = ChangepointConfiguration((4,))
        x = np.arange(10)
        parts = [x[s] for s in cfg.slices(10)]
        assert [list(p) for p in parts] == [[0, 1, 2, 3], [4, 5, 6, 7, 8, 9]]


# Mixed magnitudes, from 1e-5 to 1e4, and NaN.
TERM_VALUES = st.one_of(
    st.builds(lambda mantissa, exponent: mantissa * 10.0 ** exponent,
              st.floats(-1.0, 1.0), st.integers(-5, 4)),
    st.just(math.nan),
)


@st.composite
def regime_terms(draw):
    """A batch of boundary tuples on a series and one or two per-regime terms."""
    n = draw(st.integers(2, 40))
    configs = draw(st.lists(
        st.lists(st.integers(1, n - 1), unique=True, max_size=8).map(sorted).map(tuple),
        min_size=1, max_size=6))
    size = sum(len(taus) + 1 for taus in configs)
    terms = draw(st.lists(st.lists(TERM_VALUES, min_size=size, max_size=size),
                          min_size=1, max_size=2))
    return configs, n, [np.array(term) for term in terms]


class TestRegimes:
    @given(regime_terms())
    def test_row_sums_are_running_totals(self, case):
        # batch-independent scores rest on this: each row's sum is the same
        # bits as a loop adding its regimes in order, each regime's terms in order
        configs, n, terms = case
        expected, regime = [], 0
        for taus in configs:
            total = 0.0
            for _ in range(len(taus) + 1):
                for term in terms:
                    total += float(term[regime])
                regime += 1
            expected.append(total)
        assert Regimes(configs, n).row_sums(*terms).tobytes() == np.array(expected).tobytes()


class TestModelSpec:
    @pytest.mark.parametrize(
        "ms,em",
        [
            ("mean-shift", "ar1"),
            ("trend-shift", "ar1"),
            ("trend-shift", "wn"),
            ("fixed-slope", "ar1"),
            ("variance-shift", "wn"),
            ("joinpin", "wn"),
            ("long-memory", "wn"),
            ("long-memory", "ar1"),
        ],
    )
    def test_supported_combinations(self, ms, em):
        spec = ModelSpec(ms, em)
        assert spec.mean_structure is MeanStructure(ms)
        assert spec.error_model is ErrorModel(em)

    @pytest.mark.parametrize(
        "ms,em",
        [
            ("mean-shift", "wn"),
            ("fixed-slope", "wn"),
            ("variance-shift", "ar1"),
            ("joinpin", "ar1"),
        ],
    )
    def test_rejected_combinations(self, ms, em):
        with pytest.raises(DomainError):
            ModelSpec(ms, em)

    def test_bic_only_families(self):
        with pytest.raises(DomainError):
            ModelSpec("joinpin", "wn", "mdl")
        with pytest.raises(DomainError):
            ModelSpec("long-memory", "wn", "mdl")
        ModelSpec("joinpin", "wn", "bic")

    def test_penalty_defaults_to_bic(self):
        assert ModelSpec("mean-shift", "ar1").penalty is Penalty.BIC


class TestFitResult:
    def _result(self, n2ll=100.0, pen=10.0, taus=(3,)):
        return FitResult(
            ModelSpec("mean-shift", "ar1"),
            ChangepointConfiguration(taus),
            n2ll,
            pen,
            means=(1.0,) * (len(taus) + 1),
        )

    def test_score_identity(self):
        r = self._result(123.25, 7.5)
        assert r.score == 123.25 + 7.5
        assert r.loglik == -0.5 * 123.25

    def test_score_not_injectable(self):
        # score is derived, so it cannot disagree with its parts
        r = self._result()
        assert r.score == r.neg2loglik + r.penalty_value

    def test_changepoint_years(self):
        ts = TimeSeries(1659, np.zeros(362))
        r = FitResult(
            ModelSpec("trend-shift", "wn"),
            ChangepointConfiguration((41, 80, 329)),
            100.0,
            1.0,
            means=(0.0,) * 4,
            slopes=(0.0,) * 4,
        )
        assert r.changepoint_years(ts) == (1700, 1739, 1988)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            self._result(n2ll=float("inf"))
