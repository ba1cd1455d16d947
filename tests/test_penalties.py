import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cetseg import ChangepointConfiguration, DomainError, ModelSpec
from cetseg.penalties import penalty_parts, penalty_value

N = 362
CFG3 = ChangepointConfiguration((41, 80, 329))


def _pen(model, errors, penalty, n=N, config=CFG3):
    return penalty_value(ModelSpec(model, errors, penalty), n, config)


class TestBic:
    # parameter counts: per-regime mean parameters + locations + error params
    @pytest.mark.parametrize(
        "model,errors,k_of_m",
        [
            ("mean-shift", "ar1", lambda m: 2 * m + 3),
            ("trend-shift", "ar1", lambda m: 3 * m + 4),
            ("trend-shift", "wn", lambda m: 3 * m + 3),
            ("fixed-slope", "ar1", lambda m: 2 * m + 4),
            ("variance-shift", "wn", lambda m: 2 * m + 1),
        ],
    )
    @pytest.mark.parametrize("taus", [(), (100,), (41, 80, 329)])
    def test_counts(self, model, errors, k_of_m, taus):
        cfg = ChangepointConfiguration(taus)
        expected = k_of_m(cfg.m) * math.log(N)
        assert _pen(model, errors, "bic", config=cfg) == pytest.approx(expected, abs=1e-12)

    def test_frozen_trend_wn_value(self):
        # 12 * log 362, m=3
        assert _pen("trend-shift", "wn", "bic") == pytest.approx(
            70.699730541909, abs=1e-9
        )


class TestMdl:
    def test_empty_configuration_is_zero(self):
        empty = ChangepointConfiguration(())
        for model, errors in [
            ("mean-shift", "ar1"),
            ("trend-shift", "ar1"),
            ("trend-shift", "wn"),
            ("fixed-slope", "ar1"),
            ("variance-shift", "wn"),
        ]:
            assert _pen(model, errors, "mdl", config=empty) == 0.0

    def test_frozen_trend_wn_value(self):
        # log N + 2 log m + 2*sum(log seg lengths) + 2*sum(log tau_i, i>=2)
        # = 5.891644211826 + 2.197224577336 + 32.782188341530 + 20.356168770879
        assert _pen("trend-shift", "wn", "mdl") == pytest.approx(
            61.227225901571, abs=1e-9
        )

    def test_single_changepoint_drops_count_and_location_terms(self):
        # m=1: 2 log 1 = 0 and the tau sum starts at the second boundary
        cfg = ChangepointConfiguration((100,))
        expected = 2 * math.log(N) + 1.0 * (math.log(100) + math.log(262))
        assert _pen("mean-shift", "ar1", "mdl", config=cfg) == pytest.approx(expected)

    @pytest.mark.parametrize(
        "model,errors,logn_coeff,seg_coeff",
        [
            ("mean-shift", "ar1", 2, 1),
            ("trend-shift", "ar1", 2, 2),
            ("trend-shift", "wn", 1, 2),
            ("fixed-slope", "ar1", 3, 1),
            ("variance-shift", "wn", 0, 1),
        ],
    )
    def test_family_formulas(self, model, errors, logn_coeff, seg_coeff):
        cfg = CFG3
        seg = sum(math.log(v) for v in cfg.regime_lengths(N))
        tau_tail = sum(math.log(tau) for tau in cfg.taus[1:])
        expected = (
            logn_coeff * math.log(N) + 2 * math.log(3) + seg_coeff * seg + 2 * tau_tail
        )
        assert _pen(model, errors, "mdl") == pytest.approx(expected, abs=1e-10)

    def test_variance_shift_has_no_logn_term(self):
        # doubling N changes segment lengths only through the final regime
        cfg = ChangepointConfiguration((4, 8))
        p_small = _pen("variance-shift", "wn", "mdl", n=12, config=cfg)
        p_large = _pen("variance-shift", "wn", "mdl", n=24, config=cfg)
        assert p_large - p_small == pytest.approx(math.log(16) - math.log(4))


class TestDispatch:
    def test_unscored_family_raises(self):
        # joinpin and long-memory carry their own scoring rules
        with pytest.raises(DomainError):
            penalty_value(ModelSpec("joinpin", "wn", "bic"), N, CFG3)
        with pytest.raises(DomainError):
            penalty_value(ModelSpec("long-memory", "ar1", "bic"), N, CFG3)
        with pytest.raises(DomainError):
            penalty_parts(ModelSpec("joinpin", "wn", "bic"), N)

    def test_context_validates(self):
        with pytest.raises(DomainError):
            penalty_value(ModelSpec("mean-shift", "ar1"), 0, CFG3)
        with pytest.raises(DomainError):
            penalty_value(ModelSpec("mean-shift", "ar1"), 300, CFG3)


# Every family with its own penalty parts, with each of its error models.
PART_FAMILIES = [
    ("mean-shift", "ar1"),
    ("trend-shift", "ar1"),
    ("trend-shift", "wn"),
    ("fixed-slope", "ar1"),
    ("variance-shift", "wn"),
]


@pytest.mark.parametrize("penalty", ["bic", "mdl"])
@pytest.mark.parametrize("model,errors", PART_FAMILIES)
@pytest.mark.parametrize("n", [24, 362])
def test_parts_rebuild_the_penalty(model, errors, penalty, n):
    spec = ModelSpec(model, errors, penalty)
    by_count, per_regime, per_boundary = penalty_parts(spec, n)
    min_len = spec.family.min_len
    shortest = tuple(range(min_len, n - min_len + 1, min_len))  # all but the last of min_len
    for taus in [(), (n // 2,), (n // 4, n // 2, n - 5), shortest]:
        config = ChangepointConfiguration(taus)
        rebuilt = (by_count[config.m]
                   + per_regime * sum(map(math.log, config.regime_lengths(n)))
                   + per_boundary * sum(math.log(tau) for tau in taus[1:]))
        expected = penalty_value(spec, n, config)
        assert math.isclose(rebuilt, expected, rel_tol=1e-12), (taus, rebuilt, expected)


@st.composite
def penalty_cases(draw):
    model, errors = draw(st.sampled_from(PART_FAMILIES))
    spec = ModelSpec(model, errors, draw(st.sampled_from(["bic", "mdl"])))
    n = draw(st.integers(2, 400))
    taus = draw(st.lists(st.integers(1, n - 1), unique=True, max_size=min(n - 1, 30)))
    return spec, n, tuple(sorted(taus))


def _scalar_penalty(spec, n, taus):
    """The penalty of one configuration summed in Python floats with
    ``math.log``: ``by_count[m] + per_regime * sum_k log len_k + per_boundary
    * sum_{i>=2} log tau_i``, each sum a running total from 0.0 in regime
    order."""
    by_count, per_regime, per_boundary = penalty_parts(spec, n)
    bounds = (0, *taus, n)
    log_lengths = sum((math.log(b - a) for a, b in zip(bounds, bounds[1:])), 0.0)
    log_later = sum(map(math.log, taus[1:]), 0.0)
    return float(by_count[len(taus)]) + per_regime * log_lengths + per_boundary * log_later


@given(penalty_cases())
@example((ModelSpec("trend-shift", "wn", "mdl"), 362, ()))
@example((ModelSpec("variance-shift", "wn", "mdl"), 2, (1,)))
@settings(max_examples=500, deadline=None)
def test_penalty_value_is_the_scalar_sum_bit_for_bit(case):
    spec, n, taus = case
    assert penalty_value(spec, n, ChangepointConfiguration(taus)) == _scalar_penalty(spec, n, taus)
