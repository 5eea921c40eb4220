import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskmin import temporal_risk
from riskmin.change_history import ChangeEvent
from riskmin.temporal_risk import (
    METRIC_EXTENT,
    METRIC_FREQUENCY,
    alpha_from_half_life,
    risk_folder,
)

from oracles import class_history, exact_risk_table

DAY = 86_400
REF = 1_700_000_000


def _event(ts, add=0, dele=0, mod=0, commit="c"):
    return ChangeEvent(path="a/B.java", timestamp=ts, added=add, deleted=dele,
                       modified=mod, commit_id=commit)


def _history(events, class_id="a.B"):
    return class_history(class_id, events)


def _in_time_order(events):
    return sorted(events, key=lambda e: (e.timestamp, e.commit_id))


def _tables(histories, metrics, half_life, as_of=REF):
    """Every metric's table at one horizon and one instant, as ``score`` asks for them."""
    return risk_folder(histories, metrics, (half_life,))(as_of)[0]


def _risk(history, metric, half_life, as_of=REF):
    """One class's risk, as the commands compute it."""
    return _tables({history.class_id: history}, (metric,), half_life, as_of)[metric][history.class_id]


def _literal_tables(histories, metrics, half_lives, as_of):
    """The tables a ``risk_folder`` fold gives at one instant, from the literal per-event loop."""
    return [
        {metric: exact_risk_table(histories, metric, half_life, as_of) for metric in metrics}
        for half_life in half_lives
    ]


class TestAlphaFromHalfLife:
    def test_one_day(self):
        assert alpha_from_half_life(1.0) == pytest.approx(0.6931471805599453, rel=1e-12)

    def test_thirty_two_days(self):
        assert alpha_from_half_life(32.0) == pytest.approx(math.log(2) / 32, rel=1e-12)

    def test_512_days(self):
        assert alpha_from_half_life(512.0) == pytest.approx(math.log(2) / 512, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5])
    def test_non_positive_half_life_rejected(self, bad):
        with pytest.raises(ValueError):
            alpha_from_half_life(bad)

    @pytest.mark.parametrize("tiny", [1e-320, 5e-324])
    def test_half_life_whose_rate_is_not_finite_is_rejected(self, tiny):
        with pytest.raises(ValueError, match="not finite"):
            alpha_from_half_life(tiny)
        with pytest.raises(ValueError, match="not finite"):
            risk_folder({}, (METRIC_FREQUENCY,), (tiny,))

    def test_smallest_half_life_with_a_finite_rate_is_accepted(self):
        assert math.isfinite(alpha_from_half_life(1e-300))


class TestEventAgeDays:
    """An event's age is the fractional number of days from it to the instant."""

    def test_same_instant_is_zero(self):
        # at this half-life any positive age would underflow the decay to 0
        assert _risk(_history([_event(REF)]), METRIC_FREQUENCY, 1e-300) == 1.0

    def test_one_day_ago(self):
        rate = -alpha_from_half_life(1.0)
        assert _risk(_history([_event(REF - DAY)]), METRIC_FREQUENCY, 1.0) == math.exp(rate * 1.0)

    def test_half_day_is_fractional(self):
        rate = -alpha_from_half_life(1.0)
        assert _risk(_history([_event(REF - DAY // 2)]), METRIC_FREQUENCY, 1.0) == math.exp(rate * 0.5)

    def test_future_event_is_out_of_scope(self):
        assert _risk(_history([_event(REF + 1)]), METRIC_FREQUENCY, None) == 0.0


class TestEventWeight:
    """An event's weight is its static-mode risk."""

    def test_frequency_is_always_one(self):
        assert _risk(_history([_event(1, add=99, dele=5, mod=3)]), METRIC_FREQUENCY, None) == 1.0

    def test_extent_is_log_of_one_plus_churn(self):
        weight = _risk(_history([_event(1, add=3, dele=2, mod=1)]), METRIC_EXTENT, None)
        assert weight == pytest.approx(math.log(7.0), rel=1e-12)

    def test_extent_of_zero_churn_is_zero(self):
        assert _risk(_history([_event(1)]), METRIC_EXTENT, None) == 0.0

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            risk_folder({}, ("momentum",), (None,))


class TestClassRisk:
    def test_half_life_powers_sum(self):
        T = 5.0
        ages = [int(2 * T * DAY), int(T * DAY), 0]
        history = _history([_event(REF - a, commit=f"c{i}") for i, a in enumerate(ages)])
        assert _risk(history, METRIC_FREQUENCY, T) == pytest.approx(1.75, rel=1e-12)

    def test_empty_history_scores_zero(self):
        assert _risk(_history([]), METRIC_FREQUENCY, 8.0) == 0.0

    def test_static_frequency_counts_events_exactly(self):
        history = _history([_event(REF - i * DAY, commit=f"c{i}") for i in reversed(range(5))])
        assert _risk(history, METRIC_FREQUENCY, None) == 5.0

    def test_static_extent_sums_log_churn_exactly(self):
        churns = [3, 10, 0]
        history = _history(
            [_event(REF - i * DAY, add=c, commit=f"c{i}") for i, c in reversed(list(enumerate(churns)))]
        )
        expected = sum(math.log1p(c) for c in churns)
        assert _risk(history, METRIC_EXTENT, None) == expected

    def test_future_events_are_excluded(self):
        history = _history([_event(REF - DAY, commit="c0"), _event(REF + DAY, commit="c1")])
        assert _risk(history, METRIC_FREQUENCY, None) == 1.0

    def test_event_at_reference_time_is_included(self):
        assert _risk(_history([_event(REF)]), METRIC_FREQUENCY, 1.0) == 1.0

    def test_half_life_identity_within_tolerance(self):
        for T in (1.0, 32.0, 512.0):
            for k in (1, 2, 3):
                history = _history([_event(REF - int(k * T * DAY))])
                assert _risk(history, METRIC_FREQUENCY, T) == pytest.approx(0.5**k, rel=1e-12)

    def test_decay_strictly_decreasing_in_age(self):
        scores = [
            _risk(_history([_event(REF - age * DAY)]), METRIC_FREQUENCY, 16.0)
            for age in range(0, 100, 7)
        ]
        assert all(a > b for a, b in zip(scores, scores[1:]))

    def test_adding_a_weighted_event_strictly_increases_score(self):
        rng = random.Random(5)
        events = [
            _event(REF - rng.randint(0, 300 * DAY), add=rng.randint(1, 50), commit=f"c{i}")
            for i in range(10)
        ]
        for cut in range(1, len(events)):
            before = _risk(_history(_in_time_order(events[:cut])), METRIC_EXTENT, 4.0)
            after = _risk(_history(_in_time_order(events[: cut + 1])), METRIC_EXTENT, 4.0)
            assert after > before

    def test_long_horizon_approaches_event_count(self):
        # at T=1e9 days an event aged d contributes 1 - ln(2)*d/1e9, so ages
        # must stay below ~1.4e3 days for the sum to land within 1e-6 of n
        rng = random.Random(9)
        n = 50
        history = _history(_in_time_order(
            [_event(REF - rng.randint(0, 1_000) * DAY, commit=f"c{i}") for i in range(n)]
        ))
        assert _risk(history, METRIC_FREQUENCY, 1e9) == pytest.approx(n, rel=1e-6)

    def test_scores_finite_and_non_negative(self):
        rng = random.Random(21)
        for seed in range(30):
            T = rng.choice([None, 1.0, 32.0, 512.0])
            metric = rng.choice([METRIC_FREQUENCY, METRIC_EXTENT])
            history = _history(_in_time_order(
                [
                    _event(REF - rng.randint(-50, 400) * DAY, add=rng.randint(0, 500),
                           commit=f"c{i}")
                    for i in range(rng.randint(0, 40))
                ]
            ))
            score = _risk(history, metric, T)
            assert math.isfinite(score) and score >= 0.0


class TestRiskTable:
    def test_empty_map_yields_empty_table(self):
        assert _tables({}, (METRIC_FREQUENCY,), None) == {METRIC_FREQUENCY: {}}

    def test_classes_scored_independently(self):
        histories = {
            "a.B": _history([_event(REF, commit="c1")], class_id="a.B"),
            "a.C": _history([_event(REF - 2 * DAY, commit="c2")], class_id="a.C"),
        }
        table = _tables(histories, (METRIC_FREQUENCY,), 2.0)[METRIC_FREQUENCY]
        assert table == {
            "a.B": _risk(histories["a.B"], METRIC_FREQUENCY, 2.0),
            "a.C": _risk(histories["a.C"], METRIC_FREQUENCY, 2.0),
        }

    def test_linearity_in_event_weights(self):
        # churn values chosen so ln(1 + churn) exactly doubles: 1+c' = (1+c)^2
        base_churns = [1, 3, 7, 15]
        ages = [200, 77, 40, 3]
        base = _history(
            [_event(REF - a * DAY, add=c, commit=f"c{i}")
             for i, (a, c) in enumerate(zip(ages, base_churns))]
        )
        squared = _history(
            [_event(REF - a * DAY, add=(1 + c) ** 2 - 1, commit=f"c{i}")
             for i, (a, c) in enumerate(zip(ages, base_churns))]
        )
        assert _risk(squared, METRIC_EXTENT, 20.0) == pytest.approx(
            2 * _risk(base, METRIC_EXTENT, 20.0), rel=1e-12
        )


class TestArgumentChecks:
    """``risk_folder`` checks its arguments when it is called."""

    def test_static_mode_applies_no_decay(self):
        history = _history([_event(REF - 10_000 * DAY)])
        assert risk_folder({"a.B": history}, (METRIC_FREQUENCY,), (None,))(REF) == [{METRIC_FREQUENCY: {"a.B": 1.0}}]

    def test_decay_follows_the_half_life_rule(self):
        history = _history([_event(REF - 3 * DAY)])
        expected = math.exp(-alpha_from_half_life(32.0) * 3.0)
        assert _risk(history, METRIC_FREQUENCY, 32.0) == expected

    def test_bad_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metric"):
            risk_folder({}, ("entropy",), (1.0,))

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_bad_half_life_rejected(self, bad):
        with pytest.raises(ValueError, match="must be positive"):
            risk_folder({}, (METRIC_FREQUENCY,), (bad,))
        with pytest.raises(ValueError, match="must be positive"):
            risk_folder({}, (METRIC_FREQUENCY,), (8.0, bad))


class TestDecayedRisks:
    """One pass per history for several metrics equals one pass per metric."""

    def _histories(self, seed):
        rng = random.Random(seed)
        return {
            f"a.C{c}": _history(
                _in_time_order(
                    _event(REF - rng.randint(-20, 400) * DAY + i, add=rng.randint(0, 50),
                           dele=rng.randint(0, 9), mod=rng.randint(0, 3), commit=f"c{c}-{i}")
                    for i in range(rng.randint(0, 12))
                ),
                class_id=f"a.C{c}",
            )
            for c in range(8)
        }

    @pytest.mark.parametrize("half_life", [None, 0.5, 32.0, 512.0])
    def test_equals_each_metric_alone_and_the_literal_loop_bit_for_bit(self, half_life):
        for seed in range(5):
            histories = self._histories(seed)
            tables = _tables(histories, (METRIC_FREQUENCY, METRIC_EXTENT), half_life)
            for metric in (METRIC_FREQUENCY, METRIC_EXTENT):
                alone = _tables(histories, (metric,), half_life)[metric]
                assert repr(tables[metric]) == repr(alone)
                assert repr(tables[metric]) == repr(exact_risk_table(histories, metric, half_life, REF))

    def test_only_the_requested_metrics_are_returned(self):
        tables = _tables(self._histories(0), (METRIC_EXTENT,), 8.0)
        assert list(tables) == [METRIC_EXTENT]

    @pytest.mark.parametrize(("metrics", "half_life"), [(("entropy",), 1.0), ((METRIC_EXTENT,), 0.0)])
    def test_bad_metric_or_half_life_rejected(self, metrics, half_life):
        with pytest.raises(ValueError):
            risk_folder(self._histories(0), metrics, (half_life,))


@st.composite
def _time_ordered_histories(draw):
    """An instant, and up to four classes with events in time order: some after
    the instant, some at it or a second away, some at one time, many with zero
    churn, and ages up to 3,000 days, whose decay underflows to 0 at a 1-day
    half-life."""
    as_of = REF + draw(st.integers(-DAY, DAY))
    offsets = st.one_of(st.integers(-3_000 * DAY, 30 * DAY), st.sampled_from([-1, 0, 1]))
    histories = {}
    for c in range(draw(st.integers(0, 4))):
        events = [
            ChangeEvent(
                path=f"a/C{c}.java",
                timestamp=as_of + draw(offsets),
                added=draw(st.sampled_from([0, 0, 1, 7, 2**40])),
                deleted=draw(st.integers(0, 3)),
                modified=draw(st.integers(0, 1)),
                commit_id=f"c{i}",
            )
            for i in range(draw(st.integers(0, 12)))
        ]
        histories[f"a.C{c}"] = _history(_in_time_order(events), class_id=f"a.C{c}")
    return histories, as_of


_half_lives = st.lists(
    # math.inf is the one numeric half-life whose decay rate is 0.0, as in static mode
    st.one_of(st.none(), st.sampled_from([1.0, 0.5, 32.0, 512.0, 1e-300, math.inf]), st.floats(1e-3, 1e6)),
    min_size=1,
    max_size=5,
)
_metric_lists = st.sampled_from([(METRIC_FREQUENCY,), (METRIC_EXTENT,), (METRIC_FREQUENCY, METRIC_EXTENT),
                                 (METRIC_EXTENT, METRIC_FREQUENCY)])


class TestDecayAgainstTheLiteralLoop:
    @settings(max_examples=200, deadline=None)
    @given(
        _time_ordered_histories(),
        _metric_lists,
        _half_lives,
        st.lists(st.integers(-3_100 * DAY, 40 * DAY), max_size=3),
    )
    def test_every_horizon_equals_a_plain_loop_bit_for_bit(self, project, metrics, half_lives, offsets):
        histories, as_of = project
        instants = [as_of] + [as_of + offset for offset in offsets]
        fold = risk_folder(histories, metrics, half_lives)
        by_instant = [fold(instant) for instant in instants]
        assert len(by_instant) == len(instants)
        for instant, tables in zip(instants, by_instant):
            assert len(tables) == len(half_lives)
            for half_life, table in zip(half_lives, tables):
                assert list(table) == list(metrics)
                for metric in metrics:
                    assert list(table[metric]) == list(histories)
                    expected = exact_risk_table(histories, metric, half_life, instant)
                    for class_id in histories:
                        assert repr(table[metric][class_id]) == repr(expected[class_id])

    def test_a_one_day_half_life_underflows_old_events_to_zero(self):
        history = _history([_event(REF - 2_000 * DAY, add=5, commit="c0"), _event(REF + DAY, add=3, commit="c1")])
        table = _tables({"a.B": history}, (METRIC_FREQUENCY, METRIC_EXTENT), 1.0)
        assert table == {METRIC_FREQUENCY: {"a.B": 0.0}, METRIC_EXTENT: {"a.B": 0.0}}


_metric_lists_or_none = st.one_of(st.just(()), _metric_lists)


class TestRiskTablesByInstant:
    """Each instant's tables equal the literal loop at that instant, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(_time_ordered_histories(), _metric_lists_or_none, _half_lives, st.data())
    def test_each_instant_equals_the_literal_loop(self, project, metrics, half_lives, data):
        histories, as_of = project
        timestamps = [event.timestamp for h in histories.values() for event in h.events] or [as_of]
        near_events = st.sampled_from(timestamps).flatmap(lambda ts: st.sampled_from([ts - 1, ts, ts + 1]))
        instants = data.draw(st.lists(
            st.one_of(
                st.sampled_from([min(timestamps) - 1, max(timestamps) + 1, as_of]),
                near_events,
                st.integers(as_of - 3_100 * DAY, as_of + 40 * DAY),
            ),
            max_size=6,
        ))
        instants += instants[:data.draw(st.integers(0, 2))]  # repeated instants
        fold = risk_folder(histories, metrics, half_lives)
        tables = [fold(instant) for instant in instants]
        assert len(tables) == len(instants)
        for instant, table in zip(instants, tables):
            assert repr(table) == repr(_literal_tables(histories, metrics, half_lives, instant))

    @pytest.mark.parametrize("metrics", [(), (METRIC_FREQUENCY, METRIC_EXTENT)])
    @pytest.mark.parametrize("half_lives", [(None,), (None, 4.0)])
    def test_empty_map_and_no_metrics(self, metrics, half_lives):
        history = _history([_event(REF - DAY, add=3, commit="c0"), _event(REF + DAY, add=5, commit="c1")])
        for histories in ({}, {"a.B": history}):
            instants = [REF + DAY, REF - 2 * DAY, REF, REF]
            fold = risk_folder(histories, metrics, half_lives)
            tables = [fold(instant) for instant in instants]
            assert [repr(t) for t in tables] == [
                repr(_literal_tables(histories, metrics, half_lives, instant)) for instant in instants
            ]

    @pytest.mark.parametrize(("metrics", "half_lives"), [(("entropy",), (1.0,)), ((METRIC_EXTENT,), (8.0, 0.0))])
    def test_bad_arguments_are_rejected_when_called(self, metrics, half_lives):
        with pytest.raises(ValueError):
            risk_folder({}, metrics, half_lives)


_slice_bounds = st.one_of(st.none(), st.integers(-7, 7))  # out of range too: at most five half-lives


class TestRiskFolder:
    """A fold of a slice of the half-lives gives that slice of the whole fold; arguments are checked first."""

    @settings(max_examples=200, deadline=None)
    @given(_time_ordered_histories(), _metric_lists_or_none, _half_lives, _slice_bounds, _slice_bounds,
           st.integers(-3_100 * DAY, 40 * DAY))
    def test_the_tables_of_a_slice_equal_that_slice_of_the_whole(self, project, metrics, half_lives, a, b, offset):
        histories, as_of = project
        fold = risk_folder(histories, metrics, half_lives)
        for instant in (as_of, as_of + offset):
            assert repr(fold(instant, slice(a, b))) == repr(fold(instant)[a:b])

    @settings(max_examples=100, deadline=None)
    @given(_time_ordered_histories(), _metric_lists_or_none, _half_lives,
           st.sampled_from(["entropy", "", 0.0, -1.0, math.nan, 1e-320]), st.data())
    def test_a_bad_metric_or_half_life_raises_when_called(self, project, metrics, half_lives, bad, data):
        histories, _ = project
        if isinstance(bad, str):
            k = data.draw(st.integers(0, len(metrics)))
            metrics = (*metrics[:k], bad, *metrics[k:])
        else:
            k = data.draw(st.integers(0, len(half_lives)))
            half_lives = [*half_lives[:k], bad, *half_lives[k:]]
        with pytest.raises(ValueError):
            risk_folder(histories, metrics, half_lives)

    @pytest.mark.parametrize("metrics, calls", [((METRIC_FREQUENCY, METRIC_EXTENT), 3), ((METRIC_FREQUENCY,), 0)])
    def test_the_folder_derives_each_extent_weight_once_and_no_frequency_weight(self, monkeypatch, metrics, calls):
        """Under extent, one log1p per event, shared by the static running sums and every decayed
        half-life at every instant; a frequency-only folder takes none."""
        logs = []
        log1p = math.log1p
        history = _history([_event(REF - 2 * DAY, add=3, commit="c0"), _event(REF - DAY, add=1, commit="c1"),
                            _event(REF + DAY, add=5, commit="c2")])
        monkeypatch.setattr(temporal_risk.math, "log1p", lambda x: logs.append(x) or log1p(x))
        fold = risk_folder({"a.B": history}, metrics, (None, 8.0))
        fold(REF)
        fold(REF + 2 * DAY)
        monkeypatch.undo()
        assert len(logs) == calls


class TestStaticFold:
    """A rate of 0.0 reads each risk off the in-scope prefix: no decay factor is computed."""

    @pytest.mark.parametrize("half_life", [None, math.inf])
    def test_a_long_history_equals_the_literal_loop_at_every_kind_of_instant(self, half_life):
        rng = random.Random(22)
        events, timestamp = [], REF - 3_000 * DAY
        for i in range(2_000):
            timestamp += rng.choice([0, 0, 1, 60, DAY, 7 * DAY])  # some events share their instant
            events.append(_event(timestamp, add=rng.choice([0, 0, 1, 7, 250, 2**40]), dele=rng.randint(0, 30),
                                 mod=rng.randint(0, 3), commit=f"c{i:04d}"))
        histories = {"a.B": _history(events)}
        timestamps = [event.timestamp for event in events]
        instants = [timestamps[0] - 1, timestamps[-1] + 1, timestamps[-1] + 3_000 * DAY]
        instants += [timestamp + d for timestamp in rng.sample(timestamps, 40) + timestamps[-3:] for d in (-1, 0, 1)]
        metrics = (METRIC_FREQUENCY, METRIC_EXTENT)
        fold = risk_folder(histories, metrics, (half_life,))
        for instant in instants:
            assert repr(fold(instant)) == repr(_literal_tables(histories, metrics, (half_life,), instant))

    def _exp_calls(self, monkeypatch, half_lives):
        calls = []
        exp = math.exp
        history = _history([_event(REF - 2 * DAY, add=3, commit="c0"), _event(REF - DAY, add=1, commit="c1"),
                            _event(REF + DAY, add=5, commit="c2")])
        fold = risk_folder({"a.B": history}, (METRIC_FREQUENCY, METRIC_EXTENT), half_lives)
        monkeypatch.setattr(temporal_risk.math, "exp", lambda x: calls.append(x) or exp(x))
        fold(REF)
        monkeypatch.undo()
        return len(calls)

    def test_a_fold_of_static_half_lives_calls_exp_zero_times(self, monkeypatch):
        assert self._exp_calls(monkeypatch, (None, math.inf, None)) == 0

    def test_a_fold_with_one_decayed_half_life_calls_exp_once_per_in_scope_event(self, monkeypatch):
        assert self._exp_calls(monkeypatch, (None, 8.0, math.inf)) == 2
