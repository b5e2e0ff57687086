"""Market and lottery documents: parsing, validation, serialisation, and the
responsive-market generator."""

import json
from fractions import Fraction

import pytest

from matchlattice import (
    RankedPreference,
    ResponsivePreference,
    ValidationError,
    dump_lottery,
    dump_market,
    enumerate_stable,
    generate_responsive_market,
    parse_lottery,
    parse_market,
    lad_violation,
    profile_violations,
    substitutability_violation,
)
from conftest import DATA_DIR


@pytest.fixture(scope="module")
def example_doc():
    return parse_market((DATA_DIR / "example_market.json").read_bytes())


def error_of(callable_, *args) -> ValidationError:
    with pytest.raises(ValidationError) as info:
        callable_(*args)
    return info.value


def error_code(callable_, *args):
    return error_of(callable_, *args).code


class TestParseMarket:
    def test_example_file(self, example_doc):
        assert len(example_doc.firm_names) == 4
        assert len(example_doc.worker_names) == 4
        assert len(example_doc.preferences) == 8
        market = example_doc.build_market()
        assert all(isinstance(p, RankedPreference) for p in market.firm_prefs)
        assert len(market.firm_prefs[0].ranking) == 8

    def test_built_market_matches_programmatic_one(self, example_doc, example_market):
        parsed = example_doc.build_market()
        for built, direct in zip(
            parsed.firm_prefs + parsed.worker_prefs,
            example_market.firm_prefs + example_market.worker_prefs,
        ):
            assert built.ranking == direct.ranking

    def test_round_trip(self, example_doc):
        assert parse_market(dump_market(example_doc)) == example_doc

    def test_malformed_json(self):
        assert error_code(parse_market, b"{not json") == "malformed-json"

    def test_bytes_that_are_not_utf8(self):
        assert error_code(parse_market, b"\xff\xfe{}") == "malformed-json"

    def test_missing_key(self):
        assert error_code(parse_market, json.dumps({"firms": []})) == "schema"

    def test_duplicate_names(self):
        doc = {"firms": ["a", "a"], "workers": ["w"], "preferences": {}}
        assert error_code(parse_market, json.dumps(doc)) == "duplicate-name"

    def test_name_on_both_sides(self):
        doc = {"firms": ["a"], "workers": ["a"], "preferences": {}}
        assert error_code(parse_market, json.dumps(doc)) == "duplicate-name"

    def test_unknown_agent_in_preferences(self):
        doc = {
            "firms": ["f1"],
            "workers": ["w1"],
            "preferences": {"f1": {"ranked": [["w1"]]}, "w1": {"ranked": [["f1"]]}, "zz": {"ranked": []}},
        }
        assert error_code(parse_market, json.dumps(doc)) == "unknown-agent"

    def test_unknown_member_in_subset(self):
        doc = {
            "firms": ["f1"],
            "workers": ["w1"],
            "preferences": {"f1": {"ranked": [["w9"]]}, "w1": {"ranked": [["f1"]]}},
        }
        assert error_code(parse_market, json.dumps(doc)) == "unknown-agent"

    def test_missing_preference_entry(self):
        doc = {"firms": ["f1"], "workers": ["w1"], "preferences": {"f1": {"ranked": []}}}
        assert error_code(parse_market, json.dumps(doc)) == "schema"

    def test_preference_needs_exactly_one_form(self):
        doc = {
            "firms": ["f1"],
            "workers": ["w1"],
            "preferences": {"f1": {"other": 1}, "w1": {"ranked": []}},
        }
        assert error_code(parse_market, json.dumps(doc)) == "schema"

    def test_responsive_form_parses(self):
        doc = {
            "firms": ["f1", "f2"],
            "workers": ["w1", "w2"],
            "preferences": {
                "f1": {"responsive": {"quota": 2, "priority": ["w2", "w1"]}},
                "f2": {"responsive": {"quota": 1, "priority": []}},
                "w1": {"ranked": [["f1", "f2"], ["f1"]]},
                "w2": {"responsive": {"quota": 1, "priority": ["f1"]}},
            },
        }
        market = parse_market(json.dumps(doc)).build_market()
        assert isinstance(market.firm_prefs[0], ResponsivePreference)
        assert market.firm_prefs[0].priority == (1, 0)

    def test_boolean_quota_rejected(self):
        doc = {
            "firms": ["f1"],
            "workers": ["w1"],
            "preferences": {
                "f1": {"responsive": {"quota": True, "priority": ["w1"]}},
                "w1": {"ranked": [["f1"]]},
            },
        }
        error = error_of(parse_market, json.dumps(doc))
        assert error.code == "schema"
        assert str(error).startswith("$.preferences.f1.responsive.quota:")

    def test_duplicate_key_rejected(self):
        text = (
            '{"firms": ["f1"], "workers": ["w1"], "preferences": '
            '{"f1": {"ranked": [["w1"]]}, "w1": {"ranked": [["f1"]]}, "f1": {"ranked": []}}}'
        )
        error = error_of(parse_market, text)
        assert error.code == "duplicate-key"
        assert str(error).startswith("$.preferences:")
        assert "'f1'" in str(error)


class TestParseLottery:
    def test_reference_lottery_expectation(self, example_doc):
        lottery = parse_lottery((DATA_DIR / "example_x_raw.json").read_bytes(), example_doc)
        assert lottery.expectation().rows[0] == (
            Fraction(3, 4),
            Fraction(1, 4),
            Fraction(3, 4),
            Fraction(1, 4),
        )

    def test_weight_sum_error(self, example_doc, nus):
        doc = {
            "terms": [
                {"weight": "1/2", "matching": {"f1": ["w1"]}},
                {"weight": "1/3", "matching": {"f1": ["w2"]}},
            ]
        }
        assert error_code(parse_lottery, json.dumps(doc), example_doc) == "weight-sum"

    def test_non_fraction_weight(self, example_doc):
        doc = {"terms": [{"weight": 0.5, "matching": {}}, {"weight": "1/2", "matching": {}}]}
        assert error_code(parse_lottery, json.dumps(doc), example_doc) == "bad-weight"
        doc = {"terms": [{"weight": "half", "matching": {}}]}
        assert error_code(parse_lottery, json.dumps(doc), example_doc) == "bad-weight"

    @pytest.mark.parametrize("weight", ["0.5", " 5e-1 ", "1/2 ", "+1/2", "-1/2", "1/0", "1_0/20", ""])
    def test_weight_must_read_n_or_n_over_d(self, example_doc, weight):
        doc = {"terms": [{"weight": weight, "matching": {}}, {"weight": "1/2", "matching": {}}]}
        error = error_of(parse_lottery, json.dumps(doc), example_doc)
        assert error.code == "bad-weight"
        assert str(error).startswith("$.terms[0].weight:")

    def test_integer_and_unreduced_weights_accepted(self, example_doc):
        doc = {"terms": [{"weight": "2/4", "matching": {}}, {"weight": "1/2", "matching": {}}]}
        assert parse_lottery(json.dumps(doc), example_doc).weights == (Fraction(1, 2),) * 2
        doc = {"terms": [{"weight": "1", "matching": {}}]}
        assert parse_lottery(json.dumps(doc), example_doc).weights == (Fraction(1),)

    def test_repeated_worker_rejected(self, example_doc):
        doc = {"terms": [{"weight": "1", "matching": {"f1": ["w1", "w2", "w1"]}}]}
        error = error_of(parse_lottery, json.dumps(doc), example_doc)
        assert error.code == "schema"
        assert str(error).startswith("$.terms[0].matching.f1:")

    def test_duplicate_key_rejected(self, example_doc):
        text = '{"terms": [{"weight": "1/2", "matching": {}, "weight": "1"}]}'
        error = error_of(parse_lottery, text, example_doc)
        assert error.code == "duplicate-key"
        assert str(error).startswith("$.terms[0]:")

    def test_unknown_firm_or_worker(self, example_doc):
        doc = {"terms": [{"weight": "1", "matching": {"f9": ["w1"]}}]}
        assert error_code(parse_lottery, json.dumps(doc), example_doc) == "unknown-agent"
        doc = {"terms": [{"weight": "1", "matching": {"f1": ["w9"]}}]}
        assert error_code(parse_lottery, json.dumps(doc), example_doc) == "unknown-agent"

    def test_empty_terms(self, example_doc):
        assert error_code(parse_lottery, json.dumps({"terms": []}), example_doc) == "empty-lottery"

    def test_round_trip(self, example_doc):
        text = (DATA_DIR / "example_y.json").read_text()
        lottery = parse_lottery(text, example_doc)
        assert parse_lottery(dump_lottery(lottery, example_doc), example_doc) == lottery

    def test_omitted_firms_are_unmatched(self, example_doc):
        lottery = parse_lottery(json.dumps({"terms": [{"weight": "1", "matching": {}}]}), example_doc)
        assert lottery.terms[0][1].edges() == frozenset()


class TestGenerator:
    def test_deterministic(self):
        assert generate_responsive_market(7, 3, 3, 2) == generate_responsive_market(7, 3, 3, 2)

    def test_axioms_hold_by_construction(self):
        market = generate_responsive_market(0, 3, 3, 2).build_market()
        for pref in market.firm_prefs + market.worker_prefs:
            assert substitutability_violation(pref) is None
            assert lad_violation(pref) is None
        assert profile_violations(market) == []

    def test_small_market_has_stable_matchings(self):
        market = generate_responsive_market(1, 2, 2, 1).build_market()
        assert len(enumerate_stable(market)) >= 1

    def test_quota_bound_respected(self):
        doc = generate_responsive_market(3, 4, 4, 2)
        for spec in doc.preferences.values():
            assert 1 <= spec.quota <= 2

    def test_round_trips_through_json(self):
        doc = generate_responsive_market(11, 4, 3, 2)
        assert parse_market(dump_market(doc)) == doc
