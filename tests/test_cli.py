"""End-to-end exercise of every CLI subcommand and its exit codes."""

import json
import random
from itertools import combinations
from pathlib import Path

import pytest

from matchlattice import AgentId, ResponsivePreference, Side, parse_lottery, parse_market
from matchlattice import cli, lattice
from matchlattice.cli import main
from conftest import DATA_DIR, DEEP_DUPLICATE_PATH, INVALID_PREFERENCES, LONG_WEIGHT, OVERSIZED_MARKETS
from oracles import lad_oracle, responsive_to_ranked, substitutability_oracle

MARKET = str(DATA_DIR / "example_market.json")
X_RAW = str(DATA_DIR / "example_x_raw.json")
X = str(DATA_DIR / "example_x.json")
Y = str(DATA_DIR / "example_y.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def ranked_market_document(seed):
    """A small market of explicit rankings.  Each agent ranks either the
    expansion of a random responsive preference, which satisfies both
    axioms, or a random prefix of its shuffled nonempty subsets, which
    often violates one."""
    rng = random.Random(seed)
    firms = [f"f{i + 1}" for i in range(rng.randint(1, 3))]
    workers = [f"w{j + 1}" for j in range(rng.randint(1, 3))]
    preferences = {}
    for side, names, opposite in ((Side.FIRMS, firms, workers), (Side.WORKERS, workers, firms)):
        n = len(opposite)
        for index, name in enumerate(names):
            if rng.random() < 0.6:
                priority = rng.sample(range(n), rng.randint(1, n))
                pref = ResponsivePreference(AgentId(side, index), n, rng.randint(1, n), priority)
                ranking = [sorted(subset) for subset in responsive_to_ranked(pref).ranking]
            else:
                ranking = [list(c) for r in range(1, n + 1) for c in combinations(range(n), r)]
                rng.shuffle(ranking)
                ranking = ranking[: rng.randint(1, len(ranking))]
            preferences[name] = {"ranked": [[opposite[k] for k in subset] for subset in ranking]}
    return {"firms": firms, "workers": workers, "preferences": preferences}


def oracle_violates(text):
    market = parse_market(text).build_market()
    return any(
        substitutability_oracle(pref) is not None or lad_oracle(pref) is not None
        for pref in market.firm_prefs + market.worker_prefs
    )


class TestCheck:
    def test_clean_market(self, capsys):
        code, out, _ = run(capsys, "check", MARKET)
        assert code == 0
        assert "f1: ok" in out and "w4: ok" in out
        assert "all preferences are substitutable" in out

    def test_axiom_violation_exits_four(self, capsys, tmp_path):
        bad = {
            "firms": ["f1"],
            "workers": ["w1", "w2", "w3"],
            "preferences": {
                "f1": {"ranked": [["w1", "w2"], ["w3"], ["w1"], ["w2"]]},
                "w1": {"ranked": [["f1"]]},
                "w2": {"ranked": [["f1"]]},
                "w3": {"ranked": [["f1"]]},
            },
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, out, _ = run(capsys, "check", str(path))
        assert code == 4
        assert "substitutability violated" in out


    def test_exit_codes_follow_the_oracles(self, capsys, tmp_path):
        assert not oracle_violates(Path(MARKET).read_bytes())
        verdicts = []
        for seed in range(48):
            text = json.dumps(ranked_market_document(seed))
            path = tmp_path / f"ranked{seed}.json"
            path.write_text(text)
            violates = oracle_violates(text)
            code, out, _ = run(capsys, "check", str(path))
            assert code == (4 if violates else 0), (seed, out)
            verdicts.append(violates)
        assert 10 <= sum(verdicts) <= 38, sum(verdicts)

    def test_responsive_agent_past_the_axiom_budget_exits_three(self, capsys, tmp_path):
        workers = [f"w{j}" for j in range(1, 18)]
        prefs = {"f1": {"responsive": {"quota": 1, "priority": workers}}}
        for w in workers:
            prefs[w] = {"responsive": {"quota": 1, "priority": ["f1"]}}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"firms": ["f1"], "workers": workers, "preferences": prefs}))
        for command in ("check", "enumerate"):
            code, out, err = run(capsys, command, str(path))
            assert code == 3, command
            assert "error[capacity]" in err and "1,048,576" in err
            assert out == ""


class TestEnumerate:
    def test_lists_all_stable_matchings(self, capsys):
        code, out, _ = run(capsys, "enumerate", MARKET)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == ["f1", "f2", "f3", "f4"]
        assert len(lines) == 1 + 16
        rows = {tuple(line.split()) for line in lines[1:]}
        assert ("m2", "{w1,w2}", "{w3,w4}", "{w1,w3}", "{w2,w4}") in rows
        assert ("m15", "{w3,w4}", "{w1,w2}", "{w2,w4}", "{w1,w3}") in rows


class TestLattice:
    def test_writes_dot_file(self, capsys, tmp_path):
        out_path = tmp_path / "order.dot"
        code, out, _ = run(capsys, "lattice", MARKET, "--dot", str(out_path))
        assert code == 0
        dot = out_path.read_text()
        assert dot.startswith("digraph")
        edges = [line for line in dot.splitlines() if "->" in line]
        assert len(edges) == 32
        assert "16 matchings, 32 edges" in out

    def test_covers_are_computed_once(self, capsys, tmp_path, monkeypatch):
        calls = []
        covers = lattice.hasse_edges

        def counted(stable):
            calls.append(len(stable))
            return covers(stable)

        monkeypatch.setattr(lattice, "hasse_edges", counted)
        monkeypatch.setattr(cli, "hasse_edges", counted, raising=False)
        code, out, _ = run(capsys, "lattice", MARKET, "--dot", str(tmp_path / "order.dot"))
        assert code == 0 and "16 matchings, 32 edges" in out
        assert calls == [16]

    def test_unwritable_dot_path_exits_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "lattice", MARKET, "--dot", str(tmp_path))
        assert code == 2
        assert err.startswith(f"error[io]: cannot write {tmp_path}: ")


class TestDecompose:
    def test_golden_output(self, capsys):
        code, out, _ = run(capsys, "decompose", MARKET, X_RAW)
        assert code == 0
        assert out.strip() == "1/4 m2 + 1/2 m8 + 1/4 m15"

    def test_degenerate_lottery(self, capsys, tmp_path):
        doc = parse_market(Path(MARKET).read_bytes())
        term = json.loads(Path(X).read_text())["terms"][0]["matching"]
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"terms": [{"weight": "1", "matching": term}]}))
        code, out, _ = run(capsys, "decompose", MARKET, str(path))
        assert code == 0
        assert out.strip() == "1 m2"


class TestSplit:
    def test_golden_alignment(self, capsys):
        code, out, _ = run(capsys, "split", MARKET, X, Y)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "gamma: 1/6 1/12 5/12 1/12 1/4"
        assert lines[1].split()[1:] == ["m2", "m2", "m8", "m8", "m15"]
        assert lines[2].split()[1:] == ["m2", "m9", "m9", "m15", "m15"]

    def test_non_canonical_input_exits_two(self, capsys):
        code, _, err = run(capsys, "split", MARKET, X_RAW, Y)
        assert code == 2
        assert "error[not-canonical]" in err


class TestDominates:
    def test_reference_pair(self, capsys):
        code, out, _ = run(capsys, "dominates", MARKET, X, Y, "--side", "F")
        assert code == 0
        assert out.strip() == "x and y are incomparable for the firms"

    def test_self_comparison(self, capsys):
        code, out, _ = run(capsys, "dominates", MARKET, X, X, "--side", "W")
        assert code == 0
        assert "same random stable matching" in out


class TestJoinMeet:
    def test_join_golden_and_method_agreement(self, capsys):
        code, split_out, _ = run(capsys, "join", MARKET, X, Y, "--side", "F")
        assert code == 0
        assert split_out.strip() == "2/3 m2 + 1/12 m8 + 1/4 m15"
        code, lcm_out, _ = run(capsys, "join", MARKET, X, Y, "--side", "F", "--method", "lcm")
        assert code == 0
        assert lcm_out == split_out

    def test_meet_golden(self, capsys):
        for method in ("split", "lcm"):
            code, out, _ = run(capsys, "meet", MARKET, X, Y, "--side", "F", "--method", method)
            assert code == 0
            assert out.strip() == "1/6 m2 + 1/12 m9 + 3/4 m15"

    def test_out_file_round_trips(self, capsys, tmp_path):
        out_path = tmp_path / "join.json"
        code, out, _ = run(capsys, "join", MARKET, X, Y, "--side", "F", "--out", str(out_path))
        assert code == 0
        doc = parse_market(Path(MARKET).read_bytes())
        written = parse_lottery(out_path.read_text(), doc)
        assert [str(w) for w, _ in written.terms] == ["2/3", "1/12", "1/4"]

    def test_out_file_in_a_missing_directory_exits_two(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "join.json"
        code, _, err = run(capsys, "join", MARKET, X, Y, "--side", "F", "--out", str(out_path))
        assert code == 2
        assert err.startswith(f"error[io]: cannot write {out_path}: ")
        assert not out_path.parent.exists()

    def test_worker_side_duality(self, capsys):
        _, join_f_out, _ = run(capsys, "join", MARKET, X, Y, "--side", "F")
        _, meet_w_out, _ = run(capsys, "meet", MARKET, X, Y, "--side", "W")
        assert join_f_out == meet_w_out


class TestRht:
    def test_reference_sums(self, capsys):
        code, out, _ = run(capsys, "rht", MARKET, X, Y)
        assert code == 0
        assert "x row sums: 2 2 2 2" in out
        assert "y column sums: 2 2 2 2" in out
        assert "rural-hospital equality: yes" in out

    def test_lottery_outside_the_stable_set_exits_two(self, capsys, tmp_path):
        path = tmp_path / "outside.json"
        path.write_text(json.dumps({"terms": [{"weight": "1", "matching": {"f1": ["w1"]}}]}))
        code, out, err = run(capsys, "rht", MARKET, X, str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error[not-in-stable-set]")
        assert f"{path}: $.terms[0].matching" in err


MALFORMED_LOTTERIES = {
    "decimal-weight": '{"terms": [{"weight": "0.5", "matching": {}}, {"weight": "1/2", "matching": {}}]}',
    "spaced-exponent-weight": '{"terms": [{"weight": " 5e-1 ", "matching": {}}, {"weight": "1/2", "matching": {}}]}',
    "long-weight": '{"terms": [{"weight": "' + LONG_WEIGHT + '", "matching": {}}]}',
    "repeated-worker": '{"terms": [{"weight": "1", "matching": {"f1": ["w1", "w1"]}}]}',
    "duplicate-key": '{"terms": [{"weight": "1", "matching": {"f1": ["w1"], "f1": ["w2"]}}]}',
    "unknown-key": '{"terms": [{"weight": "1", "wieght": "1", "matching": {}}]}',
}


class TestErrors:
    @pytest.mark.parametrize("case", sorted(MALFORMED_LOTTERIES))
    def test_malformed_lottery_exits_two_with_path(self, capsys, tmp_path, case):
        path = tmp_path / f"{case}.json"
        path.write_text(MALFORMED_LOTTERIES[case])
        code, _, err = run(capsys, "decompose", MARKET, str(path))
        assert code == 2
        assert err.startswith("error[") and "]: $.terms[0]" in err

    def test_boolean_quota_exits_two_with_path(self, capsys, tmp_path):
        market = json.loads(Path(MARKET).read_text())
        market["preferences"]["w1"] = {"responsive": {"quota": True, "priority": ["f1"]}}
        path = tmp_path / "quota.json"
        path.write_text(json.dumps(market))
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert err.startswith("error[schema]: $.preferences.w1.responsive.quota:")

    @pytest.mark.parametrize("case", sorted(INVALID_PREFERENCES))
    def test_invalid_preference_exits_two_with_path(self, capsys, tmp_path, case):
        agent, preference, where = INVALID_PREFERENCES[case]
        market = json.loads(Path(MARKET).read_text())
        market["preferences"][agent] = preference
        path = tmp_path / "market.json"
        path.write_text(json.dumps(market))
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert err.startswith(f"error[invalid-preference]: {where}:")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "enumerate", "/nonexistent/market.json")
        assert code == 2
        assert "error[io]" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "error[malformed-json]" in err

    @pytest.mark.parametrize("case", sorted(OVERSIZED_MARKETS))
    def test_market_past_an_interpreter_limit_exits_two(self, capsys, tmp_path, case):
        text, expected = OVERSIZED_MARKETS[case]
        path = tmp_path / "market.json"
        path.write_text(text)
        code, _, err = run(capsys, "enumerate", str(path))
        assert code == 2
        assert err.startswith(f"error[{expected}]: ")
        if case == "deep-duplicate-key":
            assert err.startswith(f"error[duplicate-key]: {DEEP_DUPLICATE_PATH}: ")

    def test_weight_sum_error(self, capsys, tmp_path):
        path = tmp_path / "lot.json"
        path.write_text(
            json.dumps(
                {
                    "terms": [
                        {"weight": "1/2", "matching": {"f1": ["w1"]}},
                        {"weight": "1/3", "matching": {"f1": ["w2"]}},
                    ]
                }
            )
        )
        code, _, err = run(capsys, "decompose", MARKET, str(path))
        assert code == 2
        assert "error[weight-sum]" in err
        assert err == "error[weight-sum]: $.terms: weights sum to 5/6, not 1\n"

    def test_weights_past_the_digit_limit_exit_two(self, capsys, tmp_path):
        # Each denominator has 3,000 digits, within the interpreter's limit;
        # their sum and the split's shared weights have 5,999, past it.
        long_a, long_b = int("1" * 3000), int("1" * 2998 + "13")
        terms = json.loads(Path(X).read_text())["terms"]
        top, bottom = terms[0]["matching"], terms[-1]["matching"]

        def write(name, weights):
            path = tmp_path / name
            path.write_text(json.dumps({"terms": [
                {"weight": w, "matching": m} for w, m in zip(weights, (top, bottom))
            ]}))
            return str(path)

        two = write("two.json", (f"1/{long_a}", f"1/{long_b}"))
        code, out, err = run(capsys, "decompose", MARKET, two)
        assert (code, out) == (2, "")
        assert err == "error[weight-sum]: $.terms: weights sum to a fraction of 5999 digits, not 1\n"

        x = write("x.json", (f"1/{long_a}", f"{long_a - 1}/{long_a}"))
        y = write("y.json", (f"1/{long_b}", f"{long_b - 1}/{long_b}"))
        code, out, err = run(capsys, "split", MARKET, x, y)
        assert (code, out) == (2, "")
        assert err == (
            "error[bad-weight]: a weight of 5999 digits is past the interpreter's integer digit limit\n"
        )
        for argv in (("join", "--side", "F"), ("dominates", "--side", "W"), ("rht",)):
            assert run(capsys, argv[0], MARKET, x, y, *argv[1:])[0] == 0

    def test_capacity_guard_exits_three(self, capsys, tmp_path):
        firms = [f"f{i}" for i in range(1, 7)]
        workers = [f"w{j}" for j in range(1, 6)]
        prefs = {}
        for f in firms:
            prefs[f] = {"responsive": {"quota": 1, "priority": workers}}
        for w in workers:
            prefs[w] = {"responsive": {"quota": 1, "priority": firms}}
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"firms": firms, "workers": workers, "preferences": prefs}))
        code, _, err = run(capsys, "enumerate", str(path))
        assert code == 3
        assert "error[capacity]" in err

    def test_lcm_slice_guard_exits_three(self, capsys, tmp_path):
        # The top and bottom matchings of x, weighted so that the lcm
        # refinement would need 999983 * 999979 slices.
        top, _, bottom = (t["matching"] for t in json.loads(Path(X).read_text())["terms"])
        paths = []
        for prime in (999983, 999979):
            path = tmp_path / f"x{prime}.json"
            terms = [{"weight": f"1/{prime}", "matching": top},
                     {"weight": f"{prime - 1}/{prime}", "matching": bottom}]
            path.write_text(json.dumps({"terms": terms}))
            paths.append(str(path))
        code, out, err = run(capsys, "join", MARKET, *paths, "--side", "F", "--method", "lcm")
        assert code == 3
        assert "error[capacity]" in err and str(999983 * 999979) in err
        assert out == ""
        code, out, _ = run(capsys, "split", MARKET, *paths)
        assert code == 0
        assert out.splitlines()[0] == "gamma: 1/999983 4/999962000357 999978/999979"
        code, out, _ = run(capsys, "join", MARKET, *paths, "--side", "F")
        assert code == 0
        assert out.strip() == "1/999979 m2 + 999978/999979 m15"

    def test_axiom_error_from_enumerate_exits_four(self, capsys, tmp_path):
        bad = {
            "firms": ["f1"],
            "workers": ["w1", "w2", "w3"],
            "preferences": {
                "f1": {"ranked": [["w1", "w2"], ["w3"], ["w1"], ["w2"]]},
                "w1": {"ranked": [["f1"]]},
                "w2": {"ranked": [["f1"]]},
                "w3": {"ranked": [["f1"]]},
            },
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, _, err = run(capsys, "enumerate", str(path))
        assert code == 4
        assert "error[axiom]" in err
