"""End-to-end exercise of every CLI subcommand and its exit codes."""

import json
from pathlib import Path

import pytest

from matchlattice import parse_lottery, parse_market
from matchlattice.cli import main
from conftest import DATA_DIR

MARKET = str(DATA_DIR / "example_market.json")
X_RAW = str(DATA_DIR / "example_x_raw.json")
X = str(DATA_DIR / "example_x.json")
Y = str(DATA_DIR / "example_y.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    "repeated-worker": '{"terms": [{"weight": "1", "matching": {"f1": ["w1", "w1"]}}]}',
    "duplicate-key": '{"terms": [{"weight": "1", "matching": {"f1": ["w1"], "f1": ["w2"]}}]}',
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
