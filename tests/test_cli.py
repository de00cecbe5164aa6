import hashlib
import json
import random
import subprocess
import sys
import time

import pytest

from paracyclic._linalg import PrimeField
from paracyclic.cli import main
from paracyclic.consheaf import constant_sheaf, random_sheaf
from paracyclic.preord import ParaPreorder
from paracyclic.sdot import random_filtration


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out


def run_cli_json(args, capsys):
    code, out = run_cli(args, capsys)
    return code, json.loads(out)


class TestHomCount:
    def test_six_maps_on_the_circle_pair(self, capsys):
        code, data = run_cli_json(["hom-count", "--m", "1", "--n", "1"], capsys)
        assert code == 0 and data["count"] == 6

    def test_kind_filter(self, capsys):
        code, data = run_cli_json(
            ["hom-count", "--m", "0", "--n", "1", "--kind", "inj"], capsys
        )
        assert code == 0 and data["counts"]["inj"] == 2

    def test_cap_error(self, capsys):
        code, data = run_cli_json(
            ["hom-count", "--m", "3", "--n", "3", "--cap", "5"], capsys
        )
        assert code == 1 and data["error"]["type"] == "ResourceBound"

    def test_surjections_capped_on_their_own_count(self, capsys):
        """Par(12) -> Par(7) has 1,007,760 canonical maps, past the default
        cap, and 10,296 surjections, under it."""
        start = time.perf_counter()
        code, data = run_cli_json(["hom-count", "--m", "12", "--n", "7", "--kind", "surj"],
                                  capsys)
        assert code == 0 and data["counts"] == {"surj": 10296}
        assert time.perf_counter() - start < 10


class TestConvAndPoints:
    def test_conv_seven(self, capsys):
        code, data = run_cli_json(["conv", "--sizes", "1,1,1"], capsys)
        assert code == 0 and data["count"] == 7
        assert len(data["relations"]) == 7

    def test_point_valid(self, capsys):
        code, data = run_cli_json(
            ["point", "--sizes", "1,1", "--gaps", "3/1,inf"], capsys
        )
        assert code == 0
        assert data["stratum"]["gaps"] == [1]
        assert data["fiber"] == {"n": 0, "fixed_points_per_period": 1}

    def test_point_invalid(self, capsys):
        code, data = run_cli_json(
            ["point", "--sizes", "1,1", "--gaps", "2/1,5/1"], capsys
        )
        assert code == 1 and data["error"]["type"] == "NoInfinityGap"

    @pytest.mark.parametrize("command", ["conv", "strata"])
    def test_too_many_classes_fail_fast(self, command, capsys):
        code, data = run_cli_json([command, "--sizes", ",".join(["1"] * 24)], capsys)
        assert code == 1 and data["error"]["type"] == "ResourceBound"

    def test_strata(self, capsys):
        code, data = run_cli_json(["strata", "--sizes", "2,1"], capsys)
        assert code == 0 and len(data["strata"]) == 3
        for entry in data["strata"]:
            assert entry["quotient_label"] == len(entry["relation"]["gaps"]) - 1


class TestDualize:
    def test_round_trip(self, capsys):
        payload = json.dumps(
            {"m": 0, "n": 1, "values": [[0, 0]], "shift": 0}
        )
        code, data = run_cli_json(["dualize", "--map", payload], capsys)
        assert code == 0
        assert data["dual"] == {
            "m": 1, "n": 0, "values": [[0, 0], [0, 0]], "shift": 0
        }


    def test_oversized_map_fails_fast(self, capsys):
        payload = json.dumps({"m": 0, "n": 10**9, "values": [[0, 0]], "shift": 0})
        start = time.perf_counter()
        code, data = run_cli_json(["dualize", "--map", payload], capsys)
        assert time.perf_counter() - start < 1
        assert code == 1 and data["error"]["type"] == "ResourceBound"


class TestSheafCommands:
    @pytest.fixture
    def sheaf_file(self, tmp_path):
        sheaf = constant_sheaf(ParaPreorder((1, 1)), PrimeField(5), 2)
        path = tmp_path / "sheaf.json"
        path.write_text(json.dumps(sheaf.to_json()))
        return str(path)

    def test_sections(self, sheaf_file, capsys):
        code, data = run_cli_json(
            ["sections", "--in", sheaf_file, "--upset", "[[0],[1]]"], capsys
        )
        assert code == 0 and data["dim"] == 4

    def test_sections_whole_space(self, sheaf_file, capsys):
        code, data = run_cli_json(
            ["sections", "--in", sheaf_file, "--upset", "[[0,1],[0],[1]]"], capsys
        )
        assert code == 0 and data["dim"] == 2

    def test_sections_rejects_non_upward_closed(self, sheaf_file, capsys):
        code, data = run_cli_json(
            ["sections", "--in", sheaf_file, "--upset", "[[0,1]]"], capsys
        )
        assert code == 1 and data["error"]["type"] == "NotUpwardClosed"

    def test_sections_rejects_stratum_of_another_base(self, sheaf_file, capsys):
        code, data = run_cli_json(
            ["sections", "--in", sheaf_file, "--upset", "[[5]]"], capsys
        )
        assert code == 1 and data["error"]["type"] == "BaseMismatch"

    def test_stalk(self, sheaf_file, capsys):
        code, data = run_cli_json(
            ["stalk", "--in", sheaf_file, "--gaps", "0,1"], capsys
        )
        assert code == 0 and data["dim"] == 2

    def test_random_sheaf_file_round_trips(self, tmp_path, capsys):
        rng = random.Random(5)
        sheaf = random_sheaf(rng, ParaPreorder((1, 1, 1)), PrimeField(101))
        path = tmp_path / "sheaf.json"
        path.write_text(json.dumps(sheaf.to_json()))
        code, data = run_cli_json(
            ["stalk", "--in", str(path), "--gaps", "0,1,2"], capsys
        )
        assert code == 0
        assert data["dim"] == sheaf.dims[(0, 1, 2)]


class TestChecks:
    def test_adjunction(self, capsys):
        code, data = run_cli_json(
            ["check-adjunction", "--N", "2", "--variant", "cyc"], capsys
        )
        assert code == 0 and data["passed"]

    def test_roundtrip(self, capsys):
        code, data = run_cli_json(
            ["roundtrip", "--N", "2", "--count", "2", "--seed", "3"], capsys
        )
        assert code == 0 and data["passed"]

    def test_sdot_rotate_random(self, capsys):
        code, data = run_cli_json(
            ["sdot-rotate", "--length", "2", "--seed", "4"], capsys
        )
        assert code == 0 and data["passed"]

    def test_sdot_rotate_over_q(self, capsys):
        code, data = run_cli_json(
            ["sdot-rotate", "--field", "Q", "--length", "3", "--seed", "0"], capsys
        )
        assert code == 0 and data["passed"] and data["length"] == 3
        assert data["rotated"]["field"] == "Q"

    @pytest.mark.parametrize("args", [["--length", "9"], ["--field", "Q", "--length", "6"]],
                             ids=["F2", "Q"])
    def test_sdot_rotate_beyond_the_cap_fails_fast(self, args, capsys):
        """F_2 at length 9 and Q at length 6 would reach total dimensions
        70,680 and 5,694; both are refused before any rotation."""
        start = time.perf_counter()
        code, data = run_cli_json(["sdot-rotate", "--seed", "0"] + args, capsys)
        assert code == 1 and data["error"]["type"] == "ResourceBound"
        assert time.perf_counter() - start < 1

    def test_sdot_rotate_file(self, tmp_path, capsys):
        filt = random_filtration(random.Random(6), PrimeField(2), 2)
        path = tmp_path / "filtration.json"
        path.write_text(json.dumps(filt.to_json()))
        code, data = run_cli_json(["sdot-rotate", "--in", str(path)], capsys)
        assert code == 0 and data["passed"]

    def test_selftest_subset(self, capsys):
        code, out = run_cli(["selftest", "--only", "1,4", "--seed", "0"], capsys)
        assert code == 0
        assert "criterion 1: PASS" in out and "criterion 4: PASS" in out

    def test_selftest_json_out(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code, _ = run_cli(
            ["selftest", "--only", "1", "--seed", "0", "--out", str(path)], capsys
        )
        assert code == 0
        report = json.loads(path.read_text())
        assert report["passed"] and report["reports"][0]["id"] == 1
        assert "seconds" not in report["reports"][0]


class TestGoldenReport:
    def test_selftest_seed_0_report_is_pinned(self, tmp_path, capsys):
        """The ``selftest --seed 0 --out`` report, byte for byte, by its md5.
        A change that alters the report on purpose (a criterion's verdict
        law, its details or its field) moves this pin and says why in
        CHANGES.md."""
        path = tmp_path / "report.json"
        run_cli(["selftest", "--seed", "0", "--out", str(path)], capsys)
        assert hashlib.md5(path.read_bytes()).hexdigest() == "7bd0e0269058076297448e255baffd46"


class TestSchemaRoundTrips:
    def test_conv_relations_parse_back(self, capsys):
        from paracyclic.preord import ConvexRelation

        _, data = run_cli_json(["conv", "--sizes", "2,1"], capsys)
        for entry in data["relations"]:
            rel = ConvexRelation.from_json(entry)
            assert rel.base.sizes == (2, 1)

    def test_point_parses_back(self, capsys):
        from paracyclic.corner import CornerPoint

        # negative leading gaps need the = form so argparse keeps the dash
        _, data = run_cli_json(
            ["point", "--sizes", "1,1", "--gaps=-7/2,inf"], capsys
        )
        point = CornerPoint.from_json(data["point"])
        assert point.gaps[0].token() == "-7/2"

    def test_dual_parses_back_as_map(self, capsys):
        from paracyclic.paracat import ParaMap, compose, Parasimplex

        payload = json.dumps({"m": 0, "n": 1, "values": [[0, 1]], "shift": 2})
        _, data = run_cli_json(["dualize", "--map", payload], capsys)
        f = ParaMap.from_json(data["input"])
        fd = ParaMap.from_json(data["dual"])
        assert compose(fd, f) == Parasimplex(0).identity()


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self):
        result = subprocess.run(
            [sys.executable, "-m", "paracyclic.cli", "no-such-command"],
            capture_output=True,
        )
        assert result.returncode == 2

    def test_missing_required_flag_exits_2(self):
        result = subprocess.run(
            [sys.executable, "-m", "paracyclic.cli", "conv"],
            capture_output=True,
        )
        assert result.returncode == 2

    @pytest.mark.parametrize("args", [
        ["roundtrip", "--field", "4"],
        ["sdot-rotate", "--field", "4"],
        ["sdot-rotate", "--field", "0"],
        ["sdot-rotate", "--length", "0"],
        ["sdot-rotate", "--length", "-1"],
        ["strata", "--sizes", "1,-1"],
        ["hom-count", "--m", "-1", "--n", "1"],
        ["roundtrip", "--count", "0"],
        ["roundtrip", "--count", "-1"],
        ["selftest", "--only", "10"],
        ["selftest", "--only", "0"],
        ["selftest", "--only", "abc"],
        ["check-adjunction", "--N", "0"],
    ])
    def test_bad_flag_value_exits_2(self, args, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(args)
        assert exit_info.value.code == 2
        assert f"argument {args[1]}" in capsys.readouterr().err


class TestMalformedInput:
    @pytest.mark.parametrize("args", [
        ["point", "--sizes", "1,1", "--gaps", "1/0,inf"],
        ["point", "--sizes", "1,1", "--gaps", "abc,inf"],
        ["dualize", "--map", '{"m":0,"n":1,"values":[[0,5]],"shift":0}'],
        ["dualize", "--map", '{"m":0,'],
    ])
    def test_domain_error_as_json(self, args, capsys):
        code, data = run_cli_json(args, capsys)
        assert code == 1 and data["error"]["type"] == "MalformedInput"

    @pytest.mark.parametrize("args", [
        ["dualize", "--map", "{}"],
        ["dualize", "--map", "[1]"],
    ])
    def test_map_of_the_wrong_structure(self, args, capsys):
        code, data = run_cli_json(args, capsys)
        assert code == 1 and data["error"]["type"] == "MalformedInput"

    def test_map_with_a_negative_source(self, capsys):
        code, data = run_cli_json(["dualize", "--map", '{"m":-1,"n":1,"values":[]}'], capsys)
        assert code == 1 and data["error"]["type"] == "MalformedInput"

    def test_sheaf_file_of_the_wrong_structure(self, tmp_path, capsys):
        path = tmp_path / "sheaf.json"
        path.write_text("{}")
        code, data = run_cli_json(["stalk", "--in", str(path), "--gaps", "0"], capsys)
        assert code == 1 and data["error"]["type"] == "MalformedInput"

    def test_upset_of_the_wrong_structure(self, tmp_path, capsys):
        sheaf = constant_sheaf(ParaPreorder((1, 1)), PrimeField(5), 2)
        path = tmp_path / "sheaf.json"
        path.write_text(json.dumps(sheaf.to_json()))
        code, data = run_cli_json(["sections", "--in", str(path), "--upset", "5"], capsys)
        assert code == 1 and data["error"]["type"] == "MalformedInput"

    @pytest.mark.parametrize("complex_json", [
        {"dims": [2, 1], "d0": [[1]], "d1": [[0]]},
        {"dims": [2, 2], "d0": [[0, 0], [0, 0, 1]], "d1": [[0, 0], [0, 0]]},
    ], ids=["shape-of-another-complex", "ragged"])
    def test_sdot_rotate_differential_of_the_wrong_shape(self, complex_json, tmp_path, capsys):
        """A differential that is not a dims[1] x dims[0] (or dims[0] x
        dims[1]) matrix, whether it is of another shape or has rows of
        unequal lengths, is refused as it is read."""
        path = tmp_path / "filtration.json"
        path.write_text(json.dumps({"field": "2", "objects": [{"field": "2", **complex_json}],
                                    "maps": []}))
        code, data = run_cli_json(["sdot-rotate", "--in", str(path)], capsys)
        assert code == 1 and data["error"]["type"] == "MalformedInput"

    def test_sdot_rotate_filtration_with_more_maps_than_steps(self, tmp_path, capsys):
        """One object and one map: the map has no target to read."""
        filtration = random_filtration(random.Random(6), PrimeField(2), 2, max_dim=1).to_json()
        filtration["objects"] = filtration["objects"][:1]
        path = tmp_path / "filtration.json"
        path.write_text(json.dumps(filtration))
        code, data = run_cli_json(["sdot-rotate", "--in", str(path)], capsys)
        assert code == 1 and data["error"]["type"] == "MalformedInput"

    @pytest.mark.parametrize("args", [
        ["stalk", "--gaps", "0"],
        ["sections", "--upset", "[]"],
        ["dualize"],
        ["sdot-rotate"],
    ])
    @pytest.mark.parametrize("name", ["missing.json", "."])
    def test_unreadable_in_file(self, args, name, tmp_path, capsys):
        """A file that does not exist, or a directory, is reported as JSON."""
        code, data = run_cli_json(args + ["--in", str(tmp_path / name)], capsys)
        assert code == 1 and data["error"]["type"] == "MalformedInput"

    @pytest.mark.parametrize("gaps, code", [("abc", 2), ("5", 1)])
    def test_stalk_gaps_fail_without_a_traceback(self, tmp_path, gaps, code):
        """Gap text that is not a list of integers is a usage error; a gap
        beyond the boundaries of Par(2) is MalformedInput."""
        sheaf = constant_sheaf(ParaPreorder((1, 1, 1)), PrimeField(5), 1)
        path = tmp_path / "sheaf.json"
        path.write_text(json.dumps(sheaf.to_json()))
        result = subprocess.run(
            [sys.executable, "-m", "paracyclic.cli", "stalk", "--in", str(path), "--gaps", gaps],
            capture_output=True, text=True,
        )
        assert result.returncode == code
        assert "Traceback" not in result.stderr
        if code == 1:
            assert json.loads(result.stdout)["error"]["type"] == "MalformedInput"
