import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundedcore import (
    Game,
    InternalInconsistency,
    NormalCollection,
    SetSystem,
    ValidationError,
    build_recession_cone,
    cli,
    closure,
    dd_generators,
    downsets,
    extract_poset,
    lattice,
    lift_collection_detailed,
    load_poset,
    load_set_system,
    normal,
    rays,
    rays_distributive,
    rays_general,
    setsystem,
    validate_normal,
)
from boundedcore.cli import main

from helpers import (
    BIRKHOFF_8,
    HIERARCHY_9_RELS,
    LINE_CONE_5SET,
    REGULAR_LIFT_8SET,
    TRANSFER_GAP_7SET,
    WEBER_GAP_10SET,
    WEBER_GAP_GAME,
    WUC_GAP_6SET,
    call_log,
    poset_downsets,
    random_poset,
    separating_systems,
)


@pytest.fixture
def paths(tmp_path):
    out = {}
    for name, doc in {
        "line_cone": LINE_CONE_5SET,
        "regular_lift": REGULAR_LIFT_8SET,
        "weber_gap": WEBER_GAP_10SET,
        "weber_gap_game": WEBER_GAP_GAME,
        "transfer_gap": TRANSFER_GAP_7SET,
    }.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        out[name] = str(p)
    return out


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_line_cone(self, capsys, paths):
        code, out, _ = run(capsys, "classify", "--system", paths["line_cone"])
        assert code == 0
        doc = json.loads(out)
        assert doc["regular"] is False and doc["weakly_union_closed"] is False

    def test_raw_format_is_compact(self, capsys, paths):
        code, out, _ = run(capsys, "classify", "--system", paths["line_cone"], "--format", "raw")
        assert code == 0 and "\n" not in out.strip()

    def test_missing_input(self, capsys):
        code, _, err = run(capsys, "classify")
        assert code == 1 and "system" in err

    def test_unreadable_path(self, capsys):
        code, _, err = run(capsys, "classify", "--system", "/nonexistent.json")
        assert code == 1 and "cannot read" in err


class TestReports:
    def test_closure(self, capsys, paths):
        code, out, _ = run(capsys, "closure", "--system", paths["line_cone"])
        assert code == 0
        assert json.loads(out)["sets"] == [
            [], [2], [3], [1, 2], [2, 3], [3, 4], [1, 2, 3], [2, 3, 4], [1, 2, 3, 4],
        ]

    def test_chains(self, capsys, paths):
        code, out, _ = run(capsys, "chains", "--system", paths["weber_gap"])
        doc = json.loads(out)
        assert code == 0 and doc["count"] == 4
        assert [1, 4, 2, 3, 5] in doc["orders"]

    def test_rays(self, capsys, paths):
        code, out, _ = run(capsys, "rays", "--system", paths["weber_gap"])
        doc = json.loads(out)
        assert code == 0
        assert sorted(doc["extremal_rays"]) == sorted(
            [["0", "0", "-1", "1", "0"], ["0", "1", "-1", "0", "0"], ["0", "0", "1", "0", "-1"]]
        )
        assert doc["methods"]["regular"]["complete"] is True

    def test_rays_reports_incomplete_shortcut(self, capsys, paths):
        code, out, _ = run(capsys, "rays", "--system", paths["transfer_gap"])
        doc = json.loads(out)
        assert code == 0
        assert doc["methods"]["regular"]["complete"] is False
        assert ["1", "1", "-1", "-1"] in doc["extremal_rays"]

    def test_rays_sixteen_player_lattice(self, capsys, tmp_path):
        # four disjoint 4-chains: 625 downsets and 63,063,000 maximal chains
        chains = [range(start, start + 4) for start in (1, 5, 9, 13)]
        links = [(i, i + 1) for chain in chains for i in chain[:-1]]
        p = tmp_path / "poset.json"
        p.write_text(json.dumps({"n": 16, "relations": [list(link) for link in links]}))
        code, out, _ = run(capsys, "rays", "--poset", str(p))
        doc = json.loads(out)
        assert code == 0
        expected = [
            [str(1 if k == i else -1 if k == j else 0) for k in range(1, 17)] for i, j in links
        ]
        assert sorted(doc["extremal_rays"]) == sorted(expected)
        assert doc["lineality"] == []
        assert doc["equals_closure_cone"] is True
        assert doc["methods"]["regular"]["rays"] == [f"(+{i},-{j})" for i, j in links]
        assert doc["methods"]["regular"]["complete"] is True

    def test_classify_sixteen_player_antichain(self, capsys, tmp_path):
        # its downsets are the 65,536 sets of the power set, read off the 16 distinct J_i
        p = tmp_path / "poset.json"
        p.write_text(json.dumps({"n": 16, "relations": []}))
        code, out, _ = run(capsys, "classify", "--poset", str(p))
        assert code == 0
        assert json.loads(out) == {
            "n": 16,
            "set_count": 1 << 16,
            "regular": True,
            "weakly_union_closed": True,
            "union_intersection_closed": True,
            "height": 16,
            "closure_height": 16,
        }

    def test_normal(self, capsys, paths):
        code, out, _ = run(capsys, "normal", "--system", paths["regular_lift"], "--method", "all")
        doc = json.loads(out)
        assert code == 0
        lifted = doc["collections"]["irredundant"]["lift"]
        assert lifted["sets"] == [[1, 3]]
        assert lifted["replacements"][0]["alternatives"] == [[2, 3]]
        assert doc["collections"]["grabisch_xie"]["sets"] == [[1, 2, 3]]
        assert doc["collections"]["grabisch_xie"]["feasible"] is False

    def test_poset_input(self, capsys, tmp_path):
        p = tmp_path / "poset.json"
        p.write_text(json.dumps({"n": 3, "relations": [[1, 2], [2, 3]]}))
        code, out, _ = run(capsys, "chains", "--poset", str(p))
        doc = json.loads(out)
        assert code == 0 and doc["count"] == 1


class TestGameCommands:
    def test_core(self, capsys, paths):
        code, out, _ = run(
            capsys, "core", "--game", paths["weber_gap_game"], "--collection", "weber"
        )
        doc = json.loads(out)
        assert code == 0 and doc["bounded"] is True
        assert len(doc["h_representation"]["inequalities"]) == 6
        assert len(doc["h_representation"]["equalities"]) == 3
        assert ["1", "1", "0", "0", "1"] in doc["v_representation"]["vertices"]

    def test_core_without_collection_is_plain_core(self, capsys, paths):
        code, out, _ = run(capsys, "core", "--game", paths["weber_gap_game"])
        doc = json.loads(out)
        assert code == 0 and doc["bounded"] is False

    def test_weber(self, capsys, paths):
        code, out, _ = run(
            capsys, "weber", "--game", paths["weber_gap_game"], "--collection", "weber"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["vertices"] == [["1", "0", "0", "1", "1"]]
        assert doc["restricted_chain_count"] == 2

    def test_verify_inclusion(self, capsys, paths):
        code, out, _ = run(
            capsys, "verify-inclusion", "--game", paths["weber_gap_game"], "--collection", "weber"
        )
        doc = json.loads(out)
        assert code == 0 and doc["holds"] is False and doc["witness"] is not None

    def test_custom_collection_document(self, capsys, paths, tmp_path):
        coll = tmp_path / "collection.json"
        coll.write_text(json.dumps({"kind": "custom", "sets": [[2, 4], [2, 3, 4]]}))
        code, out, _ = run(
            capsys, "verify-inclusion", "--game", paths["weber_gap_game"], "--collection", str(coll)
        )
        assert code == 0 and json.loads(out)["holds"] is False

    def test_custom_collection_must_bound(self, capsys, paths, tmp_path):
        coll = tmp_path / "weak.json"
        coll.write_text(json.dumps({"kind": "custom", "sets": [[2, 4]]}))
        code, _, err = run(
            capsys, "core", "--game", paths["weber_gap_game"], "--collection", str(coll)
        )
        assert code == 1 and "does not bound" in err

    def test_core_bounded_flag_matches_the_oracle(self, capsys, paths, tmp_path):
        empty_cores = {
            # x1 >= 1 and x2 + x3 >= 1 cannot meet x1 + x2 + x3 = 1, yet the cone holds a line
            "line": {
                "system": {"n": 3, "sets": [[], [1], [2, 3], [1, 2, 3]]},
                "values": {"1": "1", "2,3": "1", "1,2,3": "1"},
            },
            # x1 >= 1 and x2 >= 1 cannot meet x1 + x2 = 1, and the cone is the origin
            "origin": {
                "system": {"n": 2, "sets": [[], [1], [2], [1, 2]]},
                "values": {"1": "1", "2": "1", "1,2": "1"},
            },
        }
        for name, document in empty_cores.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(document))
        verdicts = []
        for game_path, extra in (
            (paths["weber_gap_game"], []),
            (paths["weber_gap_game"], ["--collection", "weber"]),
            (str(tmp_path / "line.json"), []),
            (str(tmp_path / "origin.json"), []),
        ):
            code, out, _ = run(capsys, "core", "--game", game_path, *extra)
            doc = json.loads(out)
            game = Game.from_document(json.loads(Path(game_path).read_text()))
            collection = NormalCollection(tuple(game.system.coalition(s) for s in doc["collection"]))
            assert code == 0
            # the frozen recession cone's verdict, empty core or not
            assert doc["bounded"] is validate_normal(game.system, collection)
            verdicts.append((doc["v_representation"]["empty"], doc["bounded"]))
        # an empty core reports bounded both ways
        assert verdicts[2:] == [(True, False), (True, True)]


class TestDeterminism:
    def test_byte_identical_reports(self, capsys, paths):
        _, first, _ = run(capsys, "normal", "--system", paths["regular_lift"])
        _, second, _ = run(capsys, "normal", "--system", paths["regular_lift"])
        assert first == second

    def test_out_file_matches_stdout(self, capsys, paths, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "rays", "--system", paths["line_cone"], "--out", str(target)
        )
        assert code == 0 and out == ""
        _, stdout, _ = run(capsys, "rays", "--system", paths["line_cone"])
        assert target.read_text() == stdout


FIXTURE_DIR = Path(cli.__file__).parent / "fixtures"
# (exit code, sha256 of stdout) of each verb on each shipped fixture;
# hierarchy_9 is a poset document and goes in as --poset
SYSTEM_PINS = {
    ("classify", "downset_lattice_4"): (0, "ddfa97b0b83cd372597cc66673e8ebe78fcd0a535b2f518f1ecae76ce5df5141"),
    ("classify", "nonclosed_line_cone_4"): (0, "7aa7f9d5ec915a29e877627085cb9c1928151084951c7800029aae42e4885d82"),
    ("classify", "regular_lift_4"): (0, "fc29539352267511d2f3c477264c84869b3cce34092496b5501abd75da4f6647"),
    ("classify", "regular_weber_gap_5"): (0, "7f3b2c82c5e503f743623e6b1a451ab65ec25604f367e643a48f45fc569c8a6c"),
    ("classify", "wuc_condition_fails_4"): (0, "52f62cd52d9fd73a3bb80f6247804c03ac6c4655bac1e975139d7f6cca2774b8"),
    ("classify", "hierarchy_9"): (0, "4e13902b7b2b591f8f520c6b69ec0c1b694f750a6111f7847342d17bf4ac7eb9"),
    ("closure", "downset_lattice_4"): (0, "550a205ea96b171a6526f9cc4b53821c19e254db934789394a351ba2691519b7"),
    ("closure", "nonclosed_line_cone_4"): (0, "ee3c086553655f48a83b7cc0dba05cce630d06cc3d1a903de4598033b7f69d2a"),
    ("closure", "regular_lift_4"): (0, "e3dbd403af6e7dae59271f65be16538c7512d57a98474126b4233c2d6643e034"),
    ("closure", "regular_weber_gap_5"): (0, "dca09cb661bde5d7c234ed20e06d8de494af9b5a005ea52f9a4eb008193ec11e"),
    ("closure", "wuc_condition_fails_4"): (0, "00b476527f78cb208936ac00648c7759d58b0f761c9548760bc92b918f47c7ff"),
    ("closure", "hierarchy_9"): (0, "3ee60af49801255f3dbd86deb88008ab3ce8bab17a3cb797d3644500e7e2d4e4"),
    ("chains", "downset_lattice_4"): (0, "4068046cc878048cd31930b2e081f0286f89a870c1d4cf0dea65b7e65c5865cc"),
    ("chains", "nonclosed_line_cone_4"): (0, "c441e9538d50ea647b2c81e57554ef199b513f1f417a9c72f7ee03542764a049"),
    ("chains", "regular_lift_4"): (0, "be7828e3e961880e551bb0858e9dab78ae145b9a073d6f012e092b9d50b9bbf9"),
    ("chains", "regular_weber_gap_5"): (0, "088efa12fcd4ec9211b30fb6b091ea5ee723177c374621736d6917b81b5530cd"),
    ("chains", "wuc_condition_fails_4"): (0, "f1ad53f253b94d843706eb0436a35269bdd2c33c34f4bb4aa77d0f57091f1d3c"),
    ("chains", "hierarchy_9"): (0, "42ceb62f5ea43f790004af0b51354751d73cf2745cc1eaa2114c06bb2dd3382d"),
    ("rays", "downset_lattice_4"): (0, "9f9779ccd5a9fbae8e38888b216d268200f9fcf1f7ebdc7767325f0c528176ee"),
    ("rays", "nonclosed_line_cone_4"): (0, "46c2e246c775762cf8f8ab11ba79f4cd7f199c3faffd72893640fa7a4fec9892"),
    ("rays", "regular_lift_4"): (0, "fc42e6008b9e95c650ae0bdd69056c1dbdfdfdbbe09f946a5cd89d414b764b77"),
    ("rays", "regular_weber_gap_5"): (0, "12bab1084b8f67835daaad6b08ff9c4c3fa01573321746380a9783ce62646b4a"),
    ("rays", "wuc_condition_fails_4"): (0, "09415c8643190bedd01017f14f7b1f4032f65bc0c4c8a428b29af7df92d56821"),
    ("rays", "hierarchy_9"): (0, "719ad15348dc0187956d4d08848fec085b96e3f95a58b2e8b665a27649d4b494"),
    ("normal", "downset_lattice_4"): (0, "d95f8b002b53e192eafee18ae8324d4eb659f659eb6844499bd6eabd107287dd"),
    ("normal", "nonclosed_line_cone_4"): (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("normal", "regular_lift_4"): (0, "2ab1307b4e7d8bfb8d667273da3d7e8855884dc06ffc8181d62f2f3db67615c1"),
    ("normal", "regular_weber_gap_5"): (0, "e769212d91403cc437e9546e30af973e062c25d596ac4c047a7fef29485c09e3"),
    ("normal", "wuc_condition_fails_4"): (0, "16b138f89ed1bad66d0ce0dd0ea8102d774231e7de1bf10d55d0b857b0662e2f"),
    ("normal", "hierarchy_9"): (0, "be593cda81cf82da7fad52a9a31b7c28e2336939e8182b0508e5235bd944fb62"),
}
# the same for the game verbs on regular_weber_gap_5_game.json, by --collection
GAME_PINS = {
    ("core", "weber"): (0, "2adcd13af795d9dc4f03ea810b4c7992373e4497c532bb6a93bc9fc5d0db05cf"),
    ("core", None): (0, "e9d411592003b93d574f28912c4bfe655eba2b4871ac25c52bcc6b5e6bfdf1fa"),
    ("weber", "weber"): (0, "0d2381808112fdb1ec570ac9f96f11662bf1b1c620020c04399185c99dca31fc"),
    ("weber", None): (0, "e982bae3eeddcd4676b6f156c7f402fe2dc819754172abcece99e0917deb8334"),
    ("verify-inclusion", "weber"): (0, "b3761196b1d4fcde29677b5d593bd0dabbd24e6e8e0a8f8d13b4017942fc5ccf"),
    ("verify-inclusion", None): (0, "b3761196b1d4fcde29677b5d593bd0dabbd24e6e8e0a8f8d13b4017942fc5ccf"),
}


class TestVerbPins:
    """Every verb's report, byte for byte, on the shipped fixtures."""

    @staticmethod
    def pin(code, out):
        return code, hashlib.sha256(out.encode()).hexdigest()

    @pytest.mark.parametrize("verb, fixture", list(SYSTEM_PINS))
    def test_system_verbs(self, capsys, verb, fixture):
        flag = "--poset" if fixture == "hierarchy_9" else "--system"
        extra = ["--method", "all"] if verb == "normal" else []
        code, out, _ = run(capsys, verb, flag, str(FIXTURE_DIR / f"{fixture}.json"), *extra)
        assert self.pin(code, out) == SYSTEM_PINS[verb, fixture]

    @pytest.mark.parametrize("verb", ["core", "weber", "verify-inclusion"])
    def test_grabisch_xie_has_two_names(self, capsys, verb):
        game = str(FIXTURE_DIR / "regular_weber_gap_5_game.json")
        short = run(capsys, verb, "--game", game, "--collection", "gx")
        assert short[0] == 0
        assert run(capsys, verb, "--game", game, "--collection", "grabisch_xie") == short
        code, usage, _ = run(capsys, verb, "--help")
        assert code == 0 and "gx | grabisch_xie" in usage

    @pytest.mark.parametrize("verb, collection", list(GAME_PINS))
    def test_game_verbs(self, capsys, verb, collection):
        extra = ["--collection", collection] if collection else []
        game = str(FIXTURE_DIR / "regular_weber_gap_5_game.json")
        code, out, _ = run(capsys, verb, "--game", game, *extra)
        assert self.pin(code, out) == GAME_PINS[verb, collection]


class TestReproduce:
    def test_all_fixtures_match_goldens(self, capsys):
        code, out, _ = run(capsys, "reproduce")
        assert code == 0
        assert "6/6 fixtures match" in out
        assert out.count("PASS") == 6

    @pytest.mark.parametrize("option", [["--out", "x.json"], ["--format", "raw"]])
    def test_report_options_are_refused(self, capsys, tmp_path, monkeypatch, option):
        # reproduce prints its own lines; --out and --format belong to the report verbs
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "reproduce", *option)
        assert code == 1 and out == "" and option[0] in err
        assert list(tmp_path.iterdir()) == []

    def test_mismatch_names_first_differing_path(self, capsys, monkeypatch):
        original = cli._fixture_payload

        def tampered(entry):
            payload = original(entry)
            if entry["name"] == "hierarchy_9":
                payload["rays"]["extremal_rays"][2][0] = "7/3"
            return payload

        monkeypatch.setattr(cli, "_fixture_payload", tampered)
        code, out, _ = run(capsys, "reproduce")
        assert code == 1
        assert "FAIL hierarchy_9 (report differs from golden at $.rays.extremal_rays[2][0])" in out
        assert out.count("PASS") == 5
        assert out.splitlines()[-1] == "5/6 fixtures match"

    def test_first_difference_paths(self):
        first = cli._first_difference
        assert first({"a": [1, 2]}, {"a": [1, 2]}) is None
        assert first({"a": [1, 2]}, {"a": [1, 3]}) == "$.a[1]"
        assert first({"a": [1, 2]}, {"a": [1]}) == "$.a[1]"
        assert first({"a": 1, "b": 2}, {"a": 1}) == "$.b"
        assert first({"a": True}, {"a": 1}) == "$.a"
        assert first({"a": 1}, None) == "$"


class TestValidationFailures:
    def test_invalid_document_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 3, "sets": [[1]]}))
        code, _, err = run(capsys, "classify", "--system", str(bad))
        assert code == 1 and "error" in err

    def test_game_values_must_be_an_object(self, capsys, tmp_path):
        bad = tmp_path / "game.json"
        bad.write_text(json.dumps({"system": WEBER_GAP_10SET, "values": [1, 2]}))
        code, _, err = run(capsys, "core", "--game", str(bad))
        assert code == 1 and "error" in err

    def test_poset_relation_must_be_a_pair(self, capsys, tmp_path):
        bad = tmp_path / "poset.json"
        bad.write_text(json.dumps({"n": 3, "relations": [1, 2]}))
        code, _, err = run(capsys, "classify", "--poset", str(bad))
        assert code == 1 and "error" in err

    def test_collection_sets_must_be_player_lists(self, capsys, tmp_path, paths):
        bad = tmp_path / "collection.json"
        bad.write_text(json.dumps({"sets": [1]}))
        code, _, err = run(
            capsys, "core", "--game", paths["weber_gap_game"], "--collection", str(bad)
        )
        assert code == 1 and "error" in err

    def test_closure_height_deficit_reported(self, capsys, tmp_path):
        doc = tmp_path / "glued.json"
        doc.write_text(json.dumps({"n": 3, "sets": [[], [1, 2], [1, 2, 3]]}))
        code, _, err = run(capsys, "normal", "--system", str(doc))
        assert code == 1 and "height" in err


class TestInputOutputErrors:
    """A file that cannot be read or written ends in one error line and exit 1, not a traceback."""

    @staticmethod
    def refused(capsys, path, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err
        return err

    def test_out_in_a_missing_directory(self, capsys, tmp_path, paths):
        target = tmp_path / "missing" / "x.json"
        argv = ["classify", "--system", paths["line_cone"], "--out", str(target)]
        err = self.refused(capsys, target, *argv)
        assert "cannot write" in err and not target.parent.exists()

    def test_out_naming_a_directory(self, capsys, tmp_path, paths):
        argv = ["classify", "--system", paths["line_cone"], "--out", str(tmp_path)]
        err = self.refused(capsys, tmp_path, *argv)
        assert "cannot write" in err

    READERS = [("classify", "--system"), ("classify", "--poset"), ("core", "--game")]

    @pytest.mark.parametrize("verb, option", READERS)
    def test_input_not_utf8(self, capsys, tmp_path, verb, option):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"n": 2, "sets": [], "note": "\xe9\xff"}')
        err = self.refused(capsys, bad, verb, option, str(bad))
        assert "cannot read" in err and "utf-8" in err

    @pytest.mark.parametrize("verb, option", READERS)
    def test_input_nested_too_deeply(self, capsys, tmp_path, verb, option):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        err = self.refused(capsys, deep, verb, option, str(deep))
        assert "nested too deeply" in err

    def test_integer_too_long_to_convert(self, capsys, tmp_path):
        long = tmp_path / "long.json"
        long.write_text('{"n": ' + "1" * 5000 + ', "sets": []}')
        err = self.refused(capsys, long, "classify", "--system", str(long))
        assert "invalid JSON" in err

    def test_game_value_too_long_to_convert(self, capsys, tmp_path):
        game = tmp_path / "game.json"
        values = {"1": "1" * 5000, "1,2": "3"}
        game.write_text(json.dumps({"system": {"n": 2, "sets": [[], [1], [1, 2]]}, "values": values}))
        code, out, err = run(capsys, "core", "--game", str(game))
        assert code == 1 and out == "" and err.startswith("error: rational too long") and err.count("\n") == 1

    def test_collection_nested_too_deeply(self, capsys, tmp_path, paths):
        deep = tmp_path / "deep.json"
        deep.write_text('{"sets": ' + "[" * 100_000 + "]" * 100_000 + "}")
        argv = ["core", "--game", paths["weber_gap_game"], "--collection", str(deep)]
        err = self.refused(capsys, deep, *argv)
        assert "nested too deeply" in err


class TestReusedOracleVerdicts:
    """The collections report decides boundedness by the face rule; a fresh oracle run must agree."""

    def check(self, f, candidate=None):
        cone = dd_generators(build_recession_cone(f))
        closed = closure(f)
        try:
            if candidate is None:
                doc = cli._collections_document(f, cli._lift_named(f, cli.METHOD_NAMES, cone))
            else:
                named = dict.fromkeys(cli.METHOD_NAMES, candidate)
                poset = extract_poset(closed)
                with mock.patch.object(
                    cli, "_named_collections", lambda system: (closed, poset, named)
                ):
                    doc = cli._collections_document(f, cli._lift_named(f, cli.METHOD_NAMES, cone))
        except ValidationError:
            return None
        for entry in doc["collections"].values():
            collection = NormalCollection(tuple(f.coalition(s) for s in entry["sets"]))
            lifted = NormalCollection(tuple(f.coalition(s) for s in entry["lift"]["sets"]))
            if candidate is None:
                # the report states what the paper proves of the named collections
                assert entry["validated_on_closure"] == validate_normal(closed, collection)
            assert entry["lift"]["validated"] == validate_normal(f, lifted)
        if doc["already_closed"]:
            assert rays_general(f).equals_closure_cone
        return doc

    @settings(max_examples=80, deadline=None)
    @given(poset_downsets())
    def test_closed_systems(self, f):
        self.check(f)

    @settings(max_examples=80, deadline=None)
    @given(separating_systems())
    def test_separating_systems(self, f):
        self.check(f)

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(poset_downsets(), separating_systems()), st.data())
    def test_random_candidates_on_the_closure(self, f, data):
        inner = [c for c in closure(f) if c.mask not in (0, f.universe.full_mask)]
        picked = data.draw(st.lists(st.sampled_from(inner), unique=True, max_size=4)) if inner else []
        self.check(f, NormalCollection(tuple(picked), kind="custom"))

    def test_partial_candidate_does_not_bound_the_closure(self):
        f = downsets(load_poset({"n": 9, "relations": HIERARCHY_9_RELS}))
        candidate = NormalCollection((f.coalition([1, 2, 3]),), kind="custom")
        assert not validate_normal(closure(f), candidate)
        doc = self.check(f, candidate)
        for entry in doc["collections"].values():
            assert entry["lift"]["extra_sets"] != []


class TestOneConeRun:
    """Each query runs DD on the system's recession cone once; the lift and the report run none."""

    @pytest.fixture
    def dd_log(self, monkeypatch):
        # every DD run outside core_weber, whose runs are on a game's polytopes
        return call_log(monkeypatch, "dd_generators", cli, normal, rays)

    @pytest.mark.parametrize("name", ["line_cone", "regular_lift", "weber_gap", "transfer_gap"])
    def test_normal_runs_dd_once(self, capsys, paths, dd_log, name):
        code, _, _ = run(capsys, "normal", "--system", paths[name], "--method", "all")
        assert code in (0, 1) and len(dd_log) <= 1

    def test_normal_on_a_poset_runs_no_dd(self, capsys, tmp_path, dd_log):
        doc = tmp_path / "hierarchy.json"
        doc.write_text(json.dumps({"n": 9, "relations": HIERARCHY_9_RELS}))
        code, _, _ = run(capsys, "normal", "--poset", str(doc), "--method", "all")
        assert code == 0 and dd_log == []

    def test_normal_on_a_nonclosed_system_runs_dd_once(self, capsys, paths, dd_log):
        code, _, _ = run(capsys, "normal", "--system", paths["regular_lift"], "--method", "all")
        assert code == 0 and dd_log == [(build_recession_cone(load_set_system(REGULAR_LIFT_8SET)),)]

    @pytest.mark.parametrize("entry", cli.FIXTURES, ids=lambda entry: entry["name"])
    def test_reproduce_runs_the_cone_once(self, monkeypatch, dd_log, entry):
        calls = call_log(monkeypatch, "_analysis_document", cli)
        cli._fixture_payload(entry)
        system, _ = calls[0]
        assert dd_log == [(build_recession_cone(system),)]

    @pytest.mark.parametrize("source", ["chain", "hierarchy", "regular_lift"])
    def test_rays_builds_closure_and_poset_once(self, capsys, tmp_path, paths, monkeypatch, source):
        # rays_general, rays_regular, wuc_ray_equality_condition and the
        # distributive route all ask for the closure or its poset
        if source == "regular_lift":
            argv = ["--system", paths["regular_lift"]]
        else:
            relations = HIERARCHY_9_RELS if source == "hierarchy" else [[i, i + 1] for i in range(1, 9)]
            doc = tmp_path / "poset.json"
            doc.write_text(json.dumps({"n": 9, "relations": relations}))
            argv = ["--poset", str(doc)]
        # the closure's sets are the unions of the J_i, and the poset is the J_i
        # themselves: every reader gets the one tuple stored on the input; the
        # downsets of a poset are its closure already, so their unions are the only ones
        closures = call_log(monkeypatch, "unions", setsystem, lattice)
        smallest = []
        compute = setsystem.smallest_sets

        def logged(f):
            smallest.append(compute(f))
            return smallest[-1]

        for module in (setsystem, lattice):
            monkeypatch.setattr(module, "smallest_sets", logged)
        code, _, _ = run(capsys, "rays", *argv)
        assert code == 0 and len(closures) == 1
        assert smallest and all(js is smallest[0] for js in smallest)

    def test_collections_report_calls_no_oracle(self, monkeypatch):
        f = load_set_system(REGULAR_LIFT_8SET)
        cone = dd_generators(build_recession_cone(f))

        def forbidden(*args):
            raise AssertionError("oracle called")

        for module, name in ((cli, "dd_generators"), (normal, "dd_generators"), (cli, "validate_normal")):
            monkeypatch.setattr(module, name, forbidden)
        doc = cli._collections_document(f, cli._lift_named(f, cli.METHOD_NAMES, cone))
        assert doc["collections"]["grabisch_xie"]["lift"]["extra_sets"] == [[1, 3]]


class TestClosedSystemCollections:
    """On a closed system named collections are lifted over the covering-pair
    transfers, with no DD; elsewhere over the DD cone."""

    @staticmethod
    def lifted_cones(monkeypatch, f):
        """The lifts ``_lift_named`` makes of every named collection, and the cone each one walks."""
        cones = []
        lift = cli.lift_collection_detailed
        with monkeypatch.context() as patched:
            patched.setattr(
                cli,
                "lift_collection_detailed",
                lambda system, candidate, rays, cone: cones.append(cone) or lift(system, candidate, rays, cone),
            )
            lifts = cli._lift_named(f, cli.METHOD_NAMES)[-1]
        return lifts, cones

    def test_transfer_cone_equals_the_dd_cone(self, monkeypatch):
        rng = random.Random(7006)
        for _ in range(150):
            f = downsets(random_poset(rng, rng.randint(1, 7)))
            _, cones = self.lifted_cones(monkeypatch, f)
            dd = dd_generators(build_recession_cone(f))
            assert dd.lineality == ()
            assert cones == [dd] * len(cli.METHOD_NAMES), f.to_document()

    def test_random_candidates_lift_as_over_the_dd_cone(self, monkeypatch):
        rng = random.Random(7009)
        changed = 0
        for _ in range(150):
            f = downsets(random_poset(rng, rng.randint(2, 7)))
            closed, poset, _ = cli._named_collections(f)
            inner = [c for c in closed if c.mask not in (0, f.universe.full_mask)]
            candidates = {
                name: NormalCollection(tuple(rng.sample(inner, min(len(inner), rng.randint(0, 3)))))
                for name in cli.METHOD_NAMES
            }
            with monkeypatch.context() as patched:
                patched.setattr(cli, "_named_collections", lambda system: (closed, poset, candidates))
                lifts, _ = self.lifted_cones(patched, f)
            cone = dd_generators(build_recession_cone(f))
            for name, candidate in candidates.items():
                expected = lift_collection_detailed(f, candidate, rays_distributive(poset), cone)
                assert lifts[name] == expected, (f.to_document(), candidate)
                changed += expected.changed
        assert changed >= 100

    def test_resolve_matches_the_dd_route_lift(self, monkeypatch):
        def forbidden(poly):
            raise AssertionError("DD run on a closed system")

        rng = random.Random(7007)
        for _ in range(200):
            f = downsets(random_poset(rng, rng.randint(1, 7)))
            _, poset, named = cli._named_collections(f)
            cone = dd_generators(build_recession_cone(f))
            with monkeypatch.context() as patched:
                patched.setattr(cli, "dd_generators", forbidden)
                resolved = {name: cli._resolve_collection(f, name) for name in cli.METHOD_NAMES}
            for name in cli.METHOD_NAMES:
                lifted = lift_collection_detailed(f, named[name], rays_distributive(poset), cone)
                assert resolved[name] == lifted.collection, (f.to_document(), name)

    def test_other_systems_are_lifted(self):
        rng = random.Random(7008)
        changed = 0
        for _ in range(60):
            n = rng.randint(3, 5)
            full = (1 << n) - 1
            masks = {0, full}
            # 2n random sets that separate every pair of players
            while len({tuple(m >> i & 1 for m in masks) for i in range(n)}) < n:
                masks = {0, full} | {rng.randrange(1, full) for _ in range(2 * n)}
            f = SetSystem.from_masks(n, masks)
            _, poset, named = cli._named_collections(f)
            cone = dd_generators(build_recession_cone(f))
            for name in cli.METHOD_NAMES:
                lifted = lift_collection_detailed(f, named[name], rays_distributive(poset), cone)
                assert cli._resolve_collection(f, name) == lifted.collection
                changed += lifted.changed
        assert changed >= 20

    def test_normal_refuses_before_its_dd(self, capsys, tmp_path, monkeypatch):
        def forbidden(poly):
            raise AssertionError("DD run on a refused input")

        monkeypatch.setattr(cli, "dd_generators", forbidden)
        doc = tmp_path / "glued.json"
        doc.write_text(json.dumps({"n": 3, "sets": [[], [1, 2], [1, 2, 3]]}))
        code, _, err = run(capsys, "normal", "--system", str(doc))
        assert code == 1 and "height" in err


class TestParserReuse:
    """The argument parser is built once per process and answers like a fresh one."""

    def test_cached_parser_matches_a_fresh_one(self, capsys, paths):
        calls = [
            ["normal", "--system", paths["regular_lift"], "--bogus"],
            ["normal", "--system", paths["regular_lift"], "--method", "weber"],
            ["normal", "--system", paths["regular_lift"]],
            ["classify", "--system", paths["line_cone"], "--format", "raw"],
            ["normal", "--system", paths["regular_lift"], "--format", "raw"],
        ]
        cached = [run(capsys, *argv) for argv in calls]
        assert cli._build_parser() is cli._build_parser()
        fresh = []
        for argv in calls:
            with mock.patch.object(cli, "_build_parser", cli._build_parser.__wrapped__):
                fresh.append(run(capsys, *argv))
        assert cached == fresh
        assert cached[0][0] == 1 and "--bogus" in cached[0][2]
        assert list(json.loads(cached[1][1])["collections"]) == ["weber"]
        assert set(json.loads(cached[2][1])["collections"]) == {"irredundant", "weber", "grabisch_xie"}
        assert "\n" not in cached[4][1].strip()
        assert json.loads(cached[4][1]) == json.loads(cached[2][1])


class TestInternalInconsistency:
    """Each route that must agree with the oracle, forced to disagree, exits 2 naming both answers."""

    def test_regular_route(self, capsys, paths, monkeypatch):
        monkeypatch.setattr(cli, "rays_regular", lambda system: [])
        code, out, err = run(capsys, "rays", "--system", paths["weber_gap"])
        assert code == 2 and out == "" and "Traceback" not in err
        assert err == (
            "internal inconsistency: the regular route must yield exactly the transfer-form "
            "extremal rays of the oracle, but on the sets [[], [1], [2], [1, 4], [2, 4], [1, 2, 4], "
            "[2, 3, 4], [1, 2, 3, 4], [2, 3, 4, 5], [1, 2, 3, 4, 5]] it gives []; the oracle's "
            "transfer rays are [(0,0,-1,1,0), (0,0,1,0,-1), (0,1,-1,0,0)], its lineality []\n"
        )

    def test_distributive_route(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "rays_regular", lambda system: [])
        doc = tmp_path / "birkhoff.json"
        doc.write_text(json.dumps(BIRKHOFF_8))
        code, out, err = run(capsys, "rays", "--system", str(doc))
        assert code == 2 and out == "" and "Traceback" not in err
        assert err == (
            "internal inconsistency: covering-pair ray enumeration disagrees with the oracle on "
            "the sets [[], [1], [3], [1, 3], [3, 4], [1, 2, 3], [1, 3, 4], [1, 2, 3, 4]]: covering "
            "pairs give [], the oracle's rays are [(0,-1,1,0), (0,0,1,-1), (1,-1,0,0)], "
            "its lineality []\n"
        )

    def test_weakly_union_closed_route(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "wuc_ray_equality_condition", lambda system: True)
        doc = tmp_path / "wuc.json"
        doc.write_text(json.dumps(WUC_GAP_6SET))
        code, out, err = run(capsys, "rays", "--system", str(doc))
        assert code == 2 and out == "" and "Traceback" not in err
        assert err == (
            "internal inconsistency: the sufficient condition held but the closure cone differs "
            "on the sets [[], [1, 2], [2, 3], [1, 2, 3], [1, 3, 4], [1, 2, 3, 4]]: "
            "wuc_sufficient_condition=True, equals_closure_cone=False\n"
        )

    def test_closure_cone_against_pair_form(self, monkeypatch):
        monkeypatch.setattr(rays, "is_transfer", lambda vector: False)
        with pytest.raises(InternalInconsistency) as caught:
            rays.rays_general(load_set_system(BIRKHOFF_8))
        assert str(caught.value) == (
            "closure-cone comparison disagrees with the pair-form criterion on the sets "
            "[[], [1], [3], [1, 3], [3, 4], [1, 2, 3], [1, 3, 4], [1, 2, 3, 4]]: "
            "equals_closure_cone=True, all_pair_form=False"
        )


_LABELS = st.one_of(
    st.integers(min_value=-1, max_value=5),
    st.booleans(),
    st.floats(min_value=-2, max_value=6, allow_nan=False),
    st.sampled_from(["1", "", None]),
)
_PLAYER_LISTS = st.lists(_LABELS, max_size=4)
_SETS = st.one_of(
    st.lists(st.one_of(_PLAYER_LISTS, _LABELS), max_size=8),
    _LABELS,
    st.dictionaries(st.sampled_from(["1", "sets"]), _LABELS, max_size=2),
)


@st.composite
def _near_valid_system(draw):
    """Sets over n of 0 to 4 players, usually with ∅ and N, sometimes with a repeat."""
    n = draw(st.integers(min_value=0, max_value=4))
    full = (1 << n) - 1
    masks = draw(st.sets(st.integers(min_value=0, max_value=max(full, 0)), max_size=10))
    if draw(st.integers(min_value=0, max_value=3)):
        masks |= {0, full}
    sets = [[p for p in range(1, n + 1) if m >> (p - 1) & 1] for m in sorted(masks)]
    if sets and draw(st.integers(min_value=0, max_value=5)) == 0:
        sets.append(sets[-1])
    return {"n": n, "sets": sets}


@st.composite
def _near_valid_game(draw):
    """A near-valid system with a worth for each nonempty set; one game in four has a bad worth,
    and one in five a second key for the same coalition ("2,1" beside "1,2", "1,1" beside "1")."""
    system = draw(_near_valid_system())
    keys = [",".join(map(str, players)) for players in system["sets"] if players]
    worths = st.integers(min_value=-3, max_value=3).map(str)
    if not draw(st.integers(min_value=0, max_value=3)):
        worths = st.one_of(worths, st.sampled_from(["1/2", "1/0", "x", 2, 1.5, True, None]))
        keys = draw(st.lists(st.sampled_from(keys), unique=True)) if keys else []
    if keys and not draw(st.integers(min_value=0, max_value=4)):
        players = draw(st.sampled_from(keys)).split(",")
        keys.append(",".join(players[::-1] if len(players) > 1 else players * 2))
    return {"system": system, "values": {key: draw(worths) for key in keys}}


# near-valid documents twice over, so about half the queries get past parsing
_SYSTEMS = st.one_of(
    _near_valid_system(),
    _near_valid_system(),
    st.fixed_dictionaries({"n": st.one_of(_LABELS, st.integers(min_value=0, max_value=4)), "sets": _SETS}),
    st.sampled_from([{}, [], {"n": 3}, {"sets": [[]]}, "text", 7]),
)
_POSETS = st.one_of(
    st.integers(min_value=2, max_value=4).flatmap(lambda n: st.fixed_dictionaries({
        "n": st.just(n),
        "relations": st.lists(
            st.sampled_from([[i, j] for i in range(1, n + 1) for j in range(i + 1, n + 1)]),
            max_size=4,
        ),
    })),
    st.fixed_dictionaries({
        "n": st.one_of(st.integers(min_value=0, max_value=4), _LABELS),
        "relations": st.one_of(
            st.lists(st.lists(st.integers(min_value=0, max_value=5), max_size=3), max_size=6),
            _LABELS,
            st.lists(_LABELS, max_size=3),
        ),
    }),
    st.sampled_from([{}, [], {"n": 2}, {"n": 3, "relations": [[1, 2], [2, 3], [3, 1]]}]),
)
_VALUES = st.one_of(
    st.dictionaries(
        st.sampled_from(["1", "2", "1,2", "1,2,3", "3", "2,3", "", "x", "0"]),
        st.one_of(st.sampled_from(["1", "-1/2", "1/0", "x", ""]), _LABELS),
        max_size=8,
    ),
    st.lists(_LABELS, max_size=2),
    _LABELS,
)
_GAMES = st.one_of(
    _near_valid_game(),
    _near_valid_game(),
    st.fixed_dictionaries({"system": _SYSTEMS, "values": _VALUES}),
    st.sampled_from([{}, {"system": WEBER_GAP_10SET}, {"values": {}}]),
)
_COLLECTIONS = st.one_of(
    st.sampled_from(["irredundant", "weber", "gx"]),
    st.fixed_dictionaries(
        {"sets": st.one_of(st.lists(_PLAYER_LISTS, max_size=3), _SETS)},
        optional={"kind": st.sampled_from(["custom", "weber", "grabisch_xie", "irredundant", "bogus", 3])},
    ),
    st.sampled_from([{}, [], "text"]),
)


def _names_a_coalition_twice(game) -> bool:
    """Whether two keys of a game document's values name the same coalition."""
    values = game.get("values") if isinstance(game, dict) else None
    seen = set()
    for key in values if isinstance(values, dict) else ():
        try:
            players = frozenset(int(part) for part in key.split(","))
        except ValueError:
            continue
        if players in seen:
            return True
        seen.add(players)
    return False


class TestFuzz:
    """Malformed and edge-case documents through every verb: exit 0 or 1, never a traceback."""

    @settings(max_examples=250, deadline=None)
    @given(st.data())
    def test_every_verb_answers_or_refuses(self, data):
        verb = data.draw(st.sampled_from(
            ["classify", "closure", "chains", "rays", "normal", "core", "weber", "verify-inclusion"]
        ))
        with tempfile.TemporaryDirectory() as folder:

            def document(value, name):
                path = os.path.join(folder, name)
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(value, handle)
                return path

            game = None
            if verb in ("core", "weber", "verify-inclusion"):
                game = data.draw(_GAMES)
                argv = [verb, "--game", document(game, "game.json")]
                collection = data.draw(_COLLECTIONS)
                if isinstance(collection, str):
                    argv += ["--collection", collection]
                elif data.draw(st.booleans()):
                    argv += ["--collection", document(collection, "collection.json")]
            elif data.draw(st.booleans()):
                argv = [verb, "--poset", document(data.draw(_POSETS), "poset.json")]
            else:
                argv = [verb, "--system", document(data.draw(_SYSTEMS), "system.json")]
            if verb == "normal":
                argv += ["--method", data.draw(st.sampled_from(["all", "irredundant", "weber", "gx"]))]
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert (code == 0) == bool(out.getvalue())
        if _names_a_coalition_twice(game):
            assert code == 1 and "error:" in err.getvalue(), (argv, err.getvalue())


def test_python_dash_m_runs_the_cli():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "boundedcore", "reproduce"],
        capture_output=True, text=True, env=env, cwd=root, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "6/6 fixtures match"
