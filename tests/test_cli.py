import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boundedcore import (
    NormalCollection,
    PlayerPoset,
    SetSystem,
    ValidationError,
    cli,
    closure,
    downsets,
    rays_general,
    validate_normal,
)
from boundedcore.cli import main

from helpers import (
    LINE_CONE_5SET,
    REGULAR_LIFT_8SET,
    TRANSFER_GAP_7SET,
    WEBER_GAP_10SET,
    WEBER_GAP_GAME,
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


class TestReproduce:
    def test_all_fixtures_match_goldens(self, capsys):
        code, out, _ = run(capsys, "reproduce")
        assert code == 0
        assert "6/6 fixtures match" in out
        assert out.count("PASS") == 6

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


@st.composite
def poset_downsets(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    players = draw(st.permutations(range(1, n + 1)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    relations = [[players[i], players[j]] for i, j in chosen]
    return downsets(PlayerPoset.from_relations(n, relations))


@st.composite
def separating_systems(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    full = (1 << n) - 1
    inner = draw(st.sets(st.integers(min_value=1, max_value=full - 1), min_size=n, max_size=2 * n))
    masks = inner | {0, full}
    assume(len({tuple(m >> i & 1 for m in masks) for i in range(n)}) == n)
    return SetSystem.from_masks(n, masks)


class TestReusedOracleVerdicts:
    """The collections report reuses oracle runs; a fresh oracle run must agree."""

    def check(self, f):
        try:
            doc = cli._collections_document(f)
        except ValidationError:
            return
        closed = closure(f)
        for entry in doc["collections"].values():
            collection = NormalCollection(tuple(f.coalition(s) for s in entry["sets"]))
            lifted = NormalCollection(tuple(f.coalition(s) for s in entry["lift"]["sets"]))
            assert entry["validated_on_closure"] == validate_normal(closed, collection)
            assert entry["lift"]["validated"] == validate_normal(f, lifted)
        if doc["already_closed"]:
            assert rays_general(f).equals_closure_cone

    @settings(max_examples=80, deadline=None)
    @given(poset_downsets())
    def test_closed_systems(self, f):
        self.check(f)

    @settings(max_examples=80, deadline=None)
    @given(separating_systems())
    def test_separating_systems(self, f):
        self.check(f)
