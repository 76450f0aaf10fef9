"""The CLI's report writer against the standard library's indented encoder."""

import dataclasses
import io
import json
import os
import random
import tempfile
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundedcore import cli, rays_general
from boundedcore.cli import main, render
from boundedcore.vectors import vec

from helpers import (
    poset_downsets,
    random_game,
    random_regular_system,
    reference_render,
    separating_systems,
)

# keys and strings: any text, plus the characters the encoder escapes or spells out
_TEXT = st.text(max_size=6) | st.sampled_from(
    ["", '"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "ß", " ", "😀", "a\"b\\c"]
)
_INTS = st.integers() | st.integers(min_value=-(2**80), max_value=2**80)
_SCALARS = st.none() | st.booleans() | _INTS | _TEXT
# lists that look like coalitions, some with a bool or None among the ints
_INT_LISTS = st.lists(_INTS | st.booleans() | st.none(), max_size=6)
_STR_LISTS = st.lists(_TEXT, max_size=4)


def _containers(children):
    items = st.lists(children, max_size=4)
    return items | items.map(tuple) | st.dictionaries(_TEXT, children, max_size=4)


_TREES = st.recursive(_SCALARS | _INT_LISTS | _STR_LISTS, _containers, max_leaves=40)


class TestWriter:
    @settings(max_examples=250, deadline=None)
    @given(_TREES)
    def test_matches_the_standard_encoder(self, value):
        assert render(value) == reference_render(value)

    @pytest.mark.parametrize("value", [
        {}, [], (), {"a": {}}, {"a": []}, [[], {}, ()], [[[[]]]], {"a": {"b": {"c": {}}}},
        # the same int list at two depths is rendered at each depth
        [[1, 2], {"x": [1, 2]}, [[1, 2]]],
        [1, True, 0, False, None, -1],
        [True, False], [1, "1"], ["a", None],
        {"é": ["ü", " "], "z": [10**30, -(10**30)]},
    ])
    def test_edge_cases(self, value):
        assert render(value) == reference_render(value)

    @pytest.mark.parametrize("value", [
        1.5, [1, 2.0], {"a": [0.0]}, {1: "x"}, {"a": {None: 1}}, {(1, 2): 3}, {1.5: 1},
    ])
    def test_refuses_what_reports_never_hold(self, value):
        with pytest.raises(TypeError):
            render(value)


def _stdout(argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    assert code in (0, 1)
    return out.getvalue() if code == 0 else ""


def _assert_reports_match(argv):
    out = _stdout(argv)
    if out:
        assert out == reference_render(json.loads(out)) + "\n", argv


_SYSTEM_VERBS = ("classify", "closure", "chains", "rays", "normal")
_GAME_VERBS = ("core", "weber", "verify-inclusion")


class TestEveryVerb:
    """Every verb's stdout is the standard encoder's rendering of its own report."""

    @settings(max_examples=40, deadline=None)
    @given(separating_systems() | poset_downsets())
    def test_random_systems(self, system):
        with tempfile.TemporaryDirectory() as folder:
            path = os.path.join(folder, "system.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(system.to_document(), handle)
            for verb in _SYSTEM_VERBS:
                _assert_reports_match([verb, "--system", path])

    def test_random_posets(self, tmp_path):
        rng = random.Random(404)
        for k in range(6):
            n = rng.randint(2, 6)
            relations = [[i, j] for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < 0.3]
            path = tmp_path / f"poset{k}.json"
            path.write_text(json.dumps({"n": n, "relations": relations}))
            for verb in _SYSTEM_VERBS:
                _assert_reports_match([verb, "--poset", str(path)])

    def test_random_games(self, tmp_path):
        rng = random.Random(505)
        for k in range(6):
            game = random_game(rng, random_regular_system(rng, rng.randint(2, 4)))
            path = tmp_path / f"game{k}.json"
            path.write_text(json.dumps(game.to_document()))
            for verb in _GAME_VERBS:
                # no collection leaves the core unbounded, with rays in its report
                for collection in ([], ["--collection", "weber"], ["--collection", "gx"]):
                    _assert_reports_match([verb, "--game", str(path), *collection])

    def test_raw_format_is_the_compact_encoder(self, tmp_path):
        path = tmp_path / "poset.json"
        path.write_text(json.dumps({"n": 4, "relations": [[1, 2], [3, 4]]}))
        for verb in _SYSTEM_VERBS:
            out = _stdout([verb, "--poset", str(path), "--format", "raw"])
            assert out == json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"

    def test_fixture_payloads(self):
        for entry in cli.FIXTURES:
            payload = cli._fixture_payload(entry)
            assert render(payload) == reference_render(payload)


@settings(max_examples=40, deadline=None)
@given(separating_systems() | poset_downsets())
def test_rays_report_renders_the_same_from_fractions(system):
    report = rays_general(system)
    assert all(type(c) is int for v in report.extremal_rays + report.lineality for c in v)
    as_fractions = dataclasses.replace(
        report,
        extremal_rays=tuple(map(vec, report.extremal_rays)),
        lineality=tuple(map(vec, report.lineality)),
    )
    assert render(cli._rays_document(system, as_fractions)) == render(
        cli._rays_document(system, report)
    )
