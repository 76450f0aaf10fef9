"""The CLI's report writer against the standard library's indented encoder."""

import dataclasses
import io
import json
import os
import random
import tempfile
from argparse import Namespace
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundedcore import cli, rays_general
from boundedcore.cli import CoalitionList, main, render

from helpers import (
    poset_downsets,
    random_game,
    random_regular_system,
    reference_render,
    separating_systems,
    vec,
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

# one list object in several places of one report
_SHARED = [1, 2]


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
        # lists of scalar lists: one shared list twice at one depth and once at another
        [[_SHARED, [3], _SHARED], {"x": [[_SHARED]]}, [_SHARED]],
        [[], [1]], [[1, True]], [[None]], [[True]], [["1/2", "3"], []], [[], []],
        [[1], ["a"]], [(1, 2), [3]], [[(1, 2)]], [[[1]]],
        {"é": ["ü", " "], "z": [10**30, -(10**30)]},
    ])
    def test_edge_cases(self, value):
        assert render(value) == reference_render(value)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_INT_LISTS | _STR_LISTS, min_size=1, max_size=5), st.data())
    def test_shared_scalar_lists(self, pool, data):
        # lists of picks from one pool of list objects, at two depths
        picks = st.lists(st.sampled_from(pool), max_size=5)
        value = data.draw(st.lists(picks | st.lists(picks, max_size=3), max_size=6))
        assert render(value) == reference_render(value)
        assert render({"a": value, "b": pool}) == reference_render({"a": value, "b": pool})

    @pytest.mark.parametrize("value", [
        1.5, [1, 2.0], {"a": [0.0]}, [[1, 2.5]], [["a"], [0.5]], {1: "x"}, {"a": {None: 1}}, {(1, 2): 3}, {1.5: 1},
    ])
    def test_refuses_what_reports_never_hold(self, value):
        with pytest.raises(TypeError):
            render(value)


@st.composite
def _coalition_lists(draw):
    """A list of coalitions on 1 to 16 players, with ∅, N and sets of players 9-16 only."""
    n = draw(st.integers(min_value=1, max_value=16))
    full = (1 << n) - 1
    masks = st.integers(min_value=0, max_value=full) | st.sampled_from([0, full])
    if n > 8:
        masks |= st.integers(min_value=1, max_value=full >> 8).map(lambda high: high << 8)
    return CoalitionList(tuple(draw(st.lists(masks, max_size=8))))


def _expanded(value):
    'the value with each CoalitionList spelled out as its member lists, bit by bit'
    if isinstance(value, CoalitionList):
        return [[p for p in range(1, 17) if m >> (p - 1) & 1] for m in value.masks]
    if isinstance(value, (list, tuple)):
        return [_expanded(item) for item in value]
    if isinstance(value, dict):
        return {key: _expanded(item) for key, item in value.items()}
    return value


def _raw(value) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        cli._emit(value, Namespace(format="raw", out=None))
    return out.getvalue()


# coalition lists alone and in lists of their own, beside plain lists and scalars
_REPORT_TREES = st.recursive(
    _coalition_lists() | st.lists(_coalition_lists(), max_size=4) | _SCALARS | _INT_LISTS | _STR_LISTS,
    _containers,
    max_leaves=12,
)


class TestCoalitionLists:
    @settings(max_examples=250, deadline=None)
    @given(_REPORT_TREES)
    def test_written_as_their_member_lists(self, value):
        members = _expanded(value)
        assert render(value) == reference_render(members)
        assert _raw(value) == json.dumps(members, sort_keys=True, separators=(",", ":")) + "\n"

    @pytest.mark.parametrize("value", [
        CoalitionList(()), [CoalitionList(())], [CoalitionList(()), CoalitionList((0,))],
        CoalitionList((0,)), CoalitionList((0, 1, 0xFF, 0x100, 0xFF00, 0xFFFF)),
        {"sets": CoalitionList((0, 3)), "chains": [CoalitionList((0, 1, 3)), CoalitionList((0, 2, 3))]},
        # one list of coalitions beside a plain list, in a tuple, and two levels down
        [CoalitionList((5,)), [1, 2]], (CoalitionList((5,)),), [[CoalitionList((0x8000,))]],
    ])
    def test_edge_cases(self, value):
        assert render(value) == reference_render(_expanded(value))
        assert _raw(value) == json.dumps(_expanded(value), sort_keys=True, separators=(",", ":")) + "\n"


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
