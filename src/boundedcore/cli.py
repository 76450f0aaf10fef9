"""Command-line front end.

One verb per concept: classify, closure, chains, rays, normal, core, weber,
verify-inclusion, reproduce.  All reports are deterministic JSON on stdout
(identical inputs give byte-identical output); rationals travel as ``p/q``
strings.  Exit codes: 0 success, 1 invalid input or usage, 2 internal
inconsistency between two computation routes that must agree.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from importlib import resources
from json.encoder import encode_basestring_ascii as _quote

from .core_weber import (
    Game,
    build_restricted_core,
    marginal_hull,
    verify_inclusion,
    weber_chains,
)
from .errors import DocumentError, InternalInconsistency, ValidationError
from .lattice import downsets, extract_poset, load_poset
from .normal import (
    NormalCollection,
    algo1_irredundant,
    grabisch_xie_collection,
    lift_collection_detailed,
    validate_normal,
    weber_collection,
)
from .polyhedra import VRepresentation, dd_generators
from .rays import (
    build_recession_cone,
    rays_distributive,
    rays_general,
    rays_regular,
    wuc_ray_equality_condition,
)
from .setsystem import classify, closure, load_set_system, maximal_chains
from .vectors import format_rational, is_transfer

# every name --method and --collection accept for a named collection, mapped to its report key
COLLECTION_NAMES = {
    "irredundant": "irredundant",
    "weber": "weber",
    "gx": "grabisch_xie",
    "grabisch_xie": "grabisch_xie",
}
METHOD_NAMES = tuple(dict.fromkeys(COLLECTION_NAMES.values()))
_INTS_ONLY = frozenset({int})
_STRS_ONLY = frozenset({str})


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems on exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # a JSONDecodeError, or an integer longer than int() converts
        raise DocumentError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise DocumentError(f"{path}: JSON nested too deeply to read") from None


def _system_from_args(args):
    if getattr(args, "poset", None):
        if getattr(args, "system", None):
            raise DocumentError("give either --system or --poset, not both")
        return downsets(load_poset(_read_json(args.poset)))
    if getattr(args, "system", None):
        return load_set_system(_read_json(args.system))
    raise DocumentError("an input system is required (--system or --poset)")


def _render_vectors(vectors):
    return [[format_rational(c) for c in v] for v in vectors]


def _vectors_text(vectors) -> str:
    return "[" + ", ".join(f"({','.join(row)})" for row in _render_vectors(sorted(vectors))) + "]"


def _structure_document(system) -> dict:
    report = classify(system)
    return {
        "n": system.n,
        "set_count": len(system),
        "regular": report.is_regular,
        "weakly_union_closed": report.is_weakly_union_closed,
        "union_intersection_closed": report.is_union_intersection_closed,
        "height": report.height,
        "closure_height": report.closure_height,
    }


def _rays_document(system, report) -> dict:
    """Oracle ray report (``rays_general(system)``) plus every applicable
    structure-aware route.

    The routes must agree with the oracle; a mismatch aborts with the
    internal-inconsistency exit code because it means a theorem failed.
    """
    doc = {
        "n": system.n,
        "extremal_rays": _render_vectors(report.extremal_rays),
        "lineality": _render_vectors(report.lineality),
        "all_pair_form": report.all_pair_form,
        "equals_closure_cone": report.equals_closure_cone,
    }
    structure = classify(system)
    methods: dict = {"oracle": doc["extremal_rays"]}
    oracle_set = set(report.extremal_rays)
    if structure.is_regular:
        # a closed system of height n is a downset lattice, which is regular, and
        # the regular route's pairs are then its covering pairs: one list serves both
        pairs = rays_regular(system)
        vectors = set(pairs)
        names = [f"(+{r.index(1) + 1},-{r.index(-1) + 1})" for r in pairs]
        if structure.is_union_intersection_closed and structure.height == system.n:
            if report.lineality or vectors != oracle_set:
                raise InternalInconsistency(
                    "covering-pair ray enumeration disagrees with the oracle on the sets "
                    f"{system.to_document()['sets']}: covering pairs give {_vectors_text(vectors)}, "
                    f"the oracle's rays are {_vectors_text(oracle_set)}, "
                    f"its lineality {_vectors_text(report.lineality)}"
                )
            methods["distributive"] = names
        oracle_pairs = set(filter(is_transfer, oracle_set))
        if report.lineality or vectors != oracle_pairs:
            raise InternalInconsistency(
                "the regular route must yield exactly the transfer-form extremal "
                f"rays of the oracle, but on the sets {system.to_document()['sets']} it gives "
                f"{_vectors_text(vectors)}; the oracle's transfer rays are "
                f"{_vectors_text(oracle_pairs)}, its lineality {_vectors_text(report.lineality)}"
            )
        methods["regular"] = {"rays": names, "complete": vectors == oracle_set}
    if structure.is_weakly_union_closed:
        doc["wuc_sufficient_condition"] = wuc_ray_equality_condition(system)
        if doc["wuc_sufficient_condition"] and not report.equals_closure_cone:
            raise InternalInconsistency(
                "the sufficient condition held but the closure cone differs on the sets "
                f"{system.to_document()['sets']}: wuc_sufficient_condition=True, "
                "equals_closure_cone=False"
            )
    doc["methods"] = methods
    return doc


def _lift_document(outcome) -> dict:
    doc = {
        "sets": [list(c.members) for c in outcome.collection],
        "kind": outcome.collection.kind,
        "changed": outcome.changed,
        "replacements": [
            {
                "original": list(original.members),
                "chosen": list(chosen.members) if chosen is not None else None,
                "alternatives": [list(a.members) for a in alternatives],
            }
            for original, chosen, alternatives in outcome.replacements
        ],
        "extra_sets": [list(c.members) for c in outcome.extra_sets],
        # the lift returns only once its collection freezes every cone generator
        "validated": True,
    }
    return doc


def _named_collections(system):
    """The closure, its generating poset and the three collections built on it."""
    closed = closure(system)
    poset = extract_poset(closed)
    irr = algo1_irredundant(poset)
    named = {
        "irredundant": irr,
        "weber": weber_collection(irr),
        "grabisch_xie": grabisch_xie_collection(poset),
    }
    return closed, poset, named


def _lift_named(system, names, cone=None):
    """The named collections on the closure, each lifted over the system's cone.

    A closed system's cone is spanned by its covering-pair transfers, listed
    as DD lists them.  Any other system's generators come from ``cone`` or,
    when it is None, from one DD run made after the closure accepted it."""
    closed, poset, named = _named_collections(system)
    pair_rays = rays_distributive(poset)
    if len(closed) == len(system):
        transfers = tuple(sorted(pair_rays))
        cone = VRepresentation(system.n, ((0,) * system.n,), transfers, ())
    elif cone is None:
        cone = dd_generators(build_recession_cone(system))
    lifts = {name: lift_collection_detailed(system, named[name], pair_rays, cone) for name in names}
    return closed, poset, named, lifts


def _collections_document(system, lifted) -> dict:
    """Report of ``lifted``, a :func:`_lift_named` result on ``system``."""
    closed, poset, named, lifts = lifted
    out: dict = {
        "n": system.n,
        "height": poset.height(),
        "already_closed": len(closed) == len(system),
        "collections": {},
    }
    for name, outcome in lifts.items():
        collection = named[name]
        out["collections"][name] = {
            "sets": [list(c.members) for c in collection],
            "kind": collection.kind,
            "feasible": all(c.mask in system for c in collection),
            # extract_poset accepted the closure, a downset lattice of height n, and
            # each named collection bounds such a lattice's core by construction
            "validated_on_closure": True,
            "lift": _lift_document(outcome),
        }
    return out


def _resolve_collection(system, spec: str | None) -> NormalCollection:
    """Named collections are built on the closure and lifted; paths are loaded
    as ``{"kind":..., "sets":...}`` documents and validated, never trusted.
    Without a spec nothing is frozen."""
    if not spec:
        return NormalCollection((), kind="custom")
    if spec in COLLECTION_NAMES:
        name = COLLECTION_NAMES[spec]
        return _lift_named(system, (name,))[-1][name].collection
    document = _read_json(spec)
    if not isinstance(document, dict) or "sets" not in document:
        raise DocumentError('collection documents need a "sets" key')
    kind = document.get("kind", "custom")
    raw = document["sets"]
    if not isinstance(raw, list) or not all(isinstance(s, list) for s in raw):
        raise DocumentError('"sets" must be a list of player lists')
    sets = tuple(system.coalition(players) for players in raw)
    try:
        collection = NormalCollection(sets, kind=kind)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None
    if not validate_normal(system, collection):
        raise DocumentError(
            "the supplied collection does not bound the core; "
            "freezing those payoffs still leaves an unbounded direction"
        )
    return collection


def _h_document(poly) -> dict:
    row = lambda pair: {
        "coeffs": [format_rational(c) for c in pair[0]],
        "bound": format_rational(pair[1]),
    }
    return {
        "inequalities": [row(p) for p in poly.inequalities],
        "equalities": [row(p) for p in poly.equalities],
    }


def _analysis_document(system, game=None) -> dict:
    """Full pipeline report for one input; this is what `reproduce` freezes."""
    doc: dict = {"structure": _structure_document(system)}
    report = rays_general(system)
    doc["rays"] = _rays_document(system, report)
    # the core is bounded exactly when its recession cone has no ray and no line
    doc["boundedness"] = {"core": not report.extremal_rays and not report.lineality}
    try:
        lifted = _lift_named(system, METHOD_NAMES, report)
    except ValidationError as exc:
        if game is not None:
            raise
        doc["collections"] = {"error": str(exc)}
        return doc
    doc["collections"] = _collections_document(system, lifted)
    lifts = lifted[-1]
    # a lift returns only once its collection bounds the core
    doc["boundedness"]["restricted_core"] = dict.fromkeys(lifts, True)
    if game is not None:
        collection = lifts["weber"].collection
        verdict = verify_inclusion(game, collection)
        doc["inclusion"] = _verdict_document(collection, verdict)
        doc["inclusion"]["weber_vertices"] = _render_vectors(verdict.weber.vertices)
    return doc


def _verdict_document(collection, verdict) -> dict:
    return {
        "collection": [list(c.members) for c in collection],
        "holds": verdict.holds,
        "witness": None if verdict.witness is None else [format_rational(c) for c in verdict.witness],
    }


def render(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte, for report values.

    Reports hold only dicts with str keys, lists, tuples, str, int, bool and
    None; anything else raises TypeError.  A list of ints (a coalition's
    members) is rendered once per indentation level and reused, because
    chains repeat the same coalitions many times.
    """
    int_lists: dict = {}

    def write(value, pad: str) -> str:
        if isinstance(value, (list, tuple)):
            if not value:
                return "[]"
            inner = pad + "  "
            sep = ",\n" + inner
            kinds = set(map(type, value))
            if kinds == _INTS_ONLY:
                key = (tuple(value), pad)
                text = int_lists.get(key)
                if text is None:
                    text = int_lists[key] = f"[\n{inner}{sep.join(map(int.__repr__, value))}\n{pad}]"
                return text
            if kinds == _STRS_ONLY:
                return f"[\n{inner}{sep.join(map(_quote, value))}\n{pad}]"
            return f"[\n{inner}{sep.join([write(item, inner) for item in value])}\n{pad}]"
        if isinstance(value, str):
            return _quote(value)
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        if isinstance(value, int):
            return int.__repr__(value)
        if isinstance(value, dict):
            if not value:
                return "{}"
            for key in value:
                if not isinstance(key, str):
                    raise TypeError(f"report keys must be str, not {type(key).__name__}")
            inner = pad + "  "
            body = (",\n" + inner).join([f"{_quote(key)}: {write(value[key], inner)}" for key in sorted(value)])
            return f"{{\n{inner}{body}\n{pad}}}"
        raise TypeError(f"reports hold no {type(value).__name__} values")

    return write(value, "")


def _emit(payload: dict, args) -> None:
    if args.format == "raw":
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    else:
        text = render(payload)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise DocumentError(f"cannot write {args.out}: {exc}") from None
    else:
        print(text)


def _cmd_classify(args) -> dict:
    return _structure_document(_system_from_args(args))


def _cmd_closure(args) -> dict:
    return closure(_system_from_args(args)).to_document()


def _cmd_chains(args) -> dict:
    system = _system_from_args(args)
    chains = maximal_chains(system)
    # one member list per set, shared by every chain through it
    members = {c.mask: list(c.members) for c in system}
    payload = {
        "n": system.n,
        "count": len(chains),
        "chains": [[members[c.mask] for c in chain] for chain in chains],
    }
    # F is regular exactly when every maximal chain adds one player per step
    if all(len(chain) == system.n + 1 for chain in chains):
        payload["orders"] = [
            [(b.mask ^ a.mask).bit_length() for a, b in zip(chain, chain[1:])] for chain in chains
        ]
    return payload


def _cmd_rays(args) -> dict:
    system = _system_from_args(args)
    return _rays_document(system, rays_general(system))


def _cmd_normal(args) -> dict:
    system = _system_from_args(args)
    wanted = METHOD_NAMES if args.method == "all" else (COLLECTION_NAMES[args.method],)
    return _collections_document(system, _lift_named(system, wanted))


def _cmd_core(args) -> dict:
    game = Game.from_document(_read_json(args.game))
    collection = _resolve_collection(game.system, args.collection)
    poly = build_restricted_core(game, collection)
    gens = dd_generators(poly)
    return {
        "collection": [list(c.members) for c in collection],
        "h_representation": _h_document(poly),
        "v_representation": {
            "empty": gens.empty,
            "vertices": _render_vectors(gens.vertices),
            "extremal_rays": _render_vectors(gens.extremal_rays),
            "lineality": _render_vectors(gens.lineality),
        },
        # an empty core's V-representation hides its recession cone, whose rows
        # are those of the system's cone with the collection's sets frozen
        "bounded": validate_normal(game.system, collection)
        if gens.empty
        else not gens.extremal_rays and not gens.lineality,
    }


def _cmd_weber(args) -> dict:
    game = Game.from_document(_read_json(args.game))
    collection = _resolve_collection(game.system, args.collection)
    chains = weber_chains(game.system, collection)
    return {
        "collection": [list(c.members) for c in collection],
        "restricted_chain_count": len(chains),
        "vertices": _render_vectors(marginal_hull(game, chains).vertices),
    }


def _cmd_verify_inclusion(args) -> dict:
    game = Game.from_document(_read_json(args.game))
    collection = _resolve_collection(game.system, args.collection or "weber")
    return _verdict_document(collection, verify_inclusion(game, collection))


FIXTURES = (
    {"name": "downset_lattice_4", "system": "downset_lattice_4.json"},
    {"name": "hierarchy_9", "poset": "hierarchy_9.json"},
    {"name": "nonclosed_line_cone_4", "system": "nonclosed_line_cone_4.json"},
    {"name": "regular_lift_4", "system": "regular_lift_4.json"},
    {"name": "regular_weber_gap_5", "system": "regular_weber_gap_5.json", "game": "regular_weber_gap_5_game.json"},
    {"name": "wuc_condition_fails_4", "system": "wuc_condition_fails_4.json"},
)


def _fixture_payload(entry) -> dict:
    base = resources.files("boundedcore") / "fixtures"
    if "poset" in entry:
        system = downsets(load_poset(json.loads((base / entry["poset"]).read_text())))
    else:
        system = load_set_system(json.loads((base / entry["system"]).read_text()))
    game = None
    if "game" in entry:
        game = Game.from_document(json.loads((base / entry["game"]).read_text()))
    payload = _analysis_document(system, game)
    payload["fixture"] = entry["name"]
    return payload


def _first_difference(got, want, path: str = "$") -> str | None:
    """JSON path of the first place where two parsed documents differ, or None."""
    if type(got) is not type(want):
        return path
    if isinstance(got, dict):
        for key in sorted(got.keys() | want.keys()):
            if key not in got or key not in want:
                return f"{path}.{key}"
            found = _first_difference(got[key], want[key], f"{path}.{key}")
            if found is not None:
                return found
        return None
    if isinstance(got, list):
        for i, (g, w) in enumerate(zip(got, want)):
            found = _first_difference(g, w, f"{path}[{i}]")
            if found is not None:
                return found
        if len(got) != len(want):
            return f"{path}[{min(len(got), len(want))}]"
        return None
    return None if got == want else path


def _cmd_reproduce(args) -> int:
    base = resources.files("boundedcore") / "fixtures" / "golden"
    failures = 0
    for entry in FIXTURES:
        payload = _fixture_payload(entry)
        text = render(payload) + "\n"
        golden_path = base / f"{entry['name']}.golden.json"
        try:
            golden = golden_path.read_text()
        except FileNotFoundError:
            golden = None
        if golden == text:
            print(f"PASS {entry['name']}")
            continue
        failures += 1
        try:
            where = _first_difference(json.loads(text), json.loads(golden or "null"))
        except json.JSONDecodeError:
            where = "$"
        detail = f" at {where}" if where is not None else " in formatting only"
        print(f"FAIL {entry['name']} (report differs from golden{detail})")
    print(f"{len(FIXTURES) - failures}/{len(FIXTURES)} fixtures match")
    return 0 if failures == 0 else 1


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="boundedcore", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, needs_system=False, needs_game=False, collection=False, method=False):
        p = sub.add_parser(name)
        if needs_system:
            p.add_argument("--system", help="set-system JSON document")
            p.add_argument("--poset", help="poset JSON document (its downsets are used)")
        if needs_game:
            p.add_argument("--game", required=True, help="game JSON document")
        if collection:
            p.add_argument(
                "--collection",
                help=" | ".join(COLLECTION_NAMES) + " | path to a collection document",
            )
        if method:
            p.add_argument(
                "--method",
                default="all",
                choices=("all", *COLLECTION_NAMES),
            )
        p.add_argument("--format", default="report", choices=("report", "raw"))
        p.add_argument("--out", help="write the report here instead of stdout")
        p.set_defaults(func=func)

    add("classify", _cmd_classify, needs_system=True)
    add("closure", _cmd_closure, needs_system=True)
    add("chains", _cmd_chains, needs_system=True)
    add("rays", _cmd_rays, needs_system=True)
    add("normal", _cmd_normal, needs_system=True, method=True)
    add("core", _cmd_core, needs_game=True, collection=True)
    add("weber", _cmd_weber, needs_game=True, collection=True)
    add("verify-inclusion", _cmd_verify_inclusion, needs_game=True, collection=True)
    # reproduce prints its own lines and returns its exit code, so it takes no report options
    sub.add_parser("reproduce").set_defaults(func=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        outcome = args.func(args)
        if isinstance(outcome, dict):  # every verb but reproduce returns its report
            _emit(outcome, args)
            return 0
        return outcome
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
