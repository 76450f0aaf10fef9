"""Command-line front end.

One verb per concept: classify, closure, chains, rays, normal, core, weber,
verify-inclusion, reproduce.  All reports are deterministic JSON on stdout
(identical inputs give byte-identical output); rationals travel as ``p/q``
strings.  Exit codes: 0 success, 1 invalid input or usage, 2 internal
inconsistency between two computation routes that must agree.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources

from .core_weber import (
    Game,
    build_restricted_core,
    restricted_chains,
    restricted_weber,
    verify_inclusion,
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
from .polyhedra import dd_generators, is_bounded
from .rays import (
    rays_distributive,
    rays_general,
    rays_regular,
    report_to_document,
    wuc_ray_equality_condition,
)
from .setsystem import classify, closure, load_set_system, maximal_chains
from .vectors import format_rational, pair_form

METHOD_NAMES = ("irredundant", "weber", "gx")


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
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path}: invalid JSON: {exc}") from None


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


def _rays_document(system) -> dict:
    """Oracle ray report plus every applicable structure-aware route.

    The routes must agree with the oracle; a mismatch aborts with the
    internal-inconsistency exit code because it means a theorem failed.
    """
    report = rays_general(system)
    doc = report_to_document(report)
    doc["n"] = system.n
    structure = classify(system)
    methods: dict = {"oracle": doc["extremal_rays"]}
    oracle_set = set(report.extremal_rays)
    if structure.is_regular:
        pairs = rays_regular(system)
        vectors = {r.vector(system.n) for r in pairs}
        oracle_pairs = {v for v in oracle_set if pair_form(v) is not None}
        if report.lineality or vectors != oracle_pairs:
            raise InternalInconsistency(
                "chain-rank enumeration must yield exactly the transfer-form "
                "extremal rays of the oracle, but it did not"
            )
        methods["regular"] = {
            "rays": [str(r) for r in pairs],
            "complete": vectors == oracle_set,
        }
    if structure.is_union_intersection_closed and structure.height == system.n:
        pairs = rays_distributive(extract_poset(system))
        vectors = {r.vector(system.n) for r in pairs}
        if report.lineality or vectors != oracle_set:
            raise InternalInconsistency(
                "covering-pair ray enumeration disagrees with the oracle"
            )
        methods["distributive"] = [str(r) for r in pairs]
    if structure.is_weakly_union_closed:
        doc["wuc_sufficient_condition"] = wuc_ray_equality_condition(system)
        if doc["wuc_sufficient_condition"] and not report.equals_closure_cone:
            raise InternalInconsistency(
                "the sufficient condition held but the closure cone differs"
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
        # the lift returns only after the oracle found its collection bounding
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
        "gx": grabisch_xie_collection(poset),
    }
    return closed, poset, named


def _collections_document(system, method: str = "all") -> dict:
    """The three collections on the closure, lifted into the system when needed."""
    closed, poset, named = _named_collections(system)
    pair_rays = rays_distributive(poset)
    out: dict = {
        "n": system.n,
        "height": poset.height(),
        "already_closed": len(closed) == len(system),
        "collections": {},
    }
    wanted = METHOD_NAMES if method == "all" else (method,)
    for name in wanted:
        collection = named[name]
        lifted = lift_collection_detailed(system, collection, pair_rays)
        entry = {
            "sets": [list(c.members) for c in collection],
            "kind": collection.kind,
            "feasible": all(c.mask in system for c in collection),
            # on a closed system the lift's first oracle run was on this very cone
            "validated_on_closure": not lifted.extra_sets
            if out["already_closed"]
            else validate_normal(closed, collection),
            "lift": _lift_document(lifted),
        }
        out["collections"]["grabisch_xie" if name == "gx" else name] = entry
    return out


def _resolve_collection(system, spec: str) -> NormalCollection:
    """Named collections are built on the closure and lifted; paths are loaded
    as ``{"kind":..., "sets":...}`` documents and validated, never trusted."""
    if spec in METHOD_NAMES:
        _, poset, named = _named_collections(system)
        return lift_collection_detailed(system, named[spec], rays_distributive(poset)).collection
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
    doc["rays"] = _rays_document(system)
    try:
        doc["collections"] = _collections_document(system)
    except ValidationError as exc:
        doc["collections"] = {"error": str(exc)}
    # the core is bounded exactly when its recession cone has no ray and no line
    cone = doc["rays"]
    doc["boundedness"] = {"core": not cone["extremal_rays"] and not cone["lineality"]}
    if isinstance(doc["collections"], dict) and "collections" in doc["collections"]:
        restricted = {}
        for name, entry in doc["collections"]["collections"].items():
            restricted[name] = entry["lift"]["validated"]
        doc["boundedness"]["restricted_core"] = restricted
    if game is not None:
        collection = _resolve_collection(system, "weber")
        verdict = verify_inclusion(game, collection)
        weber = restricted_weber(game, collection)
        doc["inclusion"] = {
            "collection": [list(c.members) for c in collection],
            "weber_vertices": _render_vectors(weber.vertices),
            "holds": verdict.holds,
            "witness": [format_rational(c) for c in verdict.witness]
            if verdict.witness is not None
            else None,
        }
    return doc


def _emit(payload: dict, args) -> None:
    if getattr(args, "format", "report") == "raw":
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    else:
        text = json.dumps(payload, sort_keys=True, indent=2)
    out_path = getattr(args, "out", None)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _cmd_classify(args) -> int:
    _emit(_structure_document(_system_from_args(args)), args)
    return 0


def _cmd_closure(args) -> int:
    _emit(closure(_system_from_args(args)).to_document(), args)
    return 0


def _cmd_chains(args) -> int:
    system = _system_from_args(args)
    chains = maximal_chains(system)
    payload = {
        "n": system.n,
        "count": len(chains),
        "chains": [[list(c.members) for c in chain] for chain in chains],
    }
    if classify(system).is_regular:
        payload["orders"] = [list(chain.order()) for chain in chains]
    _emit(payload, args)
    return 0


def _cmd_rays(args) -> int:
    _emit(_rays_document(_system_from_args(args)), args)
    return 0


def _cmd_normal(args) -> int:
    system = _system_from_args(args)
    method = {"grabisch_xie": "gx"}.get(args.method, args.method)
    _emit(_collections_document(system, method), args)
    return 0


def _cmd_core(args) -> int:
    game = Game.from_document(_read_json(args.game))
    collection = (
        _resolve_collection(game.system, args.collection)
        if args.collection
        else NormalCollection((), kind="custom")
    )
    poly = build_restricted_core(game, collection)
    gens = dd_generators(poly)
    payload = {
        "collection": [list(c.members) for c in collection],
        "h_representation": _h_document(poly),
        "v_representation": gens.to_document(),
        "bounded": is_bounded(poly),
    }
    _emit(payload, args)
    return 0


def _cmd_weber(args) -> int:
    game = Game.from_document(_read_json(args.game))
    collection = (
        _resolve_collection(game.system, args.collection)
        if args.collection
        else NormalCollection((), kind="custom")
    )
    gens = restricted_weber(game, collection)
    payload = {
        "collection": [list(c.members) for c in collection],
        "restricted_chain_count": len(restricted_chains(game.system, collection)),
        "vertices": _render_vectors(gens.vertices),
    }
    _emit(payload, args)
    return 0


def _cmd_verify_inclusion(args) -> int:
    game = Game.from_document(_read_json(args.game))
    collection = _resolve_collection(game.system, args.collection or "weber")
    verdict = verify_inclusion(game, collection)
    payload = {
        "collection": [list(c.members) for c in collection],
        "holds": verdict.holds,
        "witness": [format_rational(c) for c in verdict.witness]
        if verdict.witness is not None
        else None,
    }
    _emit(payload, args)
    return 0


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
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
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
                help="irredundant | weber | gx | path to a collection document",
            )
        if method:
            p.add_argument(
                "--method",
                default="all",
                choices=("all", "irredundant", "weber", "gx", "grabisch_xie"),
            )
        p.add_argument("--format", default="report", choices=("report", "raw"))
        p.add_argument("--out", help="write the report here instead of stdout")
        p.set_defaults(func=func)
        return p

    add("classify", _cmd_classify, needs_system=True)
    add("closure", _cmd_closure, needs_system=True)
    add("chains", _cmd_chains, needs_system=True)
    add("rays", _cmd_rays, needs_system=True)
    add("normal", _cmd_normal, needs_system=True, method=True)
    add("core", _cmd_core, needs_game=True, collection=True)
    add("weber", _cmd_weber, needs_game=True, collection=True)
    add("verify-inclusion", _cmd_verify_inclusion, needs_game=True, collection=True)
    add("reproduce", _cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
