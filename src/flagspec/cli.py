"""Command line front-end.

Every library operation is a subcommand printing JSON on stdout (indented
by --pretty; --format graph6 prints a graph6 line, report --pretty a text
table).  Decisions double as exit codes so shell scripts need no JSON parsing:

    0  success / positive decision
    1  negative decision (not isomorphic, not cospectral, claim refuted)
    2  validation error (bad design, malformed input object)
    3  usage or file error, a closed stdout included

Designs are referenced either by a JSON file path or as catalog:<id>;
graphs by a file containing either the JSON form or a graph6 line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .catalog import CATALOG_IDS, REFERENCE_GRAPH_NAMES, get_entry
from .designs import (
    Design,
    DesignParams,
    design_from_json,
    design_to_json,
    incidence_graph,
    validate_design,
)
from .errors import FlagspecError
from .flag_graphs import flag_graph_to_json, gamma1, gamma2
from .graphs import (
    Graph,
    connected_components,
    graph_from_graph6,
    graph_from_json,
    graph_to_graph6,
    graph_to_json,
)
from .isomorphism import design_isomorphic, is_isomorphic
from .regularity import (
    check_against_prediction,
    classify,
    predicted_gamma1_profile,
    predicted_gamma2_profile,
    prediction_to_json,
    profile_to_json,
)
from .reporting import render_report, report_to_json, run_reproduction
from .spectra import (
    char_poly,
    claim_from_json,
    claim_to_json,
    claim_to_text,
    cospectral,
    formula_spectrum_gamma1,
    formula_spectrum_incidence,
    numeric_spectrum,
    verify_spectrum,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the exit-code contract reserves 2 for
    # validation, so usage problems are rethrown and mapped to 3
    def error(self, message):
        raise _UsageError(message)


def _params_json(p) -> dict:
    return {
        "v": p.v,
        "b": p.b,
        "r": p.r,
        "k": p.k,
        "lambda": p.lam,
        "symmetric": p.is_symmetric,
    }


def _read(path: str) -> str:
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _load_design(ref: str) -> Design:
    if ref.startswith("catalog:"):
        return get_entry(ref[len("catalog:") :]).design
    obj = json.loads(_read(ref))
    if isinstance(obj, dict) and "design" in obj and "blocks" not in obj:
        obj = obj["design"]
    return design_from_json(obj)


def _load_graph(ref: str) -> Graph:
    text = _read(ref).strip()
    if not text:
        raise ValueError(f"{ref}: empty graph file")
    # a graph6 line holds only bytes 63-126 after its optional >>graph6<<
    # prefix, so never the '"' that every JSON graph object has; its first
    # byte, '{' at n = 60, says nothing
    if '"' in text:
        return graph_from_json(text)
    return graph_from_graph6(text.splitlines()[0])


def _load_claim(path: str):
    obj = json.loads(_read(path))
    if isinstance(obj, dict) and "claim" in obj and "entries" not in obj:
        obj = obj["claim"]
    return claim_from_json(obj)


def _graph_payload(g: Graph, fmt: str):
    if fmt == "graph6":
        return graph_to_graph6(g)
    return graph_to_json(g)


def _cmd_validate(args):
    d = _load_design(args.design)
    return 0, _params_json(validate_design(d))


def _cmd_catalog(args):
    if args.action == "show":
        if args.id is None:
            raise _UsageError("catalog show needs an id")
        entry = get_entry(args.id)
        return 0, {
            "id": entry.id,
            "params": _params_json(entry.params),
            "provenance": entry.provenance,
            "design": design_to_json(entry.design),
        }
    if args.id is not None:
        raise _UsageError("catalog list takes no id")
    rows = []
    for cid in CATALOG_IDS:
        entry = get_entry(cid)
        rows.append({"id": cid, **_params_json(entry.params)})
    return 0, {"designs": rows, "reference_graphs": list(REFERENCE_GRAPH_NAMES)}


def _cmd_gamma(args, builder):
    fg = builder(_load_design(args.design))
    if args.format == "graph6":
        return 0, graph_to_graph6(fg.graph)
    return 0, flag_graph_to_json(fg)


def _cmd_incidence(args):
    return 0, _graph_payload(incidence_graph(_load_design(args.design)), args.format)


def _cmd_classify(args):
    if args.via is None:
        profile = classify(_load_graph(args.input))
        return 0, profile_to_json(profile)
    d = _load_design(args.input)
    if args.via == "gamma1":
        fg = gamma1(d)
        predicted = predicted_gamma1_profile(fg.params)
    else:
        fg = gamma2(d)
        predicted = predicted_gamma2_profile(fg.params)
    profile = classify(fg.graph)
    comparison = check_against_prediction(profile, predicted)
    return 0, {
        "profile": profile_to_json(profile),
        "prediction": prediction_to_json(comparison),
        "matches_prediction": comparison.passed,
    }


def _cmd_charpoly(args):
    g = _load_graph(args.graph)
    p = char_poly(g)
    return 0, {
        "n": g.n,
        "coefficients": list(p.coeffs),
        "rendered": str(p),
    }


def _cmd_spectrum(args):
    if args.claim is None and not args.numeric:
        raise _UsageError("spectrum needs --claim and/or --numeric")
    g = _load_graph(args.graph)
    out: dict = {"n": g.n}
    code = 0
    if args.claim is not None:
        claim = _load_claim(args.claim)
        verified = verify_spectrum(g, claim)
        out["claim"] = claim_to_text(claim)
        out["verified"] = verified
        code = 0 if verified else 1
    if args.numeric:
        clusters = numeric_spectrum(g, args.tolerance)
        out["numeric"] = [[value, mult] for value, mult in clusters]
        out["tolerance"] = args.tolerance
    return code, out


def _cmd_formula(args):
    raw = args.params.split(",")
    if len(raw) != 5:
        raise _UsageError("--params needs v,b,r,k,lambda")
    try:
        v, b, r, k, lam = (int(x) for x in raw)
    except ValueError:
        raise _UsageError("--params entries must be integers") from None
    p = DesignParams(v, b, r, k, lam)
    claim = (
        formula_spectrum_incidence(p)
        if args.variant == "incidence"
        else formula_spectrum_gamma1(p)
    )
    return 0, {
        "variant": args.variant,
        "params": _params_json(p),
        "claim": claim_to_json(claim),
        "text": claim_to_text(claim),
    }


def _cmd_iso(args):
    if args.designs:
        verdict = design_isomorphic(_load_design(args.a), _load_design(args.b))
    else:
        verdict = is_isomorphic(_load_graph(args.a), _load_graph(args.b))
    return (0 if verdict else 1), {"isomorphic": verdict}


def _cmd_cospectral(args):
    verdict = cospectral(_load_graph(args.a), _load_graph(args.b))
    return (0 if verdict else 1), {"cospectral": verdict}


def _cmd_components(args):
    g = _load_graph(args.graph)
    parts = connected_components(g)
    subs = [g.subgraph(part) for part in parts]
    return 0, {
        "count": len(parts),
        "sizes": [s.n for s in subs],
        "graph6": [graph_to_graph6(s) for s in subs],
    }


def _cmd_report(args):
    report = run_reproduction(relabel_rounds=args.relabel_rounds, seed=args.seed)
    code = 0 if report.passed else 1
    if args.pretty:
        return code, render_report(report)
    return code, report_to_json(report)


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="indent JSON output (report: a text table)")

    parser = _Parser(prog="flagspec", description="Command line front-end.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="check a design and print its parameters")
    p.add_argument("design", help="design JSON file or catalog:<id>")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("catalog", parents=[common], help="list bundled designs or show one")
    p.add_argument("action", nargs="?", choices=("list", "show"), default="list")
    p.add_argument("id", nargs="?")
    p.set_defaults(handler=_cmd_catalog)

    for name, builder in (("gamma1", gamma1), ("gamma2", gamma2)):
        p = sub.add_parser(name, parents=[common], help=f"build the {name} flag graph of a design")
        p.add_argument("design")
        p.add_argument("--format", choices=("json", "graph6"), default="json")
        p.set_defaults(handler=lambda a, b=builder: _cmd_gamma(a, b))

    p = sub.add_parser("incidence", parents=[common], help="build the incidence graph of a design")
    p.add_argument("design")
    p.add_argument("--format", choices=("json", "graph6"), default="json")
    p.set_defaults(handler=_cmd_incidence)

    p = sub.add_parser("classify", parents=[common], help="regularity profile of a graph or flag graph")
    p.add_argument("input", help="graph file, or design when --via is given")
    p.add_argument("--via", choices=("gamma1", "gamma2"),
                   help="treat input as a design and classify its flag graph")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("charpoly", parents=[common], help="exact characteristic polynomial")
    p.add_argument("graph")
    p.set_defaults(handler=_cmd_charpoly)

    p = sub.add_parser("spectrum", parents=[common], help="verify a claimed spectrum or cluster numerically")
    p.add_argument("graph")
    p.add_argument("--claim", help="spectrum claim JSON file")
    p.add_argument("--numeric", action="store_true")
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("formula", parents=[common], help="closed-form spectrum from parameters")
    p.add_argument("variant", choices=("incidence", "gamma1"))
    p.add_argument("--params", required=True, metavar="v,b,r,k,lambda")
    p.set_defaults(handler=_cmd_formula)

    p = sub.add_parser("iso", parents=[common], help="decide isomorphism (exit 0 yes, 1 no)")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--designs", action="store_true", help="compare as designs, not graphs")
    p.set_defaults(handler=_cmd_iso)

    p = sub.add_parser("cospectral", parents=[common], help="decide cospectrality (exit 0 yes, 1 no)")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(handler=_cmd_cospectral)

    p = sub.add_parser("components", parents=[common], help="connected components as graph6")
    p.add_argument("graph")
    p.set_defaults(handler=_cmd_components)

    p = sub.add_parser("report", parents=[common], help="run the full reproduction battery")
    p.add_argument("table", choices=("paper-table5",))
    p.add_argument("--relabel-rounds", type=int, default=100,
                   help="relabelings per graph in the invariance sweep")
    p.add_argument("--seed", type=int, default=1729)
    p.set_defaults(handler=_cmd_report)

    return parser


def _emit(payload, pretty: bool):
    if isinstance(payload, str):
        print(payload)
    else:
        print(json.dumps(payload, indent=2 if pretty else None))


def _error(kind: str, message: str) -> dict:
    return {"error": {"type": kind, "message": message}}


def _decide(argv) -> tuple[int, object, bool]:
    """Exit code, payload and --pretty of one invocation; a failure becomes
    an error object."""
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        return 3, _error("usage", str(exc)), False
    pretty = getattr(args, "pretty", False)
    try:
        code, payload = args.handler(args)
    except _UsageError as exc:
        return 3, _error("usage", str(exc)), pretty
    except OSError as exc:
        return 3, _error("file", str(exc)), pretty
    except FlagspecError as exc:
        return 2, _error(type(exc).__name__, str(exc)), pretty
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        return 2, _error("format", str(exc)), pretty
    return code, payload, pretty


def main(argv=None) -> int:
    code, payload, pretty = _decide(argv)
    try:
        _emit(payload, pretty)
        sys.stdout.flush()  # a buffered stdout meets a closed reader here
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so the interpreter's
        # final flush of the unwritten rest cannot fail, and exit as a file error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3
    return code


if __name__ == "__main__":
    raise SystemExit(main())
