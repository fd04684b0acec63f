"""Command-line front end.

Subcommands cover the library surface: parsing and rendering, transition
systems, metrics, the equivalence checkers and the full spectrum, parallel
elimination with optional proof scripts, axiom system instantiation and
soundness sweeps, proof checking, finite counter-models (checking fixtures
and searching for new ones), and the negative-evidence reports.

Exit codes: 0 success / property holds, 1 property refuted or check failed,
2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .axioms import (
    Equation,
    SYSTEM_NAMES,
    build_system,
    canonical_system_name,
    check_sound,
    saturate,
)
from .eliminate import eliminate
from .equivalences import FLAT_RELATIONS, Refuted, equivalent, spectrum_vector
from .models import FiniteModel, fixture_model, independence_report, search_model
from .proofs import check_proof, script_from_json, script_to_json
from .semantics import TransitionMode, build_lts, lts_dot, lts_json
from .terms import (
    ParseError,
    depth,
    make_alphabet,
    norm,
    parse,
    render,
    size,
)
from .witness import WitnessCheckError, negative_evidence_report

__all__ = ["main"]


def _alphabet(args):
    names = tuple(n for n in args.alphabet.split(",") if n)
    return make_alphabet(names, sync=args.sync)


def _mode(args) -> TransitionMode:
    return TransitionMode.CCS_SYNC if args.sync else TransitionMode.INTERLEAVING


def _emit(args, doc: dict, human: str) -> None:
    if getattr(args, "emit", "text") == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(human)


def _resolve_goal(spec_text: str, alphabet, sync: bool) -> Equation:
    """A goal equation: "lhs = rhs" literal, a known shorthand (EL2, RSP2),
    or a full axiom instance id from one of the reference systems."""
    if "=" in spec_text:
        l, r = spec_text.split("=", 1)
        return Equation("goal", parse(l, alphabet), parse(r, alphabet))
    base = alphabet.transition_labels() if sync else alphabet.actions
    if spec_text == "EL2":
        allset = "{" + ",".join(sorted(base)) + "}"
        spec_text = f"EL2[{allset};{allset}]"
    elif spec_text == "RSP2":
        a0 = sorted(base)[0]
        spec_text = f"RSP2[{{{a0}}};{a0}]"
    prefix = "E^c_" if sync else "E_"
    for name in ("RS", "RT", "CS", "CT"):
        system = build_system(prefix + name, alphabet)
        eq = system.by_id.get(spec_text)
        if eq is not None:
            return eq
    raise ValueError(f"no goal named {spec_text!r}; pass an id or 'lhs = rhs'")


def _load_model(args) -> FiniteModel:
    if args.fixture:
        return fixture_model(args.fixture)
    if args.file:
        with open(args.file) as fh:
            return FiniteModel.from_json(json.load(fh))
    raise ValueError("model check needs --fixture or --file")


# ---------------------------------------------------------------------------
# Subcommand bodies


def _cmd_parse(args) -> int:
    alpha = _alphabet(args)
    t = parse(args.term, alpha)
    _emit(args, {"term": render(t), "size": size(t)}, render(t))
    return 0


def _cmd_lts(args) -> int:
    alpha = _alphabet(args)
    t = parse(args.term, alpha)
    lts = build_lts(t, _mode(args), alpha)
    if args.emit == "json":
        print(lts_json(lts))
    elif args.emit == "dot":
        print(lts_dot(lts))
    else:
        index = {s: i for i, s in enumerate(lts.states)}
        print(f"states: {len(lts.states)}  transitions: {len(lts.transitions)}")
        for s, a, u in lts.transitions:
            print(f"  {index[s]}: {render(s)}  --{a}-->  {index[u]}: {render(u)}")
    return 0


def _cmd_metrics(args) -> int:
    alpha = _alphabet(args)
    t = parse(args.term, alpha)
    doc = {"term": render(t), "size": size(t), "depth": depth(t), "norm": norm(t)}
    _emit(args, doc, f"size={doc['size']} depth={doc['depth']} norm={doc['norm']}")
    return 0


def _cmd_equiv(args) -> int:
    alpha = _alphabet(args)
    p, q = parse(args.p, alpha), parse(args.q, alpha)
    rel = args.rel
    verdict = equivalent(p, q, rel, alphabet=alpha, mode=_mode(args))
    _emit(
        args,
        {"relation": rel, "p": render(p), "q": render(q), "equivalent": verdict},
        f"{rel}: {'equivalent' if verdict else 'not equivalent'}",
    )
    return 0 if verdict else 1


def _cmd_spectrum(args) -> int:
    alpha = _alphabet(args)
    p, q = parse(args.p, alpha), parse(args.q, alpha)
    vec = spectrum_vector(p, q, alpha, _mode(args), nested_max=args.nested_max)
    human = "\n".join(f"{k:6s} {'yes' if v else 'no'}" for k, v in sorted(vec.items()))
    _emit(args, {"p": render(p), "q": render(q), "spectrum": vec}, human)
    return 0


def _cmd_eliminate(args) -> int:
    alpha = _alphabet(args)
    t = parse(args.term, alpha)
    system = build_system(args.system, alpha)
    q, script = eliminate(t, system, emit_proof=bool(args.proof_out))
    doc = {"input": render(t), "system": system.name, "result": render(q)}
    if script is not None:
        sj = script_to_json(script, system.name)
        doc["proof"] = sj
        doc["proof_steps"] = len(script.steps)
        with open(args.proof_out, "w") as fh:
            json.dump(sj, fh, indent=2)
    _emit(args, doc, render(q))
    return 0


def _cmd_axioms(args) -> int:
    alpha = _alphabet(args)
    if not args.system:
        names = ", ".join(SYSTEM_NAMES)
        _emit(args, {"systems": list(SYSTEM_NAMES)}, names)
        return 0
    system = build_system(args.system, alpha)
    if args.saturate:
        system = saturate(system)
    doc = {
        "system": system.name,
        "relation": system.target_relation,
        "count": len(system.equations),
        "equations": [
            {"id": e.id, "lhs": render(e.lhs), "rhs": render(e.rhs)}
            for e in system.equations
        ],
    }
    human = "\n".join(f"{e.id}: {render(e.lhs)} = {render(e.rhs)}" for e in system.equations)
    _emit(args, doc, human)
    return 0


def _cmd_soundness(args) -> int:
    alpha = _alphabet(args)
    system = build_system(args.system, alpha)
    rel = args.rel or system.target_relation
    mode = system.mode
    rows = []
    bad = 0
    for eq in system.equations:
        res = check_sound(eq, rel, alpha, mode)
        refuted = isinstance(res, Refuted)
        bad += refuted
        row = {"id": eq.id, "refuted": refuted, "checked": res.checked}
        if refuted:
            row["substitution"] = {k: render(v) for k, v in res.substitution.items()}
        rows.append(row)
    human = "\n".join(
        f"{r['id']}: {'REFUTED ' + str(r.get('substitution')) if r['refuted'] else 'sound over scheme'}"
        for r in rows
    )
    _emit(args, {"system": system.name, "relation": rel, "results": rows}, human)
    return 1 if bad else 0


def _cmd_prove_check(args) -> int:
    alpha = _alphabet(args)
    with open(args.script) as fh:
        data = json.load(fh)
    script = script_from_json(data, alpha)
    name = args.system or data.get("system")
    if not isinstance(name, str) or not name:
        raise ValueError("no axiom system: pass --system or embed its name in the script")
    system = build_system(name, alpha)
    res = check_proof(script, system)
    ok = bool(res)
    doc = {"system": system.name, "accepted": ok, "steps": len(script.steps)}
    if not ok:
        doc["step"] = res.step
        doc["reason"] = res.reason
        human = f"rejected at step {res.step}: {res.reason}"
    else:
        human = f"accepted ({len(script.steps)} steps)"
    _emit(args, doc, human)
    return 0 if ok else 1


def _cmd_model(args) -> int:
    alpha = _alphabet(args)
    system = build_system(args.axioms, alpha)
    goal = _resolve_goal(args.goal, alpha, args.sync)
    if args.model_cmd == "check":
        m = _load_model(args)
        rep = independence_report(m, system, goal)
        ok = rep["independent"]
        if ok:
            cv = rep["goal"]["counter_valuation"]
            human = (
                f"model of {system.name} (carrier {m.carrier}); goal {goal.id} fails at "
                f"{cv}: lhs={rep['goal']['lhs_value']} rhs={rep['goal']['rhs_value']}"
            )
        else:
            broken = [f["id"] for f in rep["axiom_failures"]]
            human = (
                f"axioms failing: {broken}" if broken else f"goal {goal.id} holds in the model"
            )
        _emit(args, rep, human)
        return 0 if ok else 1
    res = search_model(
        alpha,
        args.carrier,
        system,
        goal,
        budget=args.budget,
        min_carrier=args.min_carrier,
    )
    doc = {"status": res.status, "nodes": res.nodes, "carrier": res.carrier}
    if res.model is not None:
        doc["model"] = res.model.to_json()
        human = f"found at carrier {res.carrier} after {res.nodes} nodes"
    else:
        human = f"{res.status} after {res.nodes} nodes"
    _emit(args, doc, human)
    return 0 if res.status == "found" else 1


def _cmd_witness(args) -> int:
    try:
        rep = negative_evidence_report(args.kind, args.max_n)
    except WitnessCheckError as e:
        _emit(args, {"error": str(e)}, f"FAILED: {e}")
        return 1
    lines = [
        f"N={f['n']}: " + ", ".join(f"{k}" for k, v in f["checks"].items() if v)
        for f in rep["families"]
    ]
    _emit(args, rep, "\n".join(lines) + "\nall checks pass")
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_common(ap, suppress: bool) -> None:
    # The same options hang off the main parser and every subcommand so they
    # can be given on either side of the subcommand word. The subcommand copy
    # must not clobber values the main parser already set, hence SUPPRESS.
    d = argparse.SUPPRESS if suppress else None
    ap.add_argument(
        "--alphabet",
        **({"default": d} if suppress else {"default": "a,b"}),
        help="comma-separated action names",
    )
    ap.add_argument(
        "--sync",
        action="store_true",
        **({"default": d} if suppress else {}),
        help="CCS-style alphabet with complements and tau",
    )
    ap.add_argument(
        "--emit",
        choices=("text", "json", "dot"),
        **({"default": d} if suppress else {"default": "text"}),
    )


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bccsp",
        description="workbench for finite process terms with choice and parallel composition",
    )
    _add_common(ap, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common, suppress=True)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("parse", parents=[common], help="parse a term and print its canonical rendering")
    p.add_argument("term")
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("lts", parents=[common], help="build the reachable transition system")
    p.add_argument("term")
    p.set_defaults(fn=_cmd_lts)

    p = sub.add_parser("metrics", parents=[common], help="size, depth and norm of a term")
    p.add_argument("term")
    p.set_defaults(fn=_cmd_metrics)

    p = sub.add_parser("equiv", parents=[common], help="decide one equivalence on a pair of closed terms")
    p.add_argument("rel", help=f"one of {', '.join(FLAT_RELATIONS)}, or NT<k>/NS<k>")
    p.add_argument("p")
    p.add_argument("q")
    p.set_defaults(fn=_cmd_equiv)

    p = sub.add_parser("spectrum", parents=[common], help="evaluate every relation on a pair")
    p.add_argument("p")
    p.add_argument("q")
    p.add_argument("--nested-max", type=int, default=2)
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("eliminate", parents=[common], help="rewrite a closed term to a parallel-free form")
    p.add_argument("term")
    p.add_argument("--system", required=True, help=f"axiom system ({', '.join(SYSTEM_NAMES)})")
    p.add_argument("--proof-out", help="write the proof script to this JSON file")
    p.set_defaults(fn=_cmd_eliminate)

    p = sub.add_parser("axioms", parents=[common], help="list systems or print one system's instances")
    p.add_argument("--system")
    p.add_argument("--saturate", action="store_true", help="close under 0-substitutions")
    p.set_defaults(fn=_cmd_axioms)

    p = sub.add_parser("soundness", parents=[common], help="refutation sweep over a system's equations")
    p.add_argument("--system", required=True)
    p.add_argument("--rel", help="override the system's target relation")
    p.set_defaults(fn=_cmd_soundness)

    p = sub.add_parser("prove-check", parents=[common], help="replay a proof script JSON file")
    p.add_argument("script")
    p.add_argument("--system", help="axiom system; defaults to the one named in the file")
    p.set_defaults(fn=_cmd_prove_check)

    p = sub.add_parser("model", help="finite counter-model checking and search")
    msub = p.add_subparsers(dest="model_cmd", required=True)
    pc = msub.add_parser("check", parents=[common], help="verify independence: axioms hold, goal refuted")
    pc.add_argument("--fixture", help="shipped model name (table6, table7)")
    pc.add_argument("--file", help="model JSON file")
    pc.add_argument("--axioms", required=True, help="axiom system name")
    pc.add_argument("--goal", required=True, help="EL2, RSP2, an instance id, or 'lhs = rhs'")
    pc.set_defaults(fn=_cmd_model)
    ps = msub.add_parser("search", parents=[common], help="look for a separating model")
    ps.add_argument("--axioms", required=True)
    ps.add_argument("--goal", required=True)
    ps.add_argument("--carrier", type=int, default=5, help="largest carrier size to try")
    ps.add_argument("--min-carrier", type=int, default=1, help="smallest carrier size to try")
    ps.add_argument("--budget", type=int, default=5_000_000, help="cell-assignment cap")
    ps.set_defaults(fn=_cmd_model)

    p = sub.add_parser("witness", parents=[common], help="negative-evidence family report")
    p.add_argument("--kind", default="interleaving", choices=("interleaving", "sync"))
    p.add_argument("--max-n", type=int, default=6)
    p.set_defaults(fn=_cmd_witness)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        return args.fn(args)
    except (ParseError, ValueError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
