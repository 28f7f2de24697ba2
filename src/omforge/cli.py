"""Command-line front end.

JSON goes to stdout (or --out); human-readable notes go to stderr.
Exit codes: 0 ok, 1 parse/IO or usage error, 2 undetermined or budget
exhausted, 3 validation failure.  The RNG seed is recorded in every
output for replay.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import acceptance as accept
from .classify import classify, mutation_graph_bfs, summary_table
from .core import (
    InvalidChirotope,
    InvalidCocircuits,
    validate_chirotope,
    validate_cocircuit_axioms,
)
from .extensions import (
    LexExtensionSpec,
    lex_extend,
    mandel_from_euclidean_mutant,
    perturb_extension,
)
from .faces import flip_basis, mutation_adjacency, mutations, topes
from .fileio import load_om, read_ccj_fields, read_chi
from .programs import Program, is_euclidean, is_totally_non_euclidean, program_verdicts
from .signs import SignVector

EXIT_OK = 0
EXIT_IO = 1
EXIT_UNDETERMINED = 2
EXIT_INVALID = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error is a parse error: one `error:` line, exit 1
        raise ValueError(message)


def _emit(args, payload: dict) -> None:
    payload = dict(payload)
    payload["seed"] = args.seed
    text = json.dumps(payload, indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _budget(text: str) -> int:
    """A search budget or depth: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        )
    return value


def _common_options(parser: argparse.ArgumentParser, top: bool) -> None:
    """Global flags, accepted before or after the subcommand."""
    d = (lambda v: v) if top else (lambda v: argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, default=d(accept.DEFAULT_SEED),
                        help="RNG seed recorded in every output")
    parser.add_argument("--out", default=d(None),
                        help="write JSON here instead of stdout")
    parser.add_argument("--max-nodes", type=_budget, default=d(1000),
                        help="node budget for graph searches; a search that "
                        "runs out stops, and the classes it did not expand "
                        "list no neighbours")
    parser.add_argument("--max-candidates", type=_budget, default=d(2000),
                        help="candidate budget for witness searches")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="omforge",
        description="oriented-matroid computations: cocircuits, mutations, "
        "Euclideaness, lexicographic extensions, classification",
    )
    _common_options(parser, top=True)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_parser(name, **kw):
        p = sub.add_parser(name, **kw)
        _common_options(p, top=False)
        return p

    p = add_parser("validate", help="axiom-check a .chi/.pts/.ccj file")
    p.add_argument("file")

    p = add_parser("cocircuits", help="emit the cocircuit set")
    p.add_argument("file")

    p = add_parser("topes", help="enumerate maximal covectors")
    p.add_argument("file")

    p = add_parser("mutations", help="mutation certificates, adjacency, L")
    p.add_argument("file")

    p = add_parser("euclidean", help="Euclideaness of one program")
    p.add_argument("file")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--f", type=int, required=True)

    p = add_parser("euclidean-all", help="verdicts for every program")
    p.add_argument("file")

    p = add_parser("lexext", help="lexicographic extension")
    p.add_argument("file")
    p.add_argument("--spec", required=True, help="e.g. '0:+,3:-,5:+'")

    p = add_parser("flip", help="mutation flip at a basis")
    p.add_argument("file")
    p.add_argument("--basis", required=True, help="e.g. '0,1,2,3'")

    p = add_parser("perturb", help="move an extension off a vertex")
    p.add_argument("file")
    p.add_argument("--cocircuit", required=True, help="sign string of the vertex")
    p.add_argument("--element", type=int, required=True)

    p = add_parser("classify", help="full classification report")
    p.add_argument("file")

    p = add_parser("mutation-graph", help="flip BFS with canonical dedup")
    p.add_argument("seedfile", help="seed oriented matroid file")
    p.add_argument("--depth", type=_budget, default=None)

    p = add_parser("mandel-pipeline", help="witness via the Euclidean-mutant flip")
    p.add_argument("file")
    p.add_argument("--mutation", required=True, help="ordered basis 'f,e2,e3,...'")
    p.add_argument("--g", type=int, required=True)

    p = add_parser("summary", help="aggregate L by class flags")
    p.add_argument("files", nargs="+")

    p = add_parser("acceptance", help="run an acceptance suite")
    p.add_argument("suite", choices=sorted(accept.SUITES))
    p.add_argument("--campaign-nodes", type=_budget, default=3000)

    return parser


def run(argv=None) -> int:
    try:
        return _dispatch(build_parser().parse_args(argv))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (InvalidChirotope, InvalidCocircuits) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def _dispatch(args) -> int:
    cmd = args.subcommand
    if cmd == "validate":
        if args.file.endswith(".chi"):
            report = validate_chirotope(read_chi(args.file))
        elif args.file.endswith(".ccj"):
            n, rank, vectors, _ = read_ccj_fields(args.file)
            report = validate_cocircuit_axioms(vectors, n=n, rank=rank)
        else:
            om = load_om(args.file)
            report = validate_cocircuit_axioms(om.cocircuits, n=om.n, rank=om.rank)
        _emit(args, report.to_json())
        return EXIT_OK if report.ok else EXIT_INVALID

    if cmd == "cocircuits":
        om = load_om(args.file)
        _emit(args, {
            "n": om.n,
            "rank": om.rank,
            "cocircuits": sorted(x.to_string() for x in om.cocircuits),
        })
        return EXIT_OK

    if cmd == "topes":
        om = load_om(args.file)
        ts = sorted(t.to_string() for t in topes(om))
        _emit(args, {"count": len(ts), "topes": ts})
        return EXIT_OK

    if cmd == "mutations":
        om = load_om(args.file)
        adjacency = mutation_adjacency(om)
        _emit(args, {
            "mutations": [c.to_json() for c in mutations(om)],
            "adjacency": {str(e): c for e, c in adjacency.items()},
            "L": min(adjacency.values(), default=None),
        })
        return EXIT_OK

    if cmd == "euclidean":
        om = load_om(args.file)
        verdict = is_euclidean(Program(om, args.g, args.f))
        payload = {"g": args.g, "f": args.f, "euclidean": verdict.euclidean}
        if verdict.witness is not None:
            payload["witness"] = verdict.witness.to_json()
        _emit(args, payload)
        return EXIT_OK

    if cmd == "euclidean-all":
        om = load_om(args.file)
        verdicts = program_verdicts(om)
        _emit(args, {
            "verdicts": [
                {"g": g, "f": f, "euclidean": v}
                for (g, f), v in sorted(verdicts.items())
            ],
            "euclidean_all_programs": all(verdicts.values()),
            "totally_non_euclidean": is_totally_non_euclidean(om),
        })
        return EXIT_OK

    if cmd == "lexext":
        om = load_om(args.file)
        ext = lex_extend(om, LexExtensionSpec.parse(args.spec))
        _emit(args, {
            "n": ext.n,
            "rank": ext.rank,
            "new_element": ext.n - 1,
            "cocircuits": sorted(x.to_string() for x in ext.cocircuits),
            "chirotope": ext.chirotope.to_string(),
        })
        return EXIT_OK

    if cmd == "flip":
        om = load_om(args.file)
        basis = tuple(int(x) for x in args.basis.split(","))
        flipped = flip_basis(om, basis)
        _emit(args, {
            "basis": list(basis),
            "chirotope": flipped.chirotope.to_string(),
            "cocircuits": sorted(x.to_string() for x in flipped.cocircuits),
        })
        return EXIT_OK

    if cmd == "perturb":
        om = load_om(args.file)
        x = SignVector.from_string(args.cocircuit)
        out = perturb_extension(om, x, args.element)
        _emit(args, {
            "n": out.n,
            "rank": out.rank,
            "cocircuits": sorted(v.to_string() for v in out.cocircuits),
        })
        return EXIT_OK

    if cmd == "classify":
        om = load_om(args.file)
        report = classify(om, mandel_budget=args.max_candidates)
        _emit(args, report.to_json())
        if report.consistency_violations:
            return EXIT_INVALID
        if report.mandel_undetermined and not report.totally_non_euclidean:
            return EXIT_UNDETERMINED
        return EXIT_OK

    if cmd == "mutation-graph":
        om = load_om(args.seedfile)
        graph = mutation_graph_bfs(om, max_nodes=args.max_nodes,
                                   max_depth=args.depth)
        _emit(args, graph.to_json())
        return EXIT_UNDETERMINED if graph.exhausted_budget else EXIT_OK

    if cmd == "mandel-pipeline":
        om = load_om(args.file)
        order = tuple(int(x) for x in args.mutation.split(","))
        result = mandel_from_euclidean_mutant(om, order, args.g)
        _emit(args, result.to_json())
        return EXIT_OK if result.ok else EXIT_INVALID

    if cmd == "summary":
        oms = [load_om(f) for f in args.files]
        _emit(args, {"rows": summary_table(oms)})
        return EXIT_OK

    if cmd == "acceptance":
        results = accept.run_suite(args.suite, seed=args.seed,
                                   campaign_nodes=args.campaign_nodes)
        for res in results:
            print(res.line(), file=sys.stderr)
        _emit(args, {
            "suite": args.suite,
            "results": [r.to_json() for r in results],
            "ok": all(r.ok for r in results),
        })
        if all(r.ok for r in results):
            return EXIT_OK
        if all(r.ok or r.undetermined for r in results):
            return EXIT_UNDETERMINED
        return EXIT_INVALID

    raise ValueError(f"unhandled subcommand {cmd}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
