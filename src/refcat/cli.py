"""Batch command line: load systems, query them, run verification suites.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or load error.
Output is canonical: identical workspace and command give identical bytes.

A command imports the layers it reaches inside the functions that use
them, so a query never compiles the presheaf, representation or duality
layers it does not run, and the parser is built for the one subcommand
given.  The suite bodies are in `suites`, and the text and JSON forms in
`render`; each is compiled by the first command that reads it.
"""

from __future__ import annotations

import argparse
import os as _os
import sys as _sys

from . import render, suites, textio
from .fincat import SIZE_GUARD, SizeGuardExceeded, StructuralError
from .textio import LoadError

class UsageError(Exception):
    pass


def _resolve_obj(cat, name: str, what: str) -> int:
    try:
        return list(cat.objects).index(name)
    except ValueError:
        raise UsageError(f"unknown {what} {name!r} in {cat.name}") from None


def _resolve_mor(cat, name: str, what: str) -> int:
    try:
        return list(cat.mor_names).index(name)
    except ValueError:
        raise UsageError(f"unknown {what} {name!r} in {cat.name}") from None


def _system_entry(ws: Workspace, name: str | None) -> tuple[str, RefinementSystem]:
    try:
        s = ws.the_system(name)
    except KeyError as exc:
        raise UsageError(exc.args[0]) from None
    return next(key for key, value in ws.systems.items() if value is s), s


# Every suite, in the order `all` runs them; `suites.<name>` runs it, with
# a dash in the name read as an underscore.
SUITES = (
    "ff", "preservation", "factorization", "genday", "duality",
    "negative-encoding", "notnot-tensor", "rapp",
)


def run_suite(ws: Workspace, system: str | None, suite: str, size_guard: int) -> list[CheckReport]:
    """All reports of one verification suite, or of every suite for
    "all", in canonical order.  A suite stopped by a malformed
    construction (a StructuralError) is one failed report,
    `<suite>[<system>]`, and the next suite still runs."""
    key, s = _system_entry(ws, system)
    if suite == "all":
        return [r for sub in SUITES for r in run_suite(ws, system, sub, size_guard)]
    if suite not in SUITES:
        raise UsageError(f"unknown suite {suite!r}")
    try:
        return getattr(suites, suite.replace("-", "_"))(ws, key, s, size_guard)
    except StructuralError as exc:
        from .reports import CheckReport

        stopped = CheckReport(f"{suite}[{s.name}]", "every construction the suite reads is well formed")
        stopped.record_fail(str(exc))
        return [stopped]


# ---------------------------------------------------------------------------
# Command implementations


def _emit(args, text: str) -> None:
    """Print to stdout.  A reader that closes the pipe early (`| head`)
    keeps what it read, and the command still exits with its own code."""
    try:
        print(text)
        _sys.stdout.flush()
    except BrokenPipeError:
        # Later writes, and the flush at exit, go to devnull instead of
        # raising again.
        _os.dup2(_os.open(_os.devnull, _os.O_WRONLY), _sys.stdout.fileno())


def _cmd_validate(args) -> int:
    ws = textio.load(args.file)
    if args.json:
        summary = {
            "categories": {
                name: {"objects": cat.n_objects, "morphisms": cat.n_morphisms}
                for name, cat in ws.categories.items()
            },
            "functors": {
                name: {"source": F.source.name, "target": F.target.name}
                for name, F in ws.functors.items()
            },
            "systems": {
                name: {
                    "objects": s.D.n_objects,
                    "morphisms": s.D.n_morphisms,
                    "base_objects": s.T.n_objects,
                    "base_morphisms": s.T.n_morphisms,
                }
                for name, s in ws.systems.items()
            },
            "presheaves": {
                name: {"base": phi.base.name, "elements": sum(phi.size(a) for a in range(phi.base.n_objects))}
                for name, phi in ws.presheaves.items()
            },
            "adjunctions": sorted(ws.adjunctions),
        }
        _emit(args, render.to_json(summary))
        return 0
    lines = []
    for name, cat in ws.categories.items():
        lines.append(f"category {name}: {cat.n_objects} objects, {cat.n_morphisms} morphisms")
    for name, F in ws.functors.items():
        lines.append(f"functor {name}: {F.source.name} -> {F.target.name}")
    for name, s in ws.systems.items():
        lines.append(
            f"refsys {name}: {s.D.n_objects}/{s.D.n_morphisms} over "
            f"{s.T.n_objects}/{s.T.n_morphisms} (objects/morphisms)"
        )
    for name, phi in ws.presheaves.items():
        total = sum(phi.size(a) for a in range(phi.base.n_objects))
        lines.append(f"presheaf {name}: {total} elements over {phi.base.name}")
    for name in ws.adjunctions:
        lines.append(f"adjunction {name}: {ws.adjunctions[name].s.name} <-> {ws.adjunctions[name].e.name}")
    lines.append("ok")
    _emit(args, "\n".join(lines))
    return 0


def _cmd_derive(args) -> int:
    ws = textio.load(args.file)
    _, s = _system_entry(ws, args.system)
    P = _resolve_obj(s.D, args.P, "refinement")
    Q = _resolve_obj(s.D, args.Q, "refinement")
    c = _resolve_mor(s.T, args.c, "base morphism")
    if s.T.dom(c) != s.shape(P) or s.T.cod(c) != s.shape(Q):
        raise UsageError(
            f"judgment ({args.P}, {args.c}, {args.Q}) is ill-formed: "
            f"{args.c} : {s.T.objects[s.T.dom(c)]} -> {s.T.objects[s.T.cod(c)]}"
        )
    ders = s.derivations(P, c, Q)
    if args.json:
        _emit(args, render.to_json({"derivations": [s.D.mor_names[a] for a in ders]}))
        return 0
    if not ders:
        _emit(args, "no derivations")
    else:
        _emit(args, "\n".join(s.D.mor_names[a] for a in ders))
    return 0


def _cmd_slice(args, co: bool) -> int:
    from .represent import coslice_of, slice_of

    ws = textio.load(args.file)
    _, s = _system_entry(ws, args.system)
    B = _resolve_obj(s.T, args.base, "base object")
    S = coslice_of(s, B) if co else slice_of(s, B)
    if args.json:
        _emit(args, render.to_json(render.category_to_dict(S.cat)))
        return 0
    lines = [f"{S.cat.name}: {S.cat.n_objects} objects, {S.cat.n_morphisms} morphisms"]
    for i in range(S.cat.n_objects):
        lines.append(f"  obj {S.obj_name(i)}")
    for i in range(S.cat.n_morphisms):
        lines.append(
            f"  mor {S.mor_name(i)} : {S.obj_name(S.cat.dom(i))} -> {S.obj_name(S.cat.cod(i))}"
        )
    _emit(args, "\n".join(lines))
    return 0


def _cmd_represent(args) -> int:
    from .represent import neg_rep, pos_rep

    ws = textio.load(args.file)
    _, s = _system_entry(ws, args.system)
    if args.pos is not None:
        phi = pos_rep(s, _resolve_obj(s.D, args.pos, "refinement"))
    else:
        phi = neg_rep(s, _resolve_obj(s.D, args.neg, "refinement"))
    if args.json:
        _emit(args, render.to_json(render.presheaf_to_dict(phi)))
    else:
        _emit(args, render.render_presheaf(phi))
    return 0


def _cmd_lift(args, direction: str) -> int:
    from .refsys import find_pullback, find_pushforward

    ws = textio.load(args.file)
    _, s = _system_entry(ws, args.system)
    c = _resolve_mor(s.T, args.c, "base morphism")
    X = _resolve_obj(s.D, args.X, "refinement")
    want = s.T.dom(c) if direction == "pushforward" else s.T.cod(c)
    if s.shape(X) != want:
        raise UsageError(
            f"{args.X} refines {s.T.objects[s.shape(X)]}, "
            f"but {args.c} needs a refinement of {s.T.objects[want]}"
        )
    cert = (
        find_pushforward(s, c, X)
        if direction == "pushforward"
        else find_pullback(s, c, X)
    )
    if args.json:
        payload = None
        if cert is not None:
            payload = {
                "direction": direction,
                "base": args.c,
                "subject": args.X,
                "result": s.D.objects[cert.result],
                "structural": s.D.mor_names[cert.structural],
                "factoring_tests": cert.tests,
            }
        _emit(args, render.to_json({direction: payload}))
        return 0
    if cert is None:
        _emit(args, f"no {direction}")
        return 0
    mark = "!" if direction == "pushforward" else "*"
    _emit(
        args,
        f"{direction} {args.c}{mark}{args.X} = {s.D.objects[cert.result]}\n"
        f"  structural {s.D.mor_names[cert.structural]}\n"
        f"  factoring problems solved: {cert.tests}",
    )
    return 0


def _cmd_dual(args) -> int:
    ws = textio.load(args.file)
    _, s = _system_entry(ws, args.system)
    side = "left" if args.left is not None else "right"
    X = _resolve_obj(s.D, getattr(args, side), "refinement")
    from .duality import _duals

    rep, dual = _duals(side)
    inp = rep(s, X)
    out = dual(s, s.shape(X), inp)
    if args.json:
        _emit(args, render.to_json(render.presheaf_to_dict(out)))
    else:
        _emit(args, render.render_presheaf(out))
    return 0


def _cmd_verify(args) -> int:
    if args.size_guard < 0:
        raise UsageError(f"--size-guard must be 0 or more, got {args.size_guard}")
    ws = textio.load(args.file)
    reports = run_suite(ws, args.system, args.suite, args.size_guard)
    if args.json:
        _emit(args, render.to_json([r.to_dict() for r in reports]))
    else:
        blocks = [r.render() for r in reports]
        ok = sum(1 for r in reports if r.failed == 0)
        blocks.append(f"suite {args.suite}: {ok}/{len(reports)} reports ok")
        _emit(args, "\n\n".join(blocks))
    return 0 if all(r.failed == 0 for r in reports) else 1


def _cmd_fixtures(args) -> int:
    kind = args.name
    if kind not in textio.FIXTURE_KINDS:
        raise UsageError(f"unknown fixture {kind!r} (one of {', '.join(textio.FIXTURE_KINDS)})")
    params = {} if args.seed is None else {"seed": args.seed}
    if "seed" in textio.FIXTURE_KINDS[kind][1]:
        params.setdefault("seed", 0)
    ws = textio.Workspace()
    try:
        textio.build_fixture(ws, kind, kind, params, "generated")
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.json:
        payload = {
            "fixture": kind,
            "params": params,
            "systems": {name: render.system_to_dict(s) for name, s in ws.systems.items()},
        }
        _emit(args, render.to_json(payload))
        return 0
    lines = [f"# {kind} fixture"]
    param_text = "".join(f" {k}={v}" for k, v in sorted(params.items()))
    lines.append(f"fixture {kind} {kind}{param_text}")
    for name, s in ws.systems.items():
        lines.append("")
        lines.append(f"# expanded: refsys {name}")
        for chunk in render.render_system(s).splitlines():
            lines.append(f"# {chunk}" if chunk else "#")
    _emit(args, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# Parser


# Every subcommand, in the order help lists them.
COMMANDS = (
    "validate", "derive", "slice", "coslice", "represent", "pushforward", "pullback", "dual",
    "verify", "fixtures",
)


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The command-line parser.  When argv starts with a subcommand, only
    that subcommand's parser is built; the top-level usage line it can
    still print (for an unrecognized argument) lists every subcommand
    through `metavar`.  Top-level help and errors build all of them."""
    only = argv[0] if argv and argv[0] in COMMANDS else None
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    p = argparse.ArgumentParser(
        prog="refcat",
        description="Queries and verification suites for finite refinement systems.",
    )
    metavar = None if only is None else "{" + ",".join(COMMANDS) + "}"
    sub = p.add_subparsers(dest="command", required=True, metavar=metavar)

    def add(name: str, help: str, system: bool = True):
        """The parser of one subcommand, or None if argv asks for another."""
        if only not in (None, name):
            return None
        sp = sub.add_parser(name, parents=[common], help=help)
        if system:
            sp.add_argument("--system", default=None, help="system name (default: the only one)")
        return sp

    if sp := add("validate", "load a file and report what it defines", system=False):
        sp.set_defaults(run=_cmd_validate)
        sp.add_argument("file")

    if sp := add("derive", "list derivations of a judgment"):
        sp.set_defaults(run=_cmd_derive)
        sp.add_argument("file")
        sp.add_argument("P")
        sp.add_argument("c")
        sp.add_argument("Q")

    if sp := add("slice", "print the slice over a base object"):
        sp.set_defaults(run=lambda args: _cmd_slice(args, co=False))
        sp.add_argument("file")
        sp.add_argument("base")

    if sp := add("coslice", "print the coslice under a base object"):
        sp.set_defaults(run=lambda args: _cmd_slice(args, co=True))
        sp.add_argument("file")
        sp.add_argument("base")

    if sp := add("represent", "print a representation presheaf"):
        sp.set_defaults(run=_cmd_represent)
        sp.add_argument("file")
        group = sp.add_mutually_exclusive_group(required=True)
        group.add_argument("--pos", metavar="X", help="positive representation of X")
        group.add_argument("--neg", metavar="X", help="negative representation of X")

    if sp := add("pushforward", "certify an opcartesian lift"):
        sp.set_defaults(run=lambda args: _cmd_lift(args, "pushforward"))
        sp.add_argument("file")
        sp.add_argument("c")
        sp.add_argument("X")

    if sp := add("pullback", "certify a cartesian lift"):
        sp.set_defaults(run=lambda args: _cmd_lift(args, "pullback"))
        sp.add_argument("file")
        sp.add_argument("c")
        sp.add_argument("X")

    if sp := add("dual", "dualize a representation"):
        sp.set_defaults(run=_cmd_dual)
        sp.add_argument("file")
        group = sp.add_mutually_exclusive_group(required=True)
        group.add_argument("--left", metavar="X", help="left dual of the positive representation of X")
        group.add_argument("--right", metavar="X", help="right dual of the negative representation of X")

    if sp := add("verify", "run a verification suite"):
        sp.set_defaults(run=_cmd_verify)
        sp.add_argument("file")
        sp.add_argument("suite", choices=(*SUITES, "all"))
        sp.add_argument(
            "--size-guard",
            dest="size_guard",
            type=int,
            default=SIZE_GUARD,
            help="skip the comma-category route of factorization past this size",
        )

    if sp := add("fixtures", "emit builder fixtures", system=False):
        sp.set_defaults(run=_cmd_fixtures)
        sp.add_argument("action", choices=("gen",))
        sp.add_argument("name")
        sp.add_argument("--seed", type=int, default=None, help="seed for the random fixture")

    return p


def main(argv=None) -> int:
    if argv is None:
        argv = _sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        return args.run(args)
    except (UsageError, LoadError, StructuralError, SizeGuardExceeded) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    _sys.exit(main())
