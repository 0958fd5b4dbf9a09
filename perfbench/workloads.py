"""Workload inputs, generated from the workload seed.

The seed picks only what the program is given: system names, the
`random` fixture seeds on lattice-verify, and the query arguments on
query-mix.  Fixture sizes stay those of the shipped fixtures, so the
work per pass does not depend on the seed except through the random
systems.
"""

from __future__ import annotations

import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class VerifyCall:
    label: str
    path: str
    extra: tuple[str, ...] = ()

    def argv(self) -> list[str]:
        return ["verify", self.path, "all", *self.extra]


@dataclass(frozen=True)
class Query:
    label: str
    argv: tuple[str, ...]
    # For hoare lifts: the predicate the state-machine semantics predicts.
    expect: str | None = None


@dataclass
class Inputs:
    setup_files: list[str]
    calls: list[VerifyCall]
    queries: list[Query]


def write_input(work: Path, name: str, body: str) -> str:
    path = work / name
    path.write_text(body, encoding="utf-8")
    return str(path)


# lattice-verify adds this many `random seed=N` systems, N drawn from the
# workload seed.  Their check counts vary with N (about 15 to 200 each), so
# more of them would widen the seed-to-seed spread of checks_decided.
RANDOM_SYSTEMS = 2


def verify_inputs(workload: str, seed: int, work: Path) -> Inputs:
    tag = f"s{seed}"
    if workload == "hoare-verify":
        path = write_input(work, "hoare.fix", f"fixture hoare_{tag} hoare\n")
        return Inputs([path], [VerifyCall("hoare", path)], [])
    if workload == "linctx-verify":
        path = write_input(work, "linctx.fix", f"fixture linctx_{tag} linctx\n")
        return Inputs([path], [VerifyCall("linctx", path)], [])
    if workload == "lattice-verify":
        rng = random.Random(f"lattice-verify:{seed}")
        collapse = write_input(work, "collapse.fix", f"fixture collapse_{tag} lattice-collapse\n")
        identity = write_input(work, "identity.fix", f"fixture identity_{tag} lattice-identity\n")
        galois = write_input(work, "galois.fix", f"fixture galois_{tag} galois\n")
        calls = [
            VerifyCall("lattice-collapse", collapse),
            VerifyCall("lattice-identity", identity),
            VerifyCall("galois", galois, ("--system", f"galois_{tag}")),
            VerifyCall("galois.e", galois, ("--system", f"galois_{tag}.e")),
        ]
        files = [collapse, identity, galois]
        for k in range(RANDOM_SYSTEMS):
            n = rng.randrange(1, 10**6)
            path = write_input(work, f"random{k}.fix", f"fixture random_{n} random seed={n}\n")
            calls.append(VerifyCall(f"random seed={n}", path))
            files.append(path)
        return Inputs(files, calls, [])
    raise KeyError(workload)

# Kinds asked on each workspace in one round.  hoare gets the two lifts
# twice (they have known answers) and derive twice; linctx gets each kind
# once.  With 12 of 21 queries on the faster hoare workspace, the median
# falls inside the hoare group and p90 inside the linctx one, so neither
# sits on the boundary between them.
HOARE_KINDS = (
    "derive", "derive", "pushforward", "pushforward", "pullback", "pullback",
    "represent --pos", "represent --neg", "dual --left", "dual --right", "slice", "coslice",
)
LINCTX_KINDS = (
    "derive", "pushforward", "pullback", "represent --pos", "represent --neg",
    "dual --left", "dual --right", "slice", "coslice",
)
# Dualizing a linctx refinement of context length 3 cold costs seconds
# (the slice and coslice over 3 are the largest); those duals run in every
# linctx-verify pass, so query-mix keeps to lengths up to 2.
LINCTX_DUAL_MAX_SHAPE = 2


def query_inputs(seed: int, work: Path, src: Path) -> Inputs:
    """One round of queries; every round of a run repeats it."""
    sys.path.insert(0, str(src))
    from refcat import fixtures, textio

    tag = f"s{seed}"
    hoare = write_input(work, "hoare.fix", f"fixture hoare_{tag} hoare\n")
    linctx = write_input(work, "linctx.fix", f"fixture linctx_{tag} linctx\n")
    rng = random.Random(f"query-mix:{seed}")
    spec = fixtures.default_hoare_spec()
    lifts = {"pushforward": fixtures.hoare_sp, "pullback": fixtures.hoare_wp}
    queries: list[Query] = []
    for path, kinds in ((hoare, HOARE_KINDS), (linctx, LINCTX_KINDS)):
        s = textio.load(path).the_system(None)
        for kind in kinds:
            q = _draw(rng, kind, path, s, max_dual_shape=None if path == hoare else LINCTX_DUAL_MAX_SHAPE)
            if path == hoare and kind in lifts:
                _, _, c, X = q.argv
                q = Query(q.label, q.argv, _pred_name(spec, lifts[kind](spec, c, _states(X))))
            queries.append(q)
    rng.shuffle(queries)
    return Inputs([hoare, linctx], [], queries)


def _states(pred: str) -> list[str]:
    return [x for x in pred.strip("{}").split(",") if x]


def _pred_name(spec, states) -> str:
    return "{" + ",".join(x for x in spec.states if x in states) + "}"


def _draw(rng: random.Random, kind: str, path: str, s, max_dual_shape: int | None) -> Query:
    """A well-formed query of one kind with arguments drawn from `rng`."""
    D, T = s.D, s.T
    label = f"{Path(path).stem} {kind}"
    objs = range(D.n_objects)
    if kind == "derive":
        c = rng.randrange(T.n_morphisms)
        P = rng.choice([x for x in objs if s.shape(x) == T.dom(c)])
        Q = rng.choice([x for x in objs if s.shape(x) == T.cod(c)])
        return Query(label, ("derive", path, D.objects[P], T.mor_names[c], D.objects[Q]))
    if kind in ("pushforward", "pullback"):
        c = rng.randrange(T.n_morphisms)
        end = T.dom(c) if kind == "pushforward" else T.cod(c)
        X = rng.choice([x for x in objs if s.shape(x) == end])
        return Query(label, (kind, path, T.mor_names[c], D.objects[X]))
    if kind in ("slice", "coslice"):
        B = rng.randrange(T.n_objects)
        return Query(label, (kind, path, T.objects[B]))
    command, flag = kind.split()
    pool = list(objs)
    if command == "dual" and max_dual_shape is not None:
        # linctx base objects are context lengths
        pool = [x for x in pool if int(T.objects[s.shape(x)]) <= max_dual_shape]
    X = rng.choice(pool)
    return Query(label, (command, path, flag, D.objects[X]))


_LIFT = re.compile(r"^(pushforward|pullback) \S+ = (\S+)$")


def lift_answer(stdout: str) -> str | None:
    """The result refinement of a lift query, or None when none exists."""
    m = _LIFT.match(stdout.splitlines()[0]) if stdout else None
    return m.group(2) if m else None
