"""The verification suites `refcat verify` runs, one function per suite,
named after it (`negative-encoding` is `negative_encoding`).  Each takes
(workspace, system key, system, size guard) and
returns its reports; `cli.SUITES` lists them in the order `all` runs
them.  A suite imports the checks it runs only once it has something to
check, so a skipped suite compiles none of them."""

from __future__ import annotations

from .reports import CheckReport


def _merge_reports(name: str, statement: str, reports) -> CheckReport:
    """Fold per-instance reports into one order-canonical report, each
    counterexample and note under the name of its instance."""
    out = CheckReport(name, statement)
    for rep in reports:
        out.absorb(rep, f"{rep.name}: ")
    return out


def _skip_report(name: str, statement: str, reason: str) -> CheckReport:
    rep = CheckReport(name, statement)
    rep.record_skip(reason)
    return rep


def ff(ws, key, s, size_guard) -> list[CheckReport]:
    from .represent import representation_ff_check

    return [representation_ff_check(s)]


def preservation(ws, key, s, size_guard) -> list[CheckReport]:
    from .represent import preservation_check

    return [preservation_check(s)]


def factorization(ws, key, s, size_guard) -> list[CheckReport]:
    from .represent import factorization_check

    return [factorization_check(s, size_guard)]


def genday(ws, key, s, size_guard) -> list[CheckReport]:
    if key not in ws.monoidal:
        return [
            _skip_report(
                f"genday[{s.name}]",
                "pushing paired representations forward preserves tensors, "
                "residuals, and their units",
                "no monoidal structure declared for this system",
            )
        ]
    from .day import genday_check

    mrs = ws.monoidal[key]
    n = s.D.n_objects
    reports = [
        genday_check(mrs, P, Q, R)
        for P in range(n)
        for Q in range(n)
        for R in range(n)
    ]
    return [
        _merge_reports(
            f"genday[{s.name}]",
            "pushing paired representations forward preserves tensors, "
            "residuals, and their units, over all object triples",
            reports,
        )
    ]


def duality(ws, key, s, size_guard) -> list[CheckReport]:
    from .duality import duality_check

    return [
        _merge_reports(
            f"duality[{s.name}]",
            "the positive and negative representations of every refinement "
            "are each other's duals",
            [duality_check(s, Q) for Q in range(s.D.n_objects)],
        )
    ]


def negative_encoding(ws, key, s, size_guard) -> list[CheckReport]:
    from .duality import negative_encoding_check, tensorL_check
    from .fixtures import linctx_data
    from .refsys import find_pushforward

    data = linctx_data(s)
    if data is not None:
        return [tensorL_check(s, decl) for decl in data[0].tensors]
    reports = []
    for c in range(s.T.n_morphisms):
        for P in s.fiber(s.T.dom(c)):
            if find_pushforward(s, c, P) is None:
                continue
            reports.append(negative_encoding_check(s, c, P))
    if not reports:
        return [
            _skip_report(
                f"negative-encoding[{s.name}]",
                "pushforwards are recovered from negative data",
                "no pushforwards exist in this system",
            )
        ]
    return [
        _merge_reports(
            f"negative-encoding[{s.name}]",
            "every pushforward is recovered from negative data, both as a "
            "dual of a pulled negative representation and as a double dual "
            "of the pushed positive one",
            reports,
        )
    ]


def notnot_tensor(ws, key, s, size_guard) -> list[CheckReport]:
    if key not in ws.monoids:
        return [
            _skip_report(
                f"notnot-tensor[{s.name}]",
                "fiber tensors are recovered from Day tensors up to double "
                "dualization",
                "no monoid objects declared for this system",
            )
        ]
    from .day import monoid_lax_check, notnottensor_check

    mrs, monoids = ws.monoidal[key], ws.monoids[key]
    reports = [
        notnottensor_check(mrs, mo, P, Q)
        for mo in monoids
        for P in s.fiber(mo.W)
        for Q in s.fiber(mo.W)
    ]
    return [
        _merge_reports(
            f"notnot-tensor[{s.name}]",
            "fiber tensors over every monoid are recovered from Day tensors "
            "up to double dualization",
            reports,
        ),
        _merge_reports(
            f"monoid-lax[{s.name}]",
            "representation of every monoid fiber is lax monoidal and "
            "preserves residuals",
            [monoid_lax_check(mrs, mo) for mo in monoids],
        ),
    ]


def rapp(ws, key, s, size_guard) -> list[CheckReport]:
    adj = None
    for name, cand in ws.adjunctions.items():
        if cand.s is s or cand.e is s or name == key:
            adj = cand
            break
    if adj is None:
        return [
            _skip_report(
                f"rapp[{s.name}]",
                "right adjoints preserve certified pullbacks",
                "no adjunction declared for this system",
            )
        ]
    from .adjunction import adjunction_check, lapp_check
    from .refsys import rapp_check

    return [adjunction_check(adj), rapp_check(adj), lapp_check(adj)]
