"""Acceptance suite: one check per release gate, one printed line per check.

Every check here is exact (rational arithmetic or full enumeration) unless
the line itself says otherwise.  Lines print even under pytest capture.
"""
import itertools
import random
import time
from fractions import Fraction

from spircr.audit import (
    cr_difference_audit,
    database_privacy_audit,
    query_distribution,
    reliability_audit,
)
from spircr.fields import Seed
from spircr.net import (
    load_database_state,
    load_user_file,
    provision,
    run_client_retrieval,
    serve_database,
)
from spircr.plan import SchemeParams, plan_with_perms
from spircr.region import check_region, classical_point, corner_point
from spircr.scheme import (
    RateTriple,
    assign_common_randomness,
    measured_rates,
    permute_nonseed,
    variant_mappings,
)
from spircr.sim import RetrievalSeeds, run_retrieval
from spircr.wire import WireError, decode_frame


def report(capsys, name, problems, detail, started, budget=None):
    elapsed = time.monotonic() - started
    if budget is not None and elapsed > budget:
        problems.append(f"took {elapsed:.2f}s, budget {budget}s")
    verdict = "PASS" if not problems else "FAIL"
    text = detail if not problems else "; ".join(problems)
    with capsys.disabled():
        print(f"\n{verdict} {name}: {text} [{elapsed:.2f}s]", flush=True)
    assert not problems, f"{name}: {text}"


def test_corner_rates_exact(capsys):
    started = time.monotonic()
    problems = []
    cases = [
        ((1, 3), RateTriple(Fraction(3), Fraction(3), Fraction(1))),
        ((2, 2), RateTriple(Fraction(3, 2), Fraction(3, 4), Fraction(1, 4))),
    ]
    for (n, k), want in cases:
        got = measured_rates(SchemeParams.create(n, k))
        if got != want:
            problems.append(f"({n},{k}) measured {got}, want {want}")
        if corner_point(n, k) != want:
            problems.append(f"({n},{k}) corner formula disagrees")
    report(capsys, "corner-rates",
           problems, "(1,3)->(3,3,1) and (2,2)->(3/2,3/4,1/4), rational equality",
           started, budget=1.0)


def test_region_tightness_grid(capsys):
    started = time.monotonic()
    problems = []
    for n, k in itertools.product((1, 2, 3), (2, 3, 4)):
        rates = measured_rates(SchemeParams.create(n, k))
        verdict = check_region(n, k, rates)
        if not verdict.inside:
            problems.append(f"({n},{k}) measured rates outside region")
        loose = [c.name for c in verdict.checks if not c.tight]
        if loose:
            problems.append(f"({n},{k}) not tight: {loose}")
    report(capsys, "region-tightness",
           problems, "measured rates meet every bound with equality on the 3x3 grid",
           started, budget=1.0)


def test_exhaustive_reliability(capsys):
    started = time.monotonic()
    problems = []
    checked = []
    for n, k, q in ((1, 2, 2), (1, 2, 3), (1, 3, 2), (2, 2, 2)):
        rep = reliability_audit(SchemeParams.create(n, k, q))
        if not (rep.passed and rep.exact):
            problems.append(f"({n},{k}) q={q}: {rep.line()}")
        checked.append(f"({n},{k})q{q}")
    report(capsys, "reliability",
           problems, f"zero decode failures over the full joint space: {', '.join(checked)}",
           started, budget=300.0)


def test_query_uniformity(capsys):
    started = time.monotonic()
    problems = []

    params = SchemeParams.create(1, 3, 2)
    third = Fraction(1, 3)
    supports = []
    for desired in (1, 2, 3):
        marg = query_distribution(params, 1, desired)
        if sorted(marg.mass.values()) != [third] * 3:
            problems.append(f"(1,3) desired {desired}: marginal not 1/3 x 3")
        supports.append(frozenset(marg.mass))
        for u in (1, 2, 3):
            cond = query_distribution(params, 1, desired, user_cr_index=u)
            if list(cond.mass.values()) != [Fraction(1)]:
                problems.append(f"(1,3) desired {desired} u={u}: not a point mass")
            elif marg.mass.get(next(iter(cond.mass))) != third:
                problems.append(f"(1,3) desired {desired} u={u}: query mass not 1/3")
    if len(set(supports)) != 1:
        problems.append("(1,3) query supports differ across desired")

    params = SchemeParams.create(2, 2, 2)
    for db in (1, 2):
        if query_distribution(params, db, 1).mass != query_distribution(params, db, 2).mass:
            problems.append(f"(2,2) db{db}: distributions differ across desired")

    report(capsys, "query-uniformity",
           problems, "(1,3) mass exactly 1/3 per query for every (desired, pool pick); "
           "(2,2) per-db distributions equal across desired",
           started, budget=300.0)


def test_privacy_mi_zero_and_fault_injections(capsys):
    started = time.monotonic()
    problems = []
    for n, k, q in ((1, 2, 2), (1, 2, 3), (2, 2, 2)):
        params = SchemeParams.create(n, k, q)
        for audit, label in ((database_privacy_audit, "database-privacy"),
                             (cr_difference_audit, "cr-difference")):
            rep = audit(params)
            if not (rep.passed and rep.exact and "0 (exact" in rep.value):
                problems.append(f"({n},{k}) q={q} {label}: {rep.line()}")

    for params, audit, mutation, label in (
        (SchemeParams.create(1, 2, 2), database_privacy_audit, "unmask-one",
         "database-privacy"),
        (SchemeParams.create(2, 2, 2), database_privacy_audit, "unmask-one",
         "database-privacy"),
        (SchemeParams.create(2, 2, 2), cr_difference_audit, "bare-companion",
         "cr-difference"),
    ):
        rep = audit(params, mutation=mutation)
        if rep.passed:
            problems.append(f"{mutation} did not break {label}: {rep.line()}")

    report(capsys, "privacy-independence",
           problems, "both leakage audits factor exactly (I = 0) on (1,2) q=2,3 and "
           "(2,2) q=2; unmask-one and bare-companion each flip their audit to FAIL",
           started, budget=1800.0)


def test_classical_reduction_binding(capsys):
    started = time.monotonic()
    problems = []
    eps = Fraction(1, 10**6)
    for n in (2, 3, 4):
        for k in (2, 3):
            cp = classical_point(n, k)
            if (cp.d, cp.rho_s, cp.rho_u) != (Fraction(n, n - 1), Fraction(1, n - 1), 0):
                problems.append(f"N={n} classical point wrong: {cp}")
            verdict = check_region(n, k, cp)
            if not verdict.inside:
                problems.append(f"N={n} K={k} classical point not feasible")
            tight = {c.name for c in verdict.checks if c.tight}
            if not {"download-user-tradeoff", "server-user-tradeoff"} <= tight:
                problems.append(f"N={n} K={k} bounds not tight at zero user randomness")
            if check_region(n, k, RateTriple(cp.d - eps, cp.rho_s, cp.rho_u)).inside:
                problems.append(f"N={n} K={k} download bound not binding")
            if check_region(n, k, RateTriple(cp.d, cp.rho_s - eps, cp.rho_u)).inside:
                problems.append(f"N={n} K={k} server randomness bound not binding")
    report(capsys, "classical-reduction",
           problems, "at rho_u = 0 the checker pins d >= N/(N-1) and rho_s >= 1/(N-1) "
           "for N in {2,3,4}, both binding",
           started)


def test_user_randomness_buys_server_randomness(capsys):
    started = time.monotonic()
    problems = []
    without = RateTriple(Fraction(2), Fraction(1), Fraction(0))
    with_user = RateTriple(Fraction(2), Fraction(3, 4), Fraction(1, 4))
    cheaper_alone = RateTriple(Fraction(2), Fraction(3, 4), Fraction(0))
    if not check_region(2, 2, without).inside:
        problems.append("(2, 1, 0) should be feasible")
    if not check_region(2, 2, with_user).inside:
        problems.append("(2, 3/4, 1/4) should be feasible")
    if check_region(2, 2, cheaper_alone).inside:
        problems.append("(2, 3/4, 0) should not be feasible")
    report(capsys, "randomness-tradeoff",
           problems, "(2,2): holding d = 2, a quarter symbol of user randomness lowers "
           "the server randomness floor from 1 to 3/4",
           started)


def test_transport_transparency_and_fuzz(capsys, tmp_path):
    started = time.monotonic()
    problems = []
    runs = 0
    for n, k in ((2, 2), (1, 3)):
        params = SchemeParams.create(n, k)
        state_master = Seed.from_text(f"acceptance-state-{n}-{k}")
        state_path, user_path = provision(
            params,
            state_master.derive("messages"),
            state_master.derive("pool"),
            state_master.derive("user"),
            tmp_path / f"{n}x{k}",
        )
        state = load_database_state(state_path)
        _, user = load_user_file(user_path)
        servers = [serve_database(state, i) for i in range(1, n + 1)]
        addresses = [s.address for s in servers]
        try:
            for i in range(50):
                desired = (i % k) + 1
                query_seed = Seed.from_text(f"acceptance-query-{n}-{k}-{i}")
                net = run_client_retrieval(addresses, params, desired, user, query_seed)
                local = run_retrieval(params, desired, RetrievalSeeds(
                    messages=state_master.derive("messages"),
                    pool=state_master.derive("pool"),
                    user=state_master.derive("user"),
                    query=query_seed,
                ))
                if net.core() != local.core():
                    problems.append(f"({n},{k}) run {i}: transcripts differ")
                    break
                runs += 1
        finally:
            for s in servers:
                s.stop()

    rng = random.Random(20260814)
    crashes = 0
    for _ in range(100_000):
        blob = rng.randbytes(rng.randrange(0, 48))
        try:
            decode_frame(blob)
        except WireError:
            pass
        except Exception:  # anything else is a decoder crash
            crashes += 1
    if crashes:
        problems.append(f"{crashes} decoder crashes on random frames")

    report(capsys, "transport-transparency",
           problems, f"{runs} networked runs match in-process transcripts field-for-field; "
           "100000 random frames decoded without a crash",
           started)


def test_message_permutation_variant_count(capsys):
    started = time.monotonic()
    problems = []
    params = SchemeParams.create(2, 2, 2)
    perms_per_msg = list(itertools.permutations(range(params.L)))
    for desired in (1, 2):
        per_variant: dict[int, set] = {0: set(), 1: set()}
        for perms in itertools.product(perms_per_msg, repeat=params.K):
            table = assign_common_randomness(
                plan_with_perms(params, desired, perms), params
            )
            vmaps = variant_mappings(params, 1)
            if len(vmaps) != 2:
                problems.append(f"desired {desired}: expected 2 pool relabelings")
                break
            for vi, vmap in enumerate(vmaps):
                per_variant[vi].add(permute_nonseed(table, 1, vmap))
        for vi, tables in per_variant.items():
            if len(tables) != 288:
                problems.append(
                    f"desired {desired} variant {vi}: {len(tables)} tables, want 288"
                )
    report(capsys, "variant-count",
           problems, "(2,2): exactly 288 distinct message-permutation realizations "
           "per pool relabeling, for each desired index",
           started)
