"""Command-line front end.

Subcommands:
  table      print the canonical query tables for an instance
  retrieve   run one retrieval, in process or against live servers
  audit      run the exact audits
  region     rate region: corner points, baselines, membership, time sharing
  provision  deal seeded state files for the database servers and the user
  serve      serve one database over TCP from a provisioned state file

Exit codes: 0 success, 1 failed audit or failed retrieval, 2 usage (a fault
that cannot apply to the instance included), 130 interrupted (Ctrl-C).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction

from .audit import run_all_audits
from .fields import DEFAULT_AUDIT_Q, DEFAULT_DEMO_Q, Seed, SeededStream
from .net import (
    NetError,
    load_database_state,
    load_user_file,
    provision,
    run_client_retrieval,
    serve_database,
)
from .plan import SchemeParams
from .region import (
    baselines,
    boundary_rows,
    check_region,
    classical_point,
    corner_point,
    time_share_plan,
)
from .scheme import (
    MUTATIONS,
    RateTriple,
    SchemeError,
    canonical_family,
    family_json,
    render_family_text,
    scheme_rates,
    select_query,
    table_lines,
    variant_count,
)
from .sim import DecodeError, RetrievalSeeds, run_retrieval


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="spircr", description=__doc__.strip().splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def add_nk(sp, q_default: int):
        sp.add_argument("--n", type=int, required=True, help="number of databases")
        sp.add_argument("--k", type=int, required=True, help="number of messages")
        sp.add_argument("--q", type=int, default=q_default, help="prime field size")

    t = sub.add_parser("table", help="print canonical query tables")
    add_nk(t, DEFAULT_DEMO_Q)
    t.add_argument("--format", choices=("text", "json"), default="text")
    t.add_argument("--desired", type=int, default=1, help="message shown if sampling")
    t.add_argument("--seed", default="demo", help="seed for the sampled fallback")

    r = sub.add_parser("retrieve", help="run one full retrieval")
    add_nk(r, DEFAULT_DEMO_Q)
    r.add_argument("--desired", type=int, required=True)
    r.add_argument("--seed", default="demo", help="master seed text")
    r.add_argument("--inject", choices=MUTATIONS, help="fault to inject")
    r.add_argument("--format", choices=("json", "text"), default="json")
    r.add_argument("--endpoints", help="host:port,... to retrieve over TCP")
    r.add_argument("--user", help="user randomness file (endpoint mode)")

    a = sub.add_parser("audit", help="run the exact audits")
    add_nk(a, DEFAULT_AUDIT_Q)
    a.add_argument("--inject", choices=MUTATIONS, help="fault to inject")

    g = sub.add_parser("region", help="rate region tools")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--target", help="rate triple to test, e.g. 7/4,7/8,1/8 (text and json)")
    g.add_argument("--format", choices=("text", "json", "csv"), default="text")
    g.add_argument("--steps", type=int, default=8, help="csv boundary samples")

    v = sub.add_parser("provision", help="write seeded state files")
    add_nk(v, DEFAULT_DEMO_Q)
    v.add_argument("--seed", default="demo", help="master seed text")
    v.add_argument("--out", required=True, help="output directory")

    s = sub.add_parser("serve", help="serve one database over TCP")
    s.add_argument("--state", required=True, help="database state file")
    s.add_argument("--db-index", type=int, required=True)
    s.add_argument("--host", default="127.0.0.1")
    s.add_argument("--port", type=int, default=0)
    return p


def _params(parser: argparse.ArgumentParser, args) -> SchemeParams:
    try:
        return SchemeParams.create(args.n, args.k, args.q)
    except ValueError as e:
        parser.error(str(e))
        raise AssertionError  # parser.error never returns


def _check_desired(parser, params: SchemeParams, desired: int) -> None:
    if not 1 <= desired <= params.K:
        parser.error(f"--desired must be in [1, {params.K}]")


def _usage_error(message: str) -> int:
    """One line on stderr and exit code 2, for usage errors found after parsing."""
    print(message, file=sys.stderr)
    return 2


def cmd_table(parser, args) -> int:
    params = _params(parser, args)
    _check_desired(parser, params, args.desired)
    if params.L > 64 or variant_count(params) * params.rs_size > 24:
        if args.format == "json":
            return _usage_error(
                f"the ({params.N},{params.K}) family is too large to print in full, "
                "and its one sampled table prints as text only"
            )
        table = select_query(
            params, args.desired, 1, SeededStream(Seed.from_text(args.seed))
        )
        print(
            f"family too large to print in full ({params.rs_size} pool indices, "
            f"{params.L} symbols per message); one sampled table for W{args.desired}:"
        )
        for line in table_lines(table, params.L):
            print(line)
        return 0
    families = canonical_family(params)
    if args.format == "json":
        print(json.dumps(family_json(params, families), indent=2))
    else:
        print(render_family_text(params, families))
    return 0


def _parse_endpoints(text: str, n_db: int) -> list[tuple[str, int]]:
    """The --endpoints addresses; ValueError names the first malformed one."""
    addresses = []
    for part in (p.strip() for p in text.split(",")):
        host, colon, port = part.rpartition(":")
        if not colon or not host:
            raise ValueError(f"{part!r} is not host:port")
        if not port.isdecimal() or not 1 <= int(port) <= 65535:
            raise ValueError(f"port {port!r} of {part!r} is not in 1..65535")
        addresses.append((host, int(port)))
    if len(addresses) != n_db:
        raise ValueError(f"need {n_db} database addresses, got {len(addresses)}")
    return addresses


def cmd_retrieve(parser, args) -> int:
    master = Seed.from_text(args.seed)
    if args.endpoints:
        if not args.user:
            parser.error("--endpoints needs --user")
        if args.inject:
            return _usage_error("--inject applies to in-process retrieval only, not to --endpoints")
        asked = _params(parser, args)
        try:
            addresses = _parse_endpoints(args.endpoints, asked.N)
        except ValueError as e:
            return _usage_error(f"--endpoints: {e}")
        try:
            params, user = load_user_file(args.user)
            if params != asked:
                return _usage_error(
                    f"--n {asked.N} --k {asked.K} --q {asked.q} does not match the user "
                    f"file's instance N={params.N} K={params.K} q={params.q}"
                )
            _check_desired(parser, params, args.desired)
            transcript = run_client_retrieval(
                addresses, params, args.desired, user, master.derive("query")
            )
        except (NetError, DecodeError, OSError, ValueError) as e:
            print(f"retrieval failed: {e}", file=sys.stderr)
            return 1
    else:
        if args.user:
            return _usage_error("--user applies to --endpoints only, not to in-process retrieval")
        params = _params(parser, args)
        _check_desired(parser, params, args.desired)
        try:
            transcript = run_retrieval(
                params, args.desired, RetrievalSeeds.from_master(master), args.inject
            )
        except DecodeError as e:
            print(f"retrieval failed: {e}", file=sys.stderr)
            return 1
        except SchemeError as e:
            return _usage_error(f"cannot inject {args.inject}: {e}")
    if args.format == "json":
        print(transcript.to_json(indent=2))
    else:
        print(f"desired W{args.desired} = {list(transcript.decoded)}")
        rates = " ".join(f"{k}={v}" for k, v in transcript.rates.as_strings().items())
        print(f"rates: {rates}")
    return 0


def cmd_audit(parser, args) -> int:
    params = _params(parser, args)
    try:
        reports = run_all_audits(params, args.inject)
    except SchemeError as e:
        return _usage_error(f"cannot inject {args.inject}: {e}")
    for report in reports:
        print(report.line())
    return 0 if all(r.passed for r in reports) else 1


def _parse_triple(parser, text: str) -> RateTriple:
    parts = text.split(",")
    if len(parts) != 3:
        parser.error("--target must be three comma-separated rationals")
    try:
        return RateTriple(*(Fraction(part.strip()) for part in parts))
    except (ValueError, ZeroDivisionError):
        parser.error(f"cannot parse rate triple {text!r}")
        raise AssertionError


def _region_too_long(n: int, k: int) -> int:
    return _usage_error(
        f"the ({n},{k}) region has numbers of more than {sys.get_int_max_str_digits()} "
        "digits, past this interpreter's limit for printing an integer"
    )


# Each csv row costs about 20 us and every row is held until the output is
# whole, so the ceiling keeps `region --format csv` to a few seconds.
_MAX_REGION_STEPS = 100_000


def cmd_region(parser, args) -> int:
    n, k = args.n, args.k
    if n < 1 or k < 2:
        parser.error("need --n >= 1 and --k >= 2")
    as_csv = args.format == "csv"
    if as_csv and args.target is not None:
        return _usage_error("--target does not apply to --format csv")
    if as_csv and args.steps < 1:
        parser.error("--steps must be at least 1")
    if as_csv and args.steps > _MAX_REGION_STEPS:
        parser.error(f"--steps must be at most {_MAX_REGION_STEPS}")
    target = _parse_triple(parser, args.target) if args.target else None
    # every format prints rho_u = 1/N^K, with floor(K log10 N) + 1 digits;
    # refuse at once where that is surely past the limit, before any rate is built
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and n >= 2 and k * math.log10(n) >= limit + 1:
        return _region_too_long(n, k)

    verdict = plan = None
    if as_csv:
        rows = boundary_rows(n, k, args.steps)
    else:
        corner = corner_point(n, k)
        base = baselines(n, k)
        rates = scheme_rates(n, k)
        classical = classical_point(n, k) if n >= 2 else None
        if target is not None:
            verdict = check_region(n, k, target)
            if n >= 2:
                plan = time_share_plan(n, k, target)

    try:
        if as_csv:
            lines = ["rho_u,d_min,rho_s_min", *(f"{ru},{d},{rs}" for ru, d, rs in rows)]
        elif args.format == "json":
            out: dict = {
                "n_db": n,
                "n_msg": k,
                "corner": corner.as_strings(),
                "scheme": rates.as_strings(),
                "baselines": base.to_dict(),
            }
            if classical is not None:
                out["classical"] = classical.as_strings()
            if verdict is not None:
                out["target"] = verdict.to_dict()
                if n >= 2:
                    out["time_share"] = None if plan is None else plan.to_dict()
            lines = [json.dumps(out, indent=2)]
        else:
            lines = [
                f"databases: {n}  messages: {k}",
                f"corner point        d={corner.d}  rho_s={corner.rho_s}  rho_u={corner.rho_u}",
                f"scheme as built     d={rates.d}  rho_s={rates.rho_s}  rho_u={rates.rho_u}",
            ]
            if classical is not None:
                lines.append(
                    f"classical point     d={classical.d}  rho_s={classical.rho_s}  rho_u={classical.rho_u}"
                )
            lines.append(f"capacities          plain={base.c_pir}  symmetric={base.c_spir}")
            if verdict is not None:
                lines.append(f"target {args.target}: {'inside' if verdict.inside else 'outside'}")
                lines += [f"  {c.line()}" for c in verdict.checks]
                if n >= 2 and plan is None:
                    lines.append("  no time-share decomposition (outside region)")
                elif n >= 2:
                    lines.append(
                        f"  time share: weight {plan.weight_corner} on corner, "
                        f"padding d={plan.padding.d} rho_s={plan.padding.rho_s} "
                        f"rho_u={plan.padding.rho_u}"
                    )
    except ValueError:  # str() of an integer past sys.get_int_max_str_digits()
        return _region_too_long(n, k)
    print("\n".join(lines))
    return 0 if verdict is None or verdict.inside else 1


def cmd_provision(parser, args) -> int:
    params = _params(parser, args)
    master = Seed.from_text(args.seed)
    try:
        state_path, user_path = provision(
            params,
            master.derive("messages"),
            master.derive("pool"),
            master.derive("user"),
            args.out,
        )
    except OSError as e:
        print(f"cannot write to {args.out}: {e}", file=sys.stderr)
        return 1
    print(f"database state: {state_path}")
    print(f"user file:      {user_path}")
    return 0


def cmd_serve(parser, args) -> int:
    if not 0 <= args.port <= 65535:
        return _usage_error(f"--port {args.port} is not in 0..65535")
    try:
        state = load_database_state(args.state)
    except (NetError, OSError, ValueError) as e:
        print(f"cannot load state: {e}", file=sys.stderr)
        return 1
    if not 1 <= args.db_index <= state.params.N:
        parser.error(f"--db-index must be in [1, {state.params.N}]")
    try:
        server = serve_database(state, args.db_index, args.host, args.port)
    except OSError as e:
        print(f"cannot serve on {args.host}:{args.port}: {e}", file=sys.stderr)
        return 1
    host, port = server.address
    print(f"database {args.db_index} listening on {host}:{port}", flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


_COMMANDS = {
    "table": cmd_table,
    "retrieve": cmd_retrieve,
    "audit": cmd_audit,
    "region": cmd_region,
    "provision": cmd_provision,
    "serve": cmd_serve,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](parser, args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # reader (e.g. head) closed the pipe; not an error of ours
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
