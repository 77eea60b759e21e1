"""Symmetric private retrieval from replicated databases, with the user
holding one entry of the servers' shared randomness pool.

The package builds the query scheme, simulates full retrievals, audits the
privacy and reliability guarantees exactly as rank identities over F_q, computes
the achievable rate region, and ships a small binary protocol plus TCP
transport so the same retrieval runs against live database servers.
"""
from .audit import (
    AuditReport,
    Distribution,
    InstanceTooLarge,
    cr_difference_audit,
    database_privacy_audit,
    query_distribution,
    reliability_audit,
    run_all_audits,
    user_privacy_audit,
)
from .fields import (
    Seed,
    SeededStream,
    is_prime,
    sample_permutation,
)
from .net import (
    DatabaseServer,
    NetError,
    load_database_state,
    load_user_file,
    provision,
    run_client_retrieval,
    serve_database,
)
from .plan import (
    PirPlan,
    SchemeParams,
    build_pir_plan,
)
from .region import (
    Baselines,
    RegionVerdict,
    TimeSharePlan,
    baselines,
    check_region,
    classical_point,
    corner_point,
    time_share_plan,
)
from .scheme import (
    MUTATIONS,
    RateTriple,
    SpirRequest,
    canonical_family,
    measured_rates,
    select_query,
)
from .sim import (
    DecodeError,
    RetrievalSeeds,
    Transcript,
    run_retrieval,
)
from .wire import Frame, FrameType, WireError, decode_frame, encode_frame

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "Baselines",
    "DatabaseServer",
    "DecodeError",
    "Distribution",
    "Frame",
    "FrameType",
    "InstanceTooLarge",
    "MUTATIONS",
    "NetError",
    "PirPlan",
    "RateTriple",
    "RegionVerdict",
    "RetrievalSeeds",
    "SchemeParams",
    "Seed",
    "SeededStream",
    "SpirRequest",
    "TimeSharePlan",
    "Transcript",
    "WireError",
    "baselines",
    "build_pir_plan",
    "canonical_family",
    "check_region",
    "classical_point",
    "corner_point",
    "cr_difference_audit",
    "database_privacy_audit",
    "decode_frame",
    "encode_frame",
    "is_prime",
    "load_database_state",
    "load_user_file",
    "measured_rates",
    "provision",
    "query_distribution",
    "reliability_audit",
    "run_all_audits",
    "run_client_retrieval",
    "run_retrieval",
    "sample_permutation",
    "select_query",
    "serve_database",
    "time_share_plan",
    "user_privacy_audit",
]
