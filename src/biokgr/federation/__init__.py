"""Uniform, rate-limited access to heterogeneous biomedical KG services."""
from biokgr.federation.descriptors import (
    QuerySpec,
    SourceDescriptor,
    default_registry,
)
from biokgr.federation.ratelimit import RateLimiter
from biokgr.federation.client import (
    AuthMissing,
    FederationError,
    FetchRequest,
    InvalidQuery,
    MalformedResponse,
    RequestFailed,
    SourceUnavailable,
)
from biokgr.federation.unified import (
    AllSourcesFailed,
    Federation,
    FetchResult,
    SourceStatus,
    UnifiedRecord,
)
from biokgr.federation.persist import persist_results

__all__ = [
    "QuerySpec",
    "SourceDescriptor",
    "default_registry",
    "RateLimiter",
    "AuthMissing",
    "FederationError",
    "FetchRequest",
    "InvalidQuery",
    "RequestFailed",
    "SourceUnavailable",
    "AllSourcesFailed",
    "Federation",
    "FetchResult",
    "MalformedResponse",
    "SourceStatus",
    "UnifiedRecord",
    "persist_results",
]
