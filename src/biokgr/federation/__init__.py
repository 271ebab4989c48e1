"""Uniform, rate-limited access to heterogeneous biomedical KG services."""
from biokgr.federation.descriptors import (
    QuerySpec,
    RetryPolicy,
    SourceDescriptor,
    default_registry,
)
from biokgr.federation.ratelimit import RateLimiter, SystemClock
from biokgr.federation.client import (
    AuthMissing,
    FederationError,
    FetchRequest,
    InvalidQuery,
    KgClient,
    MalformedResponse,
    RequestFailed,
    SourceUnavailable,
)
from biokgr.federation.queries import RELATION_SEARCH_TYPES
from biokgr.federation.unified import (
    AllSourcesFailed,
    Federation,
    FetchResult,
    SourceStatus,
    UnifiedRecord,
)
from biokgr.federation.persist import WorkspaceUnavailable, persist_results

__all__ = [
    "QuerySpec",
    "RetryPolicy",
    "SourceDescriptor",
    "default_registry",
    "RateLimiter",
    "SystemClock",
    "AuthMissing",
    "FederationError",
    "FetchRequest",
    "InvalidQuery",
    "KgClient",
    "RequestFailed",
    "SourceUnavailable",
    "RELATION_SEARCH_TYPES",
    "AllSourcesFailed",
    "Federation",
    "FetchResult",
    "MalformedResponse",
    "SourceStatus",
    "UnifiedRecord",
    "WorkspaceUnavailable",
    "persist_results",
]
