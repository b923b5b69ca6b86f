"""Overlay self-configuration: the DSR and its protocol (Section 2.4)."""

from .dsr import DEFAULT_REGISTRATION_LIFETIME, DomainSpaceResolver
from ..message.dsr import (
    DsrClaimCandidate,
    DsrClaimResponse,
    DsrDeregister,
    DsrHeartbeat,
    DsrListRequest,
    DsrListResponse,
    DsrRegisterActive,
    DsrRegisterCandidate,
    DsrReplicate,
    DsrVspaceRequest,
    DsrVspaceResponse,
)

__all__ = [
    "DEFAULT_REGISTRATION_LIFETIME",
    "DomainSpaceResolver",
    "DsrClaimCandidate",
    "DsrClaimResponse",
    "DsrDeregister",
    "DsrHeartbeat",
    "DsrListRequest",
    "DsrListResponse",
    "DsrRegisterActive",
    "DsrRegisterCandidate",
    "DsrReplicate",
    "DsrVspaceRequest",
    "DsrVspaceResponse",
]
