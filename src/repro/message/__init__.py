"""The INS packet format (Section 4, Figure 10), DSR wire messages and
the custody-transfer handoff."""

from .custody import CustodyRecord, CustodyTransfer
from .delegation import (
    DelegateAbort,
    DelegateAccept,
    DelegateCommit,
    DelegateOffer,
    DelegateRecord,
    DelegateTransfer,
    DelegationWireError,
    MAX_RECORDS_PER_TRANSFER,
    OFFER_ACCEPTED,
    compose_handoff_id,
)
from .dsr import (
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
from .header import (
    DEFAULT_HOP_LIMIT,
    HEADER_SIZE,
    INS_VERSION,
    Binding,
    Delivery,
    Header,
    HeaderError,
)
from .packet import InsMessage

__all__ = [
    "Binding",
    "CustodyRecord",
    "CustodyTransfer",
    "DEFAULT_HOP_LIMIT",
    "DelegateAbort",
    "DelegateAccept",
    "DelegateCommit",
    "DelegateOffer",
    "DelegateRecord",
    "DelegateTransfer",
    "DelegationWireError",
    "Delivery",
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
    "HEADER_SIZE",
    "Header",
    "HeaderError",
    "INS_VERSION",
    "InsMessage",
    "MAX_RECORDS_PER_TRANSFER",
    "OFFER_ACCEPTED",
    "compose_handoff_id",
]
