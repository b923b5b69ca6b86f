"""Baseline systems INS is contrasted against (DNS-style directories)."""

from .dns import (
    DNS_PORT,
    DnsAnswer,
    DnsClient,
    DnsDirectory,
    DnsQuery,
    DnsRegister,
    DnsRegisteredService,
)

__all__ = [
    "DNS_PORT",
    "DnsAnswer",
    "DnsClient",
    "DnsDirectory",
    "DnsQuery",
    "DnsRegister",
    "DnsRegisteredService",
]
