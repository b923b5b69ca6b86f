"""The intentional name language (Section 2.1 of the paper).

Public surface:

- :class:`NameSpecifier` — an intentional name, a hierarchy of av-pairs.
- :class:`AVPair` — one attribute-value pair with dependent children.
- :func:`parse_name_specifier` — wire-format parser (depth-bounded).
- Value operators: exact match, wild-card ``*``, and range operators.
- :func:`encode_name` / :func:`decode_name` — the compact binary
  encoding of footnote 2 (self-contained or registry mode).
"""

from .avpair import AVPair, make_pair, validate_token
from .binary import (
    BinaryNameError,
    TokenRegistry,
    compression_ratio,
    decode_name,
    encode_name,
)
from .errors import (
    DuplicateAttributeError,
    InvalidTokenError,
    NameSyntaxError,
    NamingError,
    SealedNameError,
    WildcardValueError,
    WireFormatError,
)
from .operators import (
    WILDCARD,
    LiteralMatcher,
    RangeMatcher,
    ValueMatcher,
    WildcardMatcher,
    classify_value,
    is_operator_value,
    is_wildcard,
    parse_number,
)
from .parser import MAX_NAME_DEPTH, parse_name_specifier
from .specifier import DEFAULT_VSPACE, VSPACE_ATTRIBUTE, NameSpecifier

__all__ = [
    "AVPair",
    "BinaryNameError",
    "TokenRegistry",
    "compression_ratio",
    "decode_name",
    "encode_name",
    "DEFAULT_VSPACE",
    "DuplicateAttributeError",
    "InvalidTokenError",
    "LiteralMatcher",
    "NameSpecifier",
    "NameSyntaxError",
    "NamingError",
    "RangeMatcher",
    "SealedNameError",
    "VSPACE_ATTRIBUTE",
    "ValueMatcher",
    "WILDCARD",
    "WildcardMatcher",
    "MAX_NAME_DEPTH",
    "WildcardValueError",
    "WireFormatError",
    "classify_value",
    "is_operator_value",
    "is_wildcard",
    "make_pair",
    "parse_name_specifier",
    "parse_number",
    "validate_token",
]
