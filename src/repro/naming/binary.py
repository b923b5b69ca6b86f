"""Compact binary encoding of name-specifiers (footnote 2).

The paper's wire format is human-readable strings, chosen for
debuggability "in the spirit of HTTP and NNTP"; footnote 2 notes that
"fixed length integers could be used just as easily if the bandwidth or
processing power required for handling names is a concern". This module
implements that option: tokens are interned into a per-message string
table and the tree structure is byte-coded, which wins when tokens
repeat within one name (``tests/naming/test_binary.py``). The footnote's
other reading, a token registry both endpoints share, is not built: no
node agrees one.

Layout (mode byte first; any other mode byte is rejected)::

    0x01                                        -- self-contained
    varint   token_count
    token*   { varint length, utf-8 bytes }     -- each distinct token once
    node*    tree walk, one of:
               0x01 attr_index value_index      -- enter av-pair
               0x02                             -- leave av-pair
    0x00 terminator

Both directions are single-pass over flat buffers. The encoder walks
the av-pair forest with an explicit stack (a ``None`` entry marks a
pending LEAVE) and writes varints inline into one ``bytearray``; the
decoder reads varints against a bounds-checked cursor and slices token
bytes through a :class:`memoryview`, so no intermediate per-field
objects are built. Every way a frame can be undecodable — truncation,
a runaway varint, an out-of-range token index, unbalanced nesting,
bytes after the terminator, tokens that are not legal name tokens —
raises :class:`BinaryNameError`, a :class:`~.errors.WireFormatError`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .avpair import AVPair, duplicate_error
from .errors import NamingError, WireFormatError
from .parser import MAX_NAME_DEPTH
from .specifier import NameSpecifier

_ENTER = 0x01
_LEAVE = 0x02
_END = 0x00

_MODE_SELF_CONTAINED = 0x01


class BinaryNameError(WireFormatError):
    """A compact-encoded name could not be decoded."""


def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise ValueError("varints are unsigned")
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_varint(data, offset: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    size = len(data)
    while True:
        if offset >= size:
            raise BinaryNameError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 35:
            raise BinaryNameError("varint too long")


def encode_name(name: NameSpecifier) -> bytes:
    """Serialize ``name``.

    Depth-safe for programmatically-built names of any depth: the tree
    walk uses an explicit stack rather than recursion.
    """
    table: Dict[str, int] = {}
    body = bytearray()
    append = body.append

    for root in name._roots:
        # ``None`` marks a pending LEAVE for the pair pushed before it.
        stack: List[Optional[AVPair]] = [root]
        pop = stack.pop
        while stack:
            pair = pop()
            if pair is None:
                append(_LEAVE)
                continue
            append(_ENTER)
            for token in (pair.attribute, pair.value):
                index = table.get(token)
                if index is None:
                    index = len(table)
                    table[token] = index
                while index > 0x7F:
                    append((index & 0x7F) | 0x80)
                    index >>= 7
                append(index)
            stack.append(None)
            stack.extend(pair._children[::-1])
    append(_END)

    out = bytearray([_MODE_SELF_CONTAINED])
    _write_varint(out, len(table))
    for token in table:  # dict preserves interning order
        encoded = token.encode("utf-8")
        _write_varint(out, len(encoded))
        out.extend(encoded)
    out.extend(body)
    return bytes(out)


def decode_name(
    data,
    max_depth: Optional[int] = MAX_NAME_DEPTH,
) -> NameSpecifier:
    """Parse a name produced by :func:`encode_name`.

    Accepts any bytes-like buffer (``bytes``, ``bytearray`` or a
    ``memoryview`` over a larger frame) and never copies token bytes
    before UTF-8 decoding. ``max_depth`` bounds nesting exactly
    like the text parser; pass ``None`` to lift the bound for trusted
    deep names.

    Raises :class:`BinaryNameError` — never a raw ``IndexError`` or
    ``UnicodeDecodeError`` — for every malformed input, including
    trailing bytes after the terminator.
    """
    size = len(data)
    if not size:
        raise BinaryNameError("empty buffer")
    mode = data[0]
    if mode != _MODE_SELF_CONTAINED:
        raise BinaryNameError(f"unknown encoding mode {mode:#x}")
    count, offset = _read_varint(data, 1)
    # Each token costs at least one length byte, so a count beyond
    # the remaining buffer is malformed regardless of contents.
    if count > size - offset:
        raise BinaryNameError("token table larger than message")
    view = memoryview(data)
    table = []
    for _ in range(count):
        length, offset = _read_varint(data, offset)
        end = offset + length
        if end > size:
            raise BinaryNameError("truncated token table")
        try:
            table.append(str(view[offset:end], "utf-8"))
        except UnicodeDecodeError as error:
            raise BinaryNameError(f"bad token bytes: {error}") from error
        offset = end

    table_size = len(table)
    # Open av-pairs, innermost last, each beside the group it joined;
    # ``group`` holds the innermost's children by attribute, as the parser's.
    stack: List[tuple] = []
    group: dict = {}
    while True:
        if offset >= size:
            raise BinaryNameError("missing terminator")
        opcode = data[offset]
        offset += 1
        if opcode == _ENTER:
            if max_depth is not None and len(stack) >= max_depth:
                raise BinaryNameError(
                    f"name deeper than {max_depth} levels"
                )
            # Inline bounds-checked varint reads: the node list is the
            # hot region of every frame and per-field (value, offset)
            # tuples from _read_varint would dominate the allocations.
            attribute_index = 0
            shift = 0
            while True:
                if offset >= size:
                    raise BinaryNameError("truncated varint")
                byte = data[offset]
                offset += 1
                attribute_index |= (byte & 0x7F) << shift
                if byte < 0x80:
                    break
                shift += 7
                if shift > 35:
                    raise BinaryNameError("varint too long")
            value_index = 0
            shift = 0
            while True:
                if offset >= size:
                    raise BinaryNameError("truncated varint")
                byte = data[offset]
                offset += 1
                value_index |= (byte & 0x7F) << shift
                if byte < 0x80:
                    break
                shift += 7
                if shift > 35:
                    raise BinaryNameError("varint too long")
            if attribute_index >= table_size or value_index >= table_size:
                bad = max(attribute_index, value_index)
                raise BinaryNameError(f"token index {bad} out of range")
            try:
                pair = AVPair(table[attribute_index], table[value_index])
                if pair.attribute in group:
                    raise duplicate_error(pair.attribute, stack[-1][0] if stack else None)
            except NamingError as error:
                # Reserved characters inside a token, or duplicate
                # sibling attributes: the frame encodes an illegal name.
                raise BinaryNameError(f"illegal name in frame: {error}") from error
            group[pair.attribute] = pair
            stack.append((pair, group))
            group = {}
        elif opcode == _LEAVE:
            if not stack:
                raise BinaryNameError("unbalanced av-pair nesting")
            pair, outer = stack.pop()
            pair._children = tuple(group.values())
            group = outer
        elif opcode == _END:
            if stack:
                raise BinaryNameError("unbalanced av-pair nesting")
            if offset != size:
                raise BinaryNameError("trailing bytes after terminator")
            name = NameSpecifier()
            name._roots = tuple(group.values())
            return name
        else:
            raise BinaryNameError(f"unknown opcode {opcode:#x}")
