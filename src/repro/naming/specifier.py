"""Name-specifiers: the intentional names of INS (Section 2.1).

A :class:`NameSpecifier` is a hierarchy of av-pairs. Top-level av-pairs
are orthogonal to each other (e.g. ``city``, ``service`` and
``accessibility`` in the paper's Figure 2); each av-pair may carry
dependent children. Clients put name-specifiers in message headers to
identify message destinations and sources, and services advertise them
to describe what they provide.
"""

from __future__ import annotations

from typing import Iterator, List, Mapping, Optional, Tuple, Union

from .avpair import AVPair, _attribute_of, _sibling_key, duplicate_error
from .errors import SealedNameError, WildcardValueError

#: The well-known attribute an application uses to declare the virtual
#: space(s) its names belong to (Section 2.5).
VSPACE_ATTRIBUTE = "vspace"

#: The virtual space used when an application does not declare one.
DEFAULT_VSPACE = "default"

_DictValue = Union[str, Tuple[str, "NestedDict"]]
NestedDict = Mapping[str, _DictValue]


class NameSpecifier:
    """An intentional name: an ordered forest of orthogonal av-pairs.

    Names are values. A name is built freely until something takes its
    canonical key — hashing or comparing it, parsing it from text,
    sizing it for a send, finding it concrete, grafting it, looking it
    up — and is *sealed* from then on: ``add_pair``, and ``add_child``
    anywhere below, raise :class:`SealedNameError`. To edit a name,
    edit its :meth:`copy`, which is unsealed.
    """

    __slots__ = ("_roots", "_key_cache", "_wire_cache", "_concrete")

    def __init__(self, roots: Optional[List[AVPair]] = None) -> None:
        self._roots: Tuple[AVPair, ...] = ()
        # canonical_key(), once taken; never cleared, and its presence
        # is the seal (see AVPair).
        self._key_cache: Optional[tuple] = None
        # The compact wire text and its UTF-8 size. Filled by
        # wire_size() and by the parser, each on a name it has just
        # keyed — so once set it is true forever — never by to_wire().
        self._wire_cache: Optional[Tuple[str, int]] = None
        # True once the name was found concrete, by a check that keyed
        # it first. A service's name is checked where it is advertised
        # and again at every resolver that grafts it.
        self._concrete = False
        for root in roots or []:
            self.add_pair(root)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_pair(self, pair: AVPair) -> AVPair:
        """Attach a top-level av-pair; returns it.

        Raises :class:`DuplicateAttributeError` if the attribute is
        already classified at the top level, :class:`SealedNameError`
        once the name's canonical key has been taken.
        """
        if self._key_cache is not None:
            raise SealedNameError(f"{self!r} is keyed: edit a copy()")
        roots = self._roots
        if pair.attribute in map(_attribute_of, roots):
            raise duplicate_error(pair.attribute, None)
        self._roots = roots + (pair,)
        return pair

    @classmethod
    def from_dict(cls, spec: NestedDict) -> "NameSpecifier":
        """Build a name-specifier from a nested mapping (unchecked: keys are distinct).

        Each key is an attribute; each value is either the value string
        or a ``(value, children)`` tuple where ``children`` is another
        mapping of the same shape::

            NameSpecifier.from_dict({
                "service": ("camera", {"entity": "transmitter", "id": "a"}),
                "room": "510",
            })
        """
        name = cls()
        name._roots = tuple([cls._pair_from_dict(*item) for item in spec.items()])
        return name

    @staticmethod
    def _pair_from_dict(attribute: str, described: _DictValue) -> AVPair:
        if isinstance(described, str):
            return AVPair(attribute, described)
        value, children = described
        pair = AVPair(attribute, value)
        pair._children = tuple(
            [NameSpecifier._pair_from_dict(*item) for item in children.items()]
        )
        return pair

    @classmethod
    def parse(cls, text: str) -> "NameSpecifier":
        """Parse the wire representation (Figure 3). See :mod:`.parser`.

        The name comes back keyed, hence sealed, and with its wire text
        and size known too when ``text`` was the compact form."""
        return _parser.parse_name_specifier(text)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def root(self, attribute: str) -> Optional[AVPair]:
        """The top-level av-pair classifying ``attribute``, or None."""
        for pair in self._roots:
            if pair.attribute == attribute:
                return pair
        return None

    def walk(self) -> Iterator[AVPair]:
        """Yield every av-pair in the name, pre-order."""
        for pair in self._roots:
            yield from pair.walk()

    @property
    def is_empty(self) -> bool:
        """True for the empty name, which matches everything."""
        return not self._roots

    def _operator_pair(self) -> Optional[AVPair]:
        """The first av-pair, in the walk's order, whose value is a
        wild-card or range operator; None for a concrete name.

        "None" is remembered, so a concrete name is walked once, not
        once per holder that has to be sure. Iterative, with the
        operator test inlined: a miss is one walk on the advertisement
        ingestion path."""
        if self._concrete:
            return None
        stack = list(self._roots)
        while stack:
            pair = stack.pop()
            value = pair.value
            if value == "*" or (value and value[0] in "<>"):
                return pair
            stack.extend(pair._children)
        # Keyed, so that the verdict stays true; whoever asks goes on
        # to key the name anyway (to graft it, to size it).
        self.canonical_key()
        self._concrete = True
        return None

    def is_concrete(self) -> bool:
        """True when no value is a wild-card or range operator.

        Only concrete names may be advertised; operators belong in
        queries (Section 2.2 advertisements describe actual services).
        """
        return self._operator_pair() is None

    def require_concrete(self) -> "NameSpecifier":
        """Raise :class:`WildcardValueError` unless concrete; returns self."""
        pair = self._operator_pair()
        if pair is not None:
            raise WildcardValueError(
                f"advertisement value {pair.value!r} for attribute "
                f"{pair.attribute!r} is not a concrete literal"
            )
        return self

    def vspaces(self) -> Tuple[str, ...]:
        """The virtual spaces this name declares via the ``vspace``
        attribute, or ``(DEFAULT_VSPACE,)`` when it declares none.

        A name may belong to multiple vspaces by giving a child list,
        e.g. ``[vspace=camera-ne43]``; multiple vspace declarations are
        expressed as dependent children of the first (the top level only
        permits one ``vspace`` pair because siblings are orthogonal).
        """
        declared = self.root(VSPACE_ATTRIBUTE)
        if declared is None:
            return (DEFAULT_VSPACE,)
        names = [declared.value]
        names.extend(
            pair.value for pair in declared.walk() if pair is not declared
        )
        return tuple(names)

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def to_wire(self, pretty: bool = False) -> str:
        """Serialize to the bracketed wire representation (Figure 3).

        Iterative token emission into one list joined at the end: no
        per-subtree string concatenation (quadratic on deep names) and
        no recursion (deep names would blow the stack). Wire bytes are
        identical to the recursive formulation. The compact form is
        served from the cache :meth:`wire_size` and the parser fill.
        """
        if not pretty:
            cached = self._wire_cache
            if cached is not None:
                return cached[0]
        eq = " = " if pretty else "="
        out: List[str] = []
        append = out.append
        first_root = True
        # Stack items: an AVPair opens a bracket and schedules its
        # children; the two string sentinels emit themselves.
        for root in self._roots:
            if pretty and not first_root:
                append(" ")
            first_root = False
            stack: List[object] = [root]
            pop = stack.pop
            while stack:
                item = pop()
                if item.__class__ is str:
                    append(item)
                    continue
                append(f"[{item.attribute}{eq}{item.value}")
                stack.append("]")
                if pretty:
                    for child in item._children[::-1]:
                        stack.append(child)
                        stack.append(" ")
                else:
                    stack.extend(item._children[::-1])
        return "".join(out)

    def cached_wire(self) -> Optional[str]:
        """The compact wire text if this name is already sized (by the
        parser, or by :meth:`wire_size`); else None.

        Never walks the name: it is how a holder of some text asks "do
        you serialize to exactly this?" at the price of two reads."""
        cached = self._wire_cache
        return None if cached is None else cached[0]

    def wire_size(self) -> int:
        """Length in bytes of the compact wire representation.

        Kept with the wire text: a name is sized once, not once per
        message that carries it (every control message sizes its names
        at every send) — and sealed first, so the size stays true."""
        cached = self._wire_cache
        if cached is None:
            self.canonical_key()
            text = self.to_wire()
            cached = self._wire_cache = (text, len(text.encode("utf-8")))
        return cached[1]

    # ------------------------------------------------------------------
    # Equality / hashing (structural, order-insensitive among siblings)
    # ------------------------------------------------------------------
    def canonical_key(self) -> tuple:
        """A hashable key identifying the name up to sibling order.

        Computed once; taking it seals the name at every depth (see
        :meth:`AVPair.canonical_key`)."""
        cached = self._key_cache
        if cached is None:
            for pair in self._roots:
                pair.canonical_key()
            cached = self._key_cache = _sibling_key(self._roots)
        return cached

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NameSpecifier):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def copy(self) -> "NameSpecifier":
        """An unsealed deep copy of the name: how a name is edited."""
        name = NameSpecifier()
        name._roots = tuple([pair.copy() for pair in self._roots])
        return name

    def __repr__(self) -> str:
        return f"NameSpecifier({self.to_wire()!r})"

    def __str__(self) -> str:
        return self.to_wire()


# The parser module imports this one for the class, so it is bound here,
# once, as a module (whichever of the two is imported first): ``parse``
# runs twice per packet per INR, too often for a function-level import.
from . import parser as _parser  # noqa: E402
