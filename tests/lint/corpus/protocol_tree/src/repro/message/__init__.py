"""Corpus: the wire-surface export list the dispatch check reads."""

from .wire import Bound, Orphan, Ping, Pong, Tabled

__all__ = ["Bound", "Orphan", "Ping", "Pong", "Tabled"]
