"""Corpus: the wire-surface export list the dispatch check reads."""

from .wire import Orphan, Ping, Pong, Tabled

__all__ = ["Orphan", "Ping", "Pong", "Tabled"]
