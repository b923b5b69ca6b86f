"""Corpus: silent exception handlers.

Never imported; scanned by tests/lint/test_corpus.py. Line numbers are
asserted — append, don't reorder.
"""


def dispatch(packet):
    try:
        packet.decode()
    except:                              # line 11: bare except
        return None


def refresh(record):
    try:
        record.touch()
    except Exception:                    # line 18: swallowed exception
        pass


# Compliant shapes must NOT be flagged:
def ok_handler(stats, record):
    try:
        record.touch()
    except Exception:
        stats.errors += 1
