"""Profile hook of the reach census (``python -m tests.reach``).

Python imports ``sitecustomize`` at start-up from the first directory
on ``sys.path`` that has one. The census puts this directory first on
the ``PYTHONPATH`` of every run it starts, so each Python process of a
run loads the hook, the processes that run spawns included. When
``REPRO_REACH_OUT`` names a directory, the hook records the code object
of every Python function called in this process, and at exit writes
the ``(file, first line)`` of those under ``REPRO_REACH_ROOT`` to
``<pid>.txt`` in that directory, one tab-separated pair a line. Only
the main thread is hooked: no run starts a thread.
Without the variable this module does nothing.
"""

import atexit
import os
import sys

_OUT = os.environ.get("REPRO_REACH_OUT")

if _OUT:
    _ROOT = os.environ["REPRO_REACH_ROOT"]
    # keyed by id(): hashing a code object hashes its contents; the
    # value keeps the object alive so no id is reused
    _called = {}

    def _record(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            _called[id(code)] = code

    def _write():
        sys.setprofile(None)
        real = {}
        reached = set()
        for code in list(_called.values()):
            name = code.co_filename
            if name not in real:
                real[name] = os.path.realpath(name)
            if real[name].startswith(_ROOT):
                reached.add(f"{real[name]}\t{code.co_firstlineno}")
        path = os.path.join(_OUT, f"{os.getpid()}.txt")
        with open(path, "w", encoding="utf-8") as out:
            out.write("\n".join(sorted(reached)))

    atexit.register(_write)
    sys.setprofile(_record)
