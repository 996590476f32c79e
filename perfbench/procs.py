"""Child interpreters the benchmark starts, and how they are stopped.

Every measured pass, set-up sample and input-generation worker runs in
a fresh interpreter started with :mod:`subprocess`.  The harness talks
to it over one socket pair with :mod:`multiprocessing.connection`
framing; no ``multiprocessing`` process is ever started here, so no
resource-tracker process is left to outlive the benchmark.

Each child runs in a process group of its own.  :class:`Child` waits
for the child when it ends normally, kills it when it does not, and on
every way out kills whatever is left in its group (the pool's workers,
when a pool child dies early) and reaps it, so nothing the benchmark
started survives it.  Messages are ``(kind, payload)`` pairs; a child
that raises sends ``("error", traceback)``.
"""

from __future__ import annotations

import ctypes
import importlib
import os
import signal
import subprocess
import sys
import time
import traceback
from multiprocessing.connection import Connection, Pipe, wait
from typing import Any, List, Sequence

#: a child that sends nothing for this long is treated as hung
CHILD_TIMEOUT_S = 150.0

#: how long killed processes get to disappear before the harness gives up
REAP_S = 10.0

#: run in the child: put the checkout and ``src`` first on the path,
#: then hand over to :func:`child_main`
_BOOT = (
    "import sys; sys.path[:0] = sys.argv[1:3]; "
    "from perfbench.procs import child_main; child_main(sys.argv[3:])"
)

_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants (Linux).

    A process left behind by a killed child is then re-parented here
    instead of to init, so :meth:`Child.close` can wait for it to end.
    """
    try:
        ctypes.CDLL(None).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: killed descendants go to init as usual


def stop_on_signals() -> None:
    """Turn SIGTERM and SIGHUP into ``SystemExit``, so every ``with
    Child(...)`` block still stops its child when the harness is told
    to stop."""

    def _exit(signum: int, _frame: Any) -> None:
        raise SystemExit(128 + signum)

    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, _exit)


class Child:
    """One child interpreter running ``module.function(conn, *args)``.

    ``started`` is the monotonic time just before the child was started;
    ``time.monotonic()`` in the child is on the same clock.
    """

    def __init__(self, module: str, function: str, *args: str) -> None:
        root = os.getcwd()
        self.conn, theirs = Pipe()
        self.started = time.monotonic()
        try:
            self.process = subprocess.Popen(
                [sys.executable, "-c", _BOOT, root, os.path.join(root, "src"),
                 str(theirs.fileno()), module, function, *args],
                pass_fds=(theirs.fileno(),),
                stdin=subprocess.DEVNULL,
                # the harness's stdout ends with its result line
                stdout=sys.stderr.fileno(),
                process_group=0,
            )
        except BaseException:
            self.conn.close()
            raise
        finally:
            theirs.close()

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, exc_type: Any, *_: Any) -> None:
        self.close(graceful=exc_type is None)

    def send(self, message: Any) -> None:
        self.conn.send(message)

    def receive(self) -> Any:
        """The child's next payload; raises if it fails, dies or hangs."""
        if not self.conn.poll(CHILD_TIMEOUT_S):
            raise RuntimeError(f"child sent nothing for {CHILD_TIMEOUT_S:.0f} s")
        try:
            kind, payload = self.conn.recv()
        except EOFError:
            code = self.process.wait(REAP_S)
            raise RuntimeError(f"child exited with code {code}") from None
        if kind == "error":
            raise RuntimeError("child failed:\n" + payload)
        return payload

    def close(self, graceful: bool) -> None:
        """Stop the child and everything left in its process group.

        ``graceful``: the child has been told it is done, so give it
        time to exit on its own before it is killed.
        """
        self.conn.close()
        if graceful:
            try:
                self.process.wait(CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        group = self.process.pid
        _kill_group(group)
        self.process.wait()
        _reap_group(group)


def _kill_group(group: int) -> None:
    try:
        os.killpg(group, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_group(group: int) -> None:
    """Wait until no process of ``group`` is left, reaping adopted ones."""
    deadline = time.monotonic() + REAP_S
    while True:
        try:
            while os.waitpid(-group, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass  # none of the group is our child
        try:
            os.killpg(group, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            print(f"perfbench: processes of group {group} outlived SIGKILL", file=sys.stderr)
            return
        _kill_group(group)
        time.sleep(0.01)


def wait_any(children: Sequence[Child]) -> List[Child]:
    """The children with a message waiting; raises if none has one in time."""
    ready = wait([child.conn for child in children], CHILD_TIMEOUT_S)
    if not ready:
        raise RuntimeError(f"no child sent anything for {CHILD_TIMEOUT_S:.0f} s")
    return [child for child in children if child.conn in ready]


def child_main(argv: Sequence[str]) -> None:
    """Child side: run the target on the harness's end of the socket pair."""
    conn = Connection(int(argv[0]))
    try:
        target = getattr(importlib.import_module(argv[1]), argv[2])
        target(conn, *argv[3:])
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:
            pass  # the harness is gone
        raise
    finally:
        conn.close()
