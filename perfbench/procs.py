"""Child processes of the benchmark: the ``owse fixture`` server and
one-shot ``owse`` CLI calls.

Every child is reaped with ``os.wait4`` so its CPU time and peak RSS are
known. CLI calls go through a small launcher process (``serve``), and every
child still running when the benchmark leaves a
``Children`` block (normally, by an exception or by a signal turned into
one) is killed and reaped.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Reaped:
    code: int  # exit code, or -signal
    wall_s: float
    cpu_s: float  # user + system
    maxrss_mb: float
    stdout: str = ""


def _reap(proc: subprocess.Popen, timeout: float | None = None) -> tuple[int, float, float]:
    """wait4 on ``proc``: (exit code, cpu seconds, peak RSS in MB).

    With a timeout, a child that has not exited by then is killed first.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, 0 if deadline is None else os.WNOHANG)
        if pid:
            break
        if time.monotonic() >= deadline:
            proc.kill()
            deadline = None
        else:
            time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)  # Popen must not wait again
    return proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def _run_child(argv: list[str], timeout: float) -> dict:
    started = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL)
    try:
        with proc.stdout:
            out = proc.stdout.read()
    finally:
        code, cpu, rss = _reap(proc, timeout)
    wall = time.perf_counter() - started
    return {"code": code, "wall_s": wall, "cpu_s": cpu, "maxrss_mb": rss, "stdout": out.decode("utf-8", "replace")}


def serve() -> None:
    """Launcher loop: one JSON request per stdin line, one JSON reply each.

    A child's peak RSS starts from the RSS of the process that forked it,
    so CLI children are started from this small process rather than from
    the benchmark, which holds generated sites and indexes.
    """
    for line in sys.stdin:
        request = json.loads(line)
        reply = _run_child([sys.executable, *request["argv"]], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


class Children:
    """Registry of running children; leaving the block stops them all."""

    def __init__(self, root: Path):
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.cwd = root
        self.live: set[subprocess.Popen] = set()
        self._launcher: subprocess.Popen | None = None

    def __enter__(self) -> "Children":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._launcher is not None:
            self._launcher.stdin.close()  # the launcher exits at end of input
            self.reap(self._launcher, timeout=10)
            self._launcher.stdout.close()
            try:  # a CLI child left behind by a killed launcher
                os.killpg(self._launcher.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for proc in list(self.live):
            proc.kill()
            self.reap(proc, timeout=5)

    def spawn(self, args: list[str], stdout, stderr=subprocess.DEVNULL, **kwargs) -> subprocess.Popen:
        kwargs.setdefault("stdin", subprocess.DEVNULL)
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=stdout, stderr=stderr, env=self.env, cwd=self.cwd, **kwargs
        )
        self.live.add(proc)
        return proc

    def reap(self, proc: subprocess.Popen, timeout: float | None = None) -> tuple[int, float, float]:
        if proc.returncode is None:
            result = _reap(proc, timeout)
        else:  # already reaped by Popen.poll
            result = (proc.returncode, 0.0, 0.0)
        self.live.discard(proc)  # only once reaped: an interrupted reap leaves it to __exit__
        return result

    def run(self, args: list[str], timeout: float = 60.0) -> Reaped:
        """Run ``python <args>`` to completion through the launcher, timed
        from spawn to reap."""
        if self._launcher is None:
            self._launcher = self.spawn(
                [str(Path(__file__).resolve())],
                subprocess.PIPE,
                stdin=subprocess.PIPE,
                text=True,
                start_new_session=True,
            )
        self._launcher.stdin.write(json.dumps({"argv": args, "timeout": timeout}) + "\n")
        self._launcher.stdin.flush()
        reply = self._launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the CLI launcher exited")
        return Reaped(**json.loads(reply))


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _accepts(port: int) -> bool:
    try:
        socket.create_connection(("127.0.0.1", port), timeout=0.5).close()
        return True
    except OSError:
        return False


class FixtureChild:
    """``python -m owse.cli fixture`` serving a webroot on a free port.

    ``--port`` must be >= 1, so a free port is picked first and the start
    is retried on another port when the child cannot bind it. Request
    lines go to ``log_path``, a file, so a full pipe cannot stall the
    server.
    """

    def __init__(self, children: Children, webroot: Path, log_path: Path, attempts: int = 5):
        self.children = children
        for _ in range(attempts):
            self.port = free_port()
            with open(log_path, "ab") as log:
                self.proc = children.spawn(
                    ["-m", "owse.cli", "fixture", "--port", str(self.port), "--root", str(webroot)],
                    log,
                    subprocess.STDOUT,
                )
            if self._wait_ready(timeout=30.0):
                return
            children.reap(self.proc, timeout=5)
        raise RuntimeError(f"owse fixture did not start after {attempts} attempts; see {log_path}")

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def _wait_ready(self, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                return False
            if _accepts(self.port):
                return True
            time.sleep(0.01)
        return False

    def stop(self) -> float:
        """Terminate the server and return its CPU seconds (user + system).

        SIGTERM, not SIGINT: a process started in the background of a
        non-interactive shell inherits SIGINT ignored."""
        self.proc.terminate()
        _, cpu, _ = self.children.reap(self.proc, timeout=5)
        return cpu


if __name__ == "__main__":
    serve()
