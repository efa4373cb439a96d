"""Drive a ``repro server`` process: spawn, prime, closed loop, stop.

The server runs as its own process, started the way an operator starts
it (``python -m repro server <config>``), so the load generator's GIL
never competes with the server's.  The generator uses one thread per
client (at most two) and one keep-alive ``FairHMSClient`` connection per
thread; every request is sent with ``retry=False`` and nothing sleeps
inside the timed loop.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from oracle import Record
from streams import ALPHA, Op

__all__ = ["ServerProcess", "child_env", "closed_loop", "connect", "prime", "send"]

_LISTENING = re.compile(r"listening on http://([^:\s]+):(\d+)")


def child_env(root: Path) -> dict:
    """The environment of a child interpreter that imports ``repro``."""
    env = dict(os.environ)
    paths = [str(Path(root) / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def connect(address):
    """A keep-alive SDK client that never retries."""
    from repro.client import FairHMSClient

    return FairHMSClient(address[0], address[1], timeout=30.0, retries=0)


def send(client, op: Op) -> dict:
    """One op through the SDK, without retries; returns the ``data`` body."""
    if op.kind == "query":
        constraint = op.wire_constraint()
        if constraint is None:
            return client.query(op.dataset, op.k, alpha=ALPHA, retry=False)
        return client.query(op.dataset, constraint=constraint, retry=False)
    if op.kind == "insert":
        return client.insert(op.dataset, op.key, op.point, op.group, retry=False)
    return client.delete(op.dataset, op.key, retry=False)


class ServerProcess:
    """``python -m repro server <config> --port 0`` as a child process.

    ``start()`` returns once the server prints its listening line;
    ``spawned`` and ``listening`` are the ``perf_counter`` stamps of the
    spawn and of that line.  ``stop()`` sends SIGTERM (the server drains)
    and waits for the exit, killing it if the drain hangs.
    """

    def __init__(self, root: Path, config: dict, workdir: Path) -> None:
        self.root = Path(root)
        self.config_path = Path(workdir) / "server.json"
        self.config_path.write_text(json.dumps(config))
        self.proc: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None
        self.spawned = self.listening = 0.0
        self._log: list[str] = []
        self._reader: threading.Thread | None = None

    def start(self, timeout: float = 60.0) -> tuple[str, int]:
        env = child_env(self.root)
        # A fixed hash seed fixes set and dict order, and with it the
        # allocation order: with a random one the server's peak RSS on
        # hot-read landed at 251 or 279 MiB depending on the seed drawn.
        env["PYTHONHASHSEED"] = "0"
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "server",
             str(self.config_path), "--port", "0"],
            cwd=self.root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        found = threading.Event()

        def pump() -> None:
            for line in self.proc.stdout:
                self._log.append(line.rstrip())
                match = _LISTENING.search(line)
                if match and not found.is_set():
                    self.listening = time.perf_counter()
                    self.address = (match.group(1), int(match.group(2)))
                    found.set()
            found.set()  # the server exited before listening

        self._reader = threading.Thread(target=pump, daemon=True)
        self._reader.start()
        if not found.wait(timeout) or self.address is None:
            self.stop()
            raise RuntimeError(
                "server did not start:\n" + "\n".join(self._log[-20:])
            )
        return self.address

    def peak_rss_mb(self) -> float | None:
        """The server's peak resident set (``VmHWM``) in MiB."""
        try:
            text = Path(f"/proc/{self.proc.pid}/status").read_text()
        except OSError:
            return None
        for line in text.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return None

    def stop(self, timeout: float = 30.0) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout)
        if self._reader is not None:
            self._reader.join(timeout)
        self.proc.stdout.close()
        self.proc = None


def prime(address, ops) -> None:
    """Send each priming op once and require it to succeed."""
    client = connect(address)
    try:
        for op in ops:
            send(client, op)
    finally:
        client.close()


def closed_loop(address, streams, seconds: float, *, spans=None) -> tuple[list, float]:
    """Run one closed-loop client thread per stream for ``seconds``.

    Each thread sends its next op only after the previous answer is
    parsed, and sends none after ``seconds``.  Returns ``(records per
    client, wall seconds)``.  With ``spans`` (a list) every op also
    appends a client span ``(name, start, end, parent, request_id)``.
    """
    clients = [connect(address) for _ in streams]
    logs: list[list[Record]] = [[] for _ in streams]
    began = time.perf_counter()
    deadline = began + seconds

    def worker(c: int) -> None:
        client, stream, log = clients[c], streams[c], logs[c]
        while time.perf_counter() < deadline:
            op = next(stream)
            t0 = time.perf_counter()
            try:
                answer, error = send(client, op), None
            except Exception as exc:  # noqa: BLE001 - a failed op is data
                answer, error = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            log.append(Record(op, t1 - t0, answer, error))
            if spans is not None:
                spans.append(
                    (f"client.{op.kind}", t0, t1, None, f"c{c}-{len(log)}")
                )

    threads = [
        threading.Thread(target=worker, args=(c,), daemon=True)
        for c in range(len(streams))
    ]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - began
    finally:
        for client in clients:
            client.close()
    return logs, wall
