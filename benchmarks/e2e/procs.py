"""Launching the system under test and reading what the kernel knows about it."""

from __future__ import annotations

import os
import signal
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

_TICK = os.sysconf("SC_CLK_TCK")


@dataclass(frozen=True)
class Finished:
    """One completed process: wall time from launch to reaping, and the
    rusage the kernel returned for it."""

    argv: tuple[str, ...]
    pid: int
    launched: float  # CLOCK_MONOTONIC at launch
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    returncode: int
    stdout: str
    stderr: str

    @property
    def ended(self) -> float:
        return self.launched + self.wall_s


def run(
    argv: list[str],
    env: dict[str, str],
    cwd: Path,
    timeout: float,
    pass_launch_time: bool = False,
) -> Finished:
    """Run ``argv`` to completion; ``os.wait4`` reaps it so its own CPU
    time and peak RSS are known.  A process that outlives ``timeout`` is
    killed (and reported with the signal's negative return code).
    ``pass_launch_time`` hands the launch timestamp to a traced process
    as ``E2E_LAUNCH_T``."""
    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        launched = time.monotonic()
        if pass_launch_time:
            env = dict(env, E2E_LAUNCH_T=repr(launched))
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            ended = time.monotonic()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = (f.read().decode("utf-8", "replace") for f in (out, err))
    return Finished(
        argv=tuple(argv),
        pid=proc.pid,
        launched=launched,
        wall_s=ended - launched,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        stdout=stdout,
        stderr=stderr,
    )


class Service:
    """A ``dsspy serve`` subprocess that publishes its port in a file."""

    def __init__(self, argv: list[str], env: dict[str, str], cwd: Path, timeout: float = 60.0):
        self.port_file = Path(tempfile.mkdtemp(dir=cwd)) / "port"
        self.log_path = self.port_file.with_name("serve.log")
        started = time.monotonic()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [*argv, "--port", "0", "--port-file", str(self.port_file)],
                env=env,
                cwd=cwd,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        deadline = started + timeout
        while True:
            text = self.port_file.read_text().strip() if self.port_file.exists() else ""
            if text:
                break
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"dsspy serve did not come up: {self.log_path.read_text()}")
            time.sleep(0.01)
        self.address = f"127.0.0.1:{text}"

    def stop(self, timeout: float = 30.0) -> int:
        """SIGTERM (the daemon finalizes its sessions and exits), SIGKILL
        past ``timeout``; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        return self.proc.returncode

    def workers(self) -> list[int]:
        """Pids of the processes this service spawned (fleet workers)."""
        return children(self.proc.pid)


def children(pid: int) -> list[int]:
    out: list[int] = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            out += [int(p) for p in (task / "children").read_text().split()]
        except OSError:
            continue
    return sorted(out)


def cpu_s(pid: int) -> float:
    """User+system CPU seconds the process has used so far."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise ValueError(f"no VmHWM for pid {pid}")
