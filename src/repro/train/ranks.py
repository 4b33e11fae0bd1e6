"""Rank executors: forked processes that run ranks of a training step.

A compiled :class:`~repro.train.distributed.DistributedTrainer` step in
which every rank replays a cached program runs its ranks at the same time.
With ``P = min(world_size, usable_cpus())`` processes, process ``p`` runs
the ranks ``r ≡ p (mod P)``: process 0 is the trainer's own, so rank 0
always runs there, and processes ``1 .. P-1`` are :func:`os.fork` copies of
it, made by :class:`RankExecutors`.

A fork sees the trainer as it was when it was forked.  Replicas, compilers
and the program cache's arena are private copy-on-write copies, so each
process replays on its own slab.  Every optimizer's slab is an anonymous
shared mapping (:class:`~repro.train.optimizer.Adam`), so a fork's replayed
gradients land in the slab the parent flushes, and the parent's Adam update
is what the fork binds on its next step.  A fork only replays: the trainer
sends it ranks only when every rank's program is cached and the cache has
not changed since the fork, and forks again otherwise.

A worker talks to the parent over two :func:`os.pipe` pairs, one each
way, in length-prefixed :mod:`pickle` frames (:class:`_Pipe`), which
imports nothing the trainer has not already imported.  One message per
process and step carries that process's ranks as
``(rank, shard, validate)``; the reply holds, per rank, the
``serve(rank, shard, validate)`` result or the exception it raised, which
the parent re-raises with the same type and the rank named.  A fork leaves
through :func:`os._exit`, so it runs none of the parent's ``atexit``
handlers or finalizers, and it leaves when its pipe reaches EOF, so it
cannot outlive the parent.

While forks are live, every process runs BLAS on one thread: the forks and
the parent each replay on their own CPU, and a BLAS thread pool per process
on the same CPUs oversubscribes them.  The parent's count is set to 1 from
:meth:`RankExecutors.fork` until :meth:`RankExecutors.close` restores it,
and the forks, made after it is set, inherit it.  The library is the
OpenBLAS NumPy loaded, found through its thread-count API
(:func:`blas_threads`); without one, nothing is pinned.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import os
import pickle
import sys
import traceback
import weakref
from typing import Callable, NamedTuple


def usable_cpus() -> int:
    """CPUs this process may run on; 1 off Linux, where forking a process
    that has imported NumPy is missing or unsafe."""
    if sys.platform != "linux" or not hasattr(os, "fork"):
        return 1
    return len(os.sched_getaffinity(0))


@functools.cache
def blas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """``(get, set)`` of the OpenBLAS thread count in this process, or ``None``.

    Found as threadpoolctl finds it: among the shared libraries mapped into
    the process, one whose file name names OpenBLAS and which exports a
    ``get_num_threads`` / ``set_num_threads`` pair under one of OpenBLAS's
    symbol prefixes (``scipy_openblas_*64_`` in NumPy's own wheels).
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in itertools.product(("scipy_openblas", "openblas"), ("64_", "")):
            names = (f"{prefix}_{op}_num_threads{suffix}" for op in ("get", "set"))
            get, put = (getattr(lib, name, None) for name in names)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


class _Pipe:
    """One end of a worker's link: it reads frames from one pipe and
    writes them to the other.  A frame is an 8-byte little-endian length
    and that many bytes of pickle; :meth:`recv` raises :class:`EOFError`
    once the other end has closed, :meth:`send` an :class:`OSError`."""

    def __init__(self, read_fd: int, write_fd: int) -> None:
        self._read_fd, self._write_fd = read_fd, write_fd

    def send(self, obj: object) -> None:
        data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        for frame in (len(data).to_bytes(8, "little"), data):  # no joined copy
            view = memoryview(frame)
            while view:
                view = view[os.write(self._write_fd, view) :]

    def recv(self) -> object:
        return pickle.loads(self._read(int.from_bytes(self._read(8), "little")))

    def _read(self, n: int) -> bytearray:
        """Exactly ``n`` bytes, read in place into one buffer."""
        data = bytearray(n)
        view, got = memoryview(data), 0
        while got < n:
            count = os.readv(self._read_fd, [view[got:]])
            if not count:
                raise EOFError
            got += count
        return data

    def close(self) -> None:
        for fd in (self._read_fd, self._write_fd):
            if fd >= 0:
                os.close(fd)
        self._read_fd = self._write_fd = -1


class _Raised(NamedTuple):
    """What a worker sends back for a rank that raised."""

    kind: type
    message: str
    trace: str


def _stop(workers: list[tuple[int, _Pipe]], owner: int, blas_saved: list[int]) -> None:
    """Ask every worker to exit, close its pipe and reap it, then give
    BLAS back the thread count ``blas_saved`` holds (if any).

    A no-op in any process but ``owner``: a fork inherits its parent's
    executors, and they are not its children.
    """
    if os.getpid() != owner:
        return
    for pid, conn in workers:
        try:
            conn.send(None)
        except OSError:  # the worker is gone already
            pass
        conn.close()
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    workers.clear()
    if blas_saved:
        _get, put = blas_threads()
        put(blas_saved.pop())


def _serve_forever(conn: _Pipe, serve: Callable) -> None:
    """A worker's loop: run the ranks of each request until EOF or ``None``."""
    status = 0
    try:
        while True:
            try:
                requests = conn.recv()
            except EOFError:
                break
            if requests is None:
                break
            replies = []
            for rank, batch, validate in requests:
                try:
                    replies.append((rank, serve(rank, batch, validate)))
                except Exception as exc:
                    # As the in-process loop, stop at the first failing rank.
                    replies.append((rank, _Raised(type(exc), str(exc), traceback.format_exc())))
                    break
            conn.send(replies)
    except BaseException:
        status = 1
    finally:
        os._exit(status)


class RankExecutors:
    """The forked processes ``1 .. P-1`` of one trainer.

    ``generation`` is the program-cache generation the workers were forked
    at (``None``: no workers).  The workers are stopped by :meth:`close`,
    before :meth:`fork` starts new ones, and when this object is collected;
    stopping them restores the BLAS thread count :meth:`fork` pinned.
    """

    def __init__(self, world_size: int) -> None:
        self.processes = min(world_size, usable_cpus())
        self.generation: int | None = None
        self._workers: list[tuple[int, _Pipe]] = []
        self._owner = os.getpid()
        self._busy: list[tuple[int, _Pipe]] = []
        # The parent's BLAS thread count while the workers pin it to 1.
        self._blas_saved: list[int] = []
        weakref.finalize(self, _stop, self._workers, self._owner, self._blas_saved)

    def fork(self, serve: Callable, generation: int) -> None:
        """Replace the workers with fresh forks of this process, each
        running ``serve(rank, shard, validate)`` for the ranks it is sent."""
        self.close()
        blas = blas_threads()
        if blas is not None and self.processes > 1:  # the forks inherit the 1
            get, put = blas
            self._blas_saved.append(get())
            put(1)
        for _ in range(1, self.processes):
            (down_r, down_w), (up_r, up_w) = os.pipe(), os.pipe()
            pid = os.fork()
            if pid == 0:
                # Only the parent may hold a worker's write end, or the
                # worker never reads EOF when the parent is gone.
                for _pid, sibling in self._workers:
                    sibling.close()
                os.close(down_w)
                os.close(up_r)
                _serve_forever(_Pipe(down_r, up_w), serve)
            os.close(down_r)
            os.close(up_w)
            self._workers.append((pid, _Pipe(up_r, down_w)))
        self.generation = generation

    def close(self) -> None:
        """Stop and reap every worker; BLAS gets its thread count back."""
        _stop(self._workers, self._owner, self._blas_saved)
        self._busy.clear()
        self.generation = None

    def submit(self, requests: list[tuple]) -> set[int]:
        """Send each ``(rank, shard, validate)`` to the process owning its
        rank; returns the ranks sent (those not owned by this process)."""
        by_process: dict[int, list[tuple]] = {}
        for request in requests:
            p = request[0] % self.processes
            if p:
                by_process.setdefault(p, []).append(request)
        for p, sent in by_process.items():
            pid, conn = worker = self._workers[p - 1]
            try:
                conn.send(sent)
            except OSError:
                self.close()
                raise RuntimeError(f"rank executor (pid {pid}) exited") from None
            self._busy.append(worker)
        return {request[0] for sent in by_process.values() for request in sent}

    def collect(self) -> list[tuple[int, object]]:
        """Every sent rank's reply as ``(rank, result)``, by rank; a rank
        that raised has the exception, re-made with its rank named, as its
        result.  A worker that died stops all of them and raises."""
        replies = []
        busy, self._busy = self._busy, []
        for pid, conn in busy:
            try:
                replies += conn.recv()
            except EOFError:
                self.close()
                raise RuntimeError(f"rank executor (pid {pid}) exited") from None
        out = []
        for rank, result in sorted(replies, key=lambda reply: reply[0]):
            if isinstance(result, _Raised):
                try:
                    error = result.kind(f"rank {rank}: {result.message}")
                except TypeError:  # a constructor that takes other arguments
                    error = RuntimeError(f"rank {rank}: {result.kind.__name__}: {result.message}")
                error.add_note(f"raised in the rank executor:\n{result.trace}")
                result = error
            out.append((rank, result))
        return out
