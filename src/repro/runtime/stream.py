"""Prefetch queue: the simulated copy stream of the data-prefetch optimization.

The paper's "Data Prefetch" optimization overlaps host-to-device copies of
the next mini-batch with compute on the current one by using a separate CUDA
stream.  The NumPy analogue is a background worker thread that prepares (and
"copies") the next batch while the main thread trains; :class:`PrefetchQueue`
implements that double-buffering.
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Iterable, Iterator

_SENTINEL = object()

#: Batches in flight: the paper's prefetch is double buffering, one ahead.
DEPTH = 1


class PrefetchQueue:
    """Double-buffered iterator: produces item ``i+1`` while ``i`` is consumed.

    Wraps any iterable whose items are expensive to build (graph batching,
    basis precomputation); at most :data:`DEPTH` items wait in flight.  A
    consumer that abandons the iteration (``close()``, a ``break``, an
    exception) stops the producer: closing waits for the item being built,
    then the worker exits and lets go of the source.

    Example
    -------
    >>> for batch in PrefetchQueue(loader):
    ...     trainer.train_step(batch)
    """

    def __init__(self, source: Iterable[Any]) -> None:
        self._source = source

    def __iter__(self) -> Iterator[Any]:
        q: "queue.Queue[Any]" = queue.Queue(maxsize=DEPTH)
        error: list[BaseException] = []
        stop = threading.Event()

        def produce() -> None:
            try:
                for item in self._source:
                    if stop.is_set():
                        break
                    q.put(item)
            except BaseException as exc:
                error.append(exc)
            finally:
                q.put(_SENTINEL)

        worker = threading.Thread(target=produce, daemon=True)
        worker.start()
        try:
            while (item := q.get()) is not _SENTINEL:
                yield item
        finally:
            # Unblock a producer waiting in ``put`` until it sees ``stop``.
            stop.set()
            while worker.is_alive():
                try:
                    q.get(timeout=0.01)
                except queue.Empty:
                    pass
        if error:
            raise RuntimeError("prefetch worker failed") from error[0]
