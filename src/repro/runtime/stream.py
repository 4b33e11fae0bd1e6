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


class PrefetchQueue:
    """Double-buffered iterator: produces item ``i+1`` while ``i`` is consumed.

    Wraps any iterable whose items are expensive to build (graph batching,
    basis precomputation).  ``depth`` controls how many batches may be in
    flight; the paper's prefetch is ``depth=1`` double buffering.

    Example
    -------
    >>> for batch in PrefetchQueue(loader, depth=1):
    ...     trainer.train_step(batch)
    """

    def __init__(self, source: Iterable[Any], depth: int = 1) -> None:
        if depth < 1:
            raise ValueError(f"prefetch depth must be >= 1, got {depth}")
        self._source = source
        self._depth = depth

    def __iter__(self) -> Iterator[Any]:
        q: "queue.Queue[Any]" = queue.Queue(maxsize=self._depth)
        error: list[BaseException] = []

        def produce() -> None:
            try:
                for item in self._source:
                    q.put(item)
            except BaseException as exc:
                error.append(exc)
            finally:
                q.put(_SENTINEL)

        worker = threading.Thread(target=produce, daemon=True)
        worker.start()
        while True:
            item = q.get()
            if item is _SENTINEL:
                break
            yield item
        worker.join(timeout=10)
        if error:
            raise RuntimeError("prefetch worker failed") from error[0]
