"""Row blocks, the thread pool that runs them, and the kNN estimates' pool.

A row-wise map (row i of its result depends on row i of its input alone)
can be cut into blocks of rows and the blocks run side by side, each
writing only its own rows of arrays the caller made.  The theory suite's
large forward passes stream through `row_blocks`, and the training tape's
wide frozen layers split their batch with `even_blocks`; both run on
`run_blocks`.
"""
from __future__ import annotations

import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

# the CPUs this process may run on (a `taskset` mask narrows them); the k-d
# tree queries and the row blocks spread over all of them
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)
# rows per block of the streamed forward passes, up to 48 outputs a row: a
# 4096 x 48 decoder output is 1.5 MB, where the whole 100,000-row batch would
# be 38 MB.  Wider outputs get fewer rows, down to MIN_BLOCK_ROWS.
ROW_BLOCK = 4096
# the fewest rows a block may hold: OpenBLAS can take another path for a
# product of very few rows (one to four), whose last bits differ from the
# one-shot product's.  It also does for a block of up to a few hundred rows
# through a layer with a narrow output (16 or fewer units) and an inner
# dimension of 32 or more, which this floor does not prevent
MIN_BLOCK_ROWS = 64

# on a pool's own threads, `threads` is the size of that pool
_in_pool = threading.local()


def row_blocks(n: int, width: int = 1) -> list[slice]:
    """Slices that cover rows 0..n-1 in order for a map whose rows are
    `width` values wide: ROW_BLOCK rows each up to 48 values, fewer for
    wider rows, never below MIN_BLOCK_ROWS (64 rows of a 3072-value
    output); a tail shorter than MIN_BLOCK_ROWS joins the block before it.

    A row-wise map evaluated block by block gives the same bits as one call
    on all n rows (but see MIN_BLOCK_ROWS), and its temporaries stay small
    enough for the cache."""
    rows = max(MIN_BLOCK_ROWS, min(ROW_BLOCK, ROW_BLOCK * 48 // width))
    starts = list(range(0, n, rows))
    if len(starts) > 1 and n - starts[-1] < MIN_BLOCK_ROWS:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def even_blocks(n: int) -> list[slice]:
    """Slices that cover rows 0..n-1 in order, one per worker but none
    shorter than MIN_BLOCK_ROWS, of sizes that differ by at most one row;
    [slice(None)] when that leaves one block."""
    k = min(WORKERS, n // MIN_BLOCK_ROWS)
    if k <= 1:
        return [slice(None)]
    starts = [i * n // k for i in range(k)]
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def run_blocks(fn: Callable[[slice], None], blocks: list[slice]) -> None:
    """Call fn(rows) for every slice of `blocks`, on WORKERS threads; an
    exception raised in any block is raised here.  The blocks run serially,
    in order, when there is one worker or one block, and when the caller
    is itself a pool thread: a block that waited on blocks queued behind it
    could wait forever.

    Each call must write only its own rows, so the result has the same bits
    however the blocks are scheduled."""
    if WORKERS == 1 or len(blocks) == 1 or hasattr(_in_pool, "threads"):
        for rows in blocks:
            fn(rows)
        return
    for _ in pool(WORKERS, "blocks").map(fn, blocks):
        pass


def cpu_share() -> int:
    """The workers a call that spreads over threads of its own (a k-d tree
    query) may use: WORKERS, or on a thread of a pool its even share of
    them, at least one; so each of two estimates running at once on
    KnnEvaluator's threads queries on max(1, WORKERS // 2)."""
    return max(1, WORKERS // getattr(_in_pool, "threads", 1))


def _mark_pool_thread(threads: int):
    _in_pool.threads = threads


@functools.cache
def pool(workers: int, task: str = "estimates") -> ThreadPoolExecutor:
    """`workers` threads for one kind of task, kept for the life of the
    process: making them anew costs about 0.3 ms a call, as much as a cheap
    map's whole pass.  run_blocks maps its blocks onto pool(WORKERS,
    "blocks"); the oracles' KnnEvaluator runs its estimates on
    pool(min(2, WORKERS)), started by its first estimate.  No thread serves
    both, so a blocked training layer never queues behind an estimate."""
    return ThreadPoolExecutor(workers, thread_name_prefix=f"noisetilt-{task}",
                              initializer=_mark_pool_thread, initargs=(workers,))
