"""The tape's row blocks: their layout, and a blocked layer that a pool
thread runs."""
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from noisetilt import autodiff as ad
from noisetilt import rowblocks
from test_autodiff import frozen_run

M = rowblocks.MIN_BLOCK_ROWS


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
def test_even_blocks_cover_each_row_once(workers, monkeypatch):
    monkeypatch.setattr(rowblocks, "WORKERS", workers)
    for n in range(6 * M + 3):
        blocks = rowblocks.even_blocks(n)
        if min(workers, n // M) <= 1:
            assert blocks == [slice(None)]
            continue
        assert len(blocks) == min(workers, n // M)
        assert np.array_equal(np.concatenate([np.arange(n)[s] for s in blocks]),
                              np.arange(n))
        sizes = [s.stop - s.start for s in blocks]
        assert min(sizes) >= M and max(sizes) - min(sizes) <= 1


def test_blocked_layer_in_pool_blocks_runs_serially(monkeypatch):
    # both pool threads run a wide layer at once; had either handed its
    # blocks to the pool, it would wait on blocks queued behind it
    monkeypatch.setattr(rowblocks, "WORKERS", 2)
    rng = np.random.default_rng(20)
    w, b = rng.standard_normal((3072, 256)) / 16.0, rng.standard_normal(3072)
    x0, seed = rng.standard_normal((128, 256)), rng.standard_normal((128, 3072))
    e0 = rng.standard_normal(seed.shape)
    got, dispatched = {}, []
    run_blocks = rowblocks.run_blocks

    def spy(fn, blocks):
        dispatched.append(len(blocks))
        run_blocks(fn, blocks)

    def block(rows):
        got[rows.start] = frozen_run("sigmoid", w, b, x0, e0, seed)
    monkeypatch.setattr(rowblocks, "run_blocks", spy)
    with ThreadPoolExecutor(1) as runner:
        runner.submit(rowblocks.run_blocks, block, [slice(0, 1), slice(1, 2)]).result(timeout=120)
    # the two outer blocks, then each layer's forward, x vjp and adapter vjp
    assert dispatched == [2] * 7
    monkeypatch.setattr(rowblocks, "WORKERS", 1)
    want = frozen_run("sigmoid", w, b, x0, e0, seed)
    for start in (0, 1):
        assert all(np.array_equal(g, v) for g, v in zip(got[start], want)), start



@pytest.mark.parametrize("n_in, n_out", [(1024, 1), (1, 1024)])
def test_layer_with_a_one_unit_side_stays_whole(n_in, n_out, monkeypatch):
    # a 2 x 2048-row split of these changes the last bits of the value or
    # of the input gradient (OpenBLAS's matrix-vector path)
    monkeypatch.setattr(rowblocks, "WORKERS", 2)
    dispatched = []
    run_blocks = rowblocks.run_blocks
    monkeypatch.setattr(rowblocks, "run_blocks",
                        lambda fn, blocks: dispatched.append(blocks) or run_blocks(fn, blocks))
    rng = np.random.default_rng(22)
    w = rng.standard_normal((n_out, n_in))
    frozen_run("tanh", w, np.zeros(n_out), rng.standard_normal((4096, n_in)), None,
               rng.standard_normal((4096, n_out)))
    assert dispatched == [[slice(None)]] * 2


def test_blocked_layer_under_frequent_thread_switches(monkeypatch):
    # more workers than CPUs, switching threads as often as the interpreter
    # allows, from a thread that holds an arena: a block that wrote another
    # block's rows or took one of the arena's buffers would change the bits
    rng = np.random.default_rng(23)
    w, b = rng.standard_normal((512, 96)) / 10.0, rng.standard_normal(512)
    x0, seed = rng.standard_normal((1000, 96)), rng.standard_normal((1000, 512))
    e0 = rng.standard_normal(seed.shape)
    monkeypatch.setattr(rowblocks, "WORKERS", 1)
    want = frozen_run("silu", w, b, x0, e0, seed)
    monkeypatch.setattr(rowblocks, "WORKERS", 4 * len(os.sched_getaffinity(0)) + 1)
    assert len(rowblocks.even_blocks(1000)) == min(rowblocks.WORKERS, 1000 // M)

    def step():
        with ad.Arena():
            return frozen_run("silu", w, b, x0, e0, seed)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(1) as runner:
            got = [runner.submit(step).result(timeout=120) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    for run in got:
        assert all(np.array_equal(g, v) for g, v in zip(run, want))
