"""Independent numerical verification of the theory: exact and
self-normalized sampling from the reward-tilted noise law, the pushforward
identity, the Gaussian integration-by-parts identity for vector fields, a
k-NN KL estimator, the data-processing inequality, and bi-Lipschitz audits.

Everything here is pure given (inputs, seed) and deliberately avoids the
autodiff machinery it is checking.
"""
from __future__ import annotations

import functools
import time
from concurrent.futures import Future
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Optional

import numpy as np

from . import rowblocks
from .generators import Generator, make_generator
from .hypernet import NoiseHypernetwork, init_hypernet
from .linalg import fd_columns
from .objectives import error_term, exact_noise_kl, theorem_bound
from .rewards import LinearReward, RednessReward, Reward


# the neighbor rank of the output fidelity and drift estimates
KNN_K = 5
# the fewest samples the moment checks accept, and the effective sample size
# below which a pushforward check is inconclusive
MIN_MOMENT_SAMPLES, MIN_ESS = 1000, 200.0


class SamplerError(RuntimeError):
    pass


@dataclass
class TiltedSampleSet:
    samples: np.ndarray       # (n, d)
    weights: np.ndarray       # (n,), self-normalized
    ess: float
    acceptance_rate: Optional[float] = None

    def mean(self) -> np.ndarray:
        return self.weights @ self.samples


# the first entry of every `_Normals` key and of every Stein trial's key: they
# keep the two apart, and apart from the keys (0,), (1,), ... of the
# SeedSequence(seed).spawn children other checks use
NORMALS_TAG = 0x6E6F726D
STEIN_TAG = 0x73746569


class _Normals:
    """Standard normal rows, `d` values a row, in the row blocks `blocks`
    (slices that cover rows 0..n-1 in order).  Reading x[blocks[i]] draws
    block i's rows from default_rng(SeedSequence(seed, spawn_key=
    (NORMALS_TAG, stream, i))), so a row depends on (seed, stream, its
    block) alone, whichever thread reads it, in whatever order and however
    often, and a pass over the blocks holds only the blocks being worked
    on.  Reading any other slice raises ValueError."""

    def __init__(self, seed: int, blocks: list[slice], d: int, stream: int):
        self._seed, self._d, self._stream = seed, d, stream
        self._index = {(rows.start, rows.stop, rows.step): i for i, rows in enumerate(blocks)}
        self._n = blocks[-1].stop

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, rows: slice) -> np.ndarray:
        i = self._index.get((rows.start, rows.stop, rows.step))
        if i is None:
            raise ValueError(f"{rows!r} is not a row block of this draw")
        key = np.random.SeedSequence(self._seed, spawn_key=(NORMALS_TAG, self._stream, i))
        return np.random.default_rng(key).standard_normal((rows.stop - rows.start, self._d))


def _streamed_moments(g: Generator, x: np.ndarray, w: np.ndarray):
    """Weighted mean and second moment of the outputs y_i = g(x_i), with
    their SNIS standard errors sqrt(sum_i w_i^2 (v_i - m)^2), v_i being y_i
    or y_i^2 (the plain formula for uniform w).  The outputs are generated
    one row block at a time, so only a block's outputs exist at once.

    Each block writes its own partial sums (sum w v, and about the block's
    w^2-weighted centre c_b: S0_b = sum w^2 and M2_b = sum w^2 (v - c_b)^2),
    which are added in block order afterwards, so the bits do not depend on
    the workers.  The errors merge as sum_b [M2_b + S0_b (c_b - m)^2]
    (Chan, Golub & LeVeque 1979), never as E[v^2] - m^2, which cancels."""
    blocks = rowblocks.row_blocks(len(x), g.output_dim)
    at = {rows.start: i for i, rows in enumerate(blocks)}
    # per block: sum w y, sum w y^2, their centres, their M2s, S0
    parts = np.empty((len(blocks), 7, g.output_dim))

    def block(rows):
        y = g.generate(x[rows])
        part, wb = parts[at[rows.start]], w[rows]
        w2 = wb * wb
        s0 = w2.sum()
        v = np.multiply(y, y)
        for j, vj in enumerate((y, v)):
            part[j] = wb @ vj
            # a block whose weights all underflow to 0 adds nothing
            part[2 + j] = w2 @ vj / s0 if s0 > 0 else 0.0
        v -= part[3]
        np.square(v, out=v)
        part[5] = w2 @ v
        np.subtract(y, part[2], out=v)
        np.square(v, out=v)
        part[4] = w2 @ v
        part[6] = s0
    rowblocks.run_blocks(block, blocks)
    moments = functools.reduce(np.add, parts[:, :2])
    se = np.sqrt(functools.reduce(
        np.add, (part[4:6] + part[6] * (part[2:4] - moments) ** 2 for part in parts)))
    return moments[0], moments[1], se[0], se[1]


def reward_values(g: Generator, r: Reward, x: np.ndarray, steps: int = 1) -> np.ndarray:
    """r(g(x)) at `steps` generation steps per row of `x`, one row block at
    a time, so only a block's outputs exist at once; the same bits as
    r.evaluate_batch(g.generate(x, steps=steps)) (but see
    rowblocks.MIN_BLOCK_ROWS)."""
    out = np.empty(len(x))

    def block(rows):
        out[rows] = r.evaluate_batch(g.generate(x[rows], steps=steps))
    rowblocks.run_blocks(block, rowblocks.row_blocks(len(x), g.output_dim))
    return out


def _snis_weights(logw: np.ndarray) -> tuple[np.ndarray, float]:
    """Self-normalized weights of log-weights `logw`, computed in its
    buffer (which they then are), and the ESS."""
    logw -= logw.max()
    w = np.exp(logw, out=logw)
    w /= w.sum()
    return w, 1.0 / float(np.sum(w * w))


def sample_tilted_noise(g: Generator, r: Reward, alpha: float, n: int, seed: int,
                        method: str = "snis",
                        envelope: Optional[float] = None) -> TiltedSampleSet:
    """Draw from the noise law proportional to p0(x) * exp(r(g(x)) / alpha).

    Rejection yields exact i.i.d. samples but needs a finite bound on
    sup r(g(x)); self-normalized importance sampling always applies and
    reports its effective sample size.

    SNIS draws its (n, d) normals in one call of default_rng(seed).
    Rejection runs rounds of max(n, 1024) candidates.  Round k (from 1)
    draws its log-uniforms whole from default_rng(seed), after those of
    the rounds before, and its normals as stream k of `_Normals(seed, ...)`
    over the round's row blocks.  In one pass over the blocks, each block
    draws its rows, scores them and keeps those with
    log u < (r(g(x)) - envelope) / alpha; the kept rows then fill the
    (n, d) samples in block order.  No round's normals are held whole.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    rng = np.random.default_rng(seed)
    d = g.latent_dim

    if method == "snis":
        x = rng.standard_normal((n, d))
        w, ess = _snis_weights(reward_values(g, r, x) / alpha)
        return TiltedSampleSet(x, w, ess)

    if method == "rejection":
        if envelope is None:
            if g.output_range is None:
                raise SamplerError(
                    "rejection sampling needs a declared envelope: the reward is "
                    "not known to be bounded on this generator's outputs")
            lo, hi = g.output_range
            envelope = r.upper_bound_on_box(lo, hi, g.output_dim)
            if envelope is None:
                raise SamplerError(
                    "rejection sampling needs a declared envelope: no box bound "
                    "is available for this reward")
        x = np.empty((n, d))
        got = drawn = 0     # rows accepted (also those past n) and drawn
        batch = max(n, 1024)
        blocks = rowblocks.row_blocks(batch, g.output_dim)
        logu = np.empty(batch)
        while got < n:
            normals = _Normals(seed, blocks, d, 1 + drawn // batch)
            np.log(rng.random(out=logu), out=logu)
            kept = {}

            def block(rows):
                xb = normals[rows]
                logp = r.evaluate_batch(g.generate(xb))
                logp -= envelope
                logp /= alpha
                kept[rows.start] = xb[logu[rows] < logp]
            rowblocks.run_blocks(block, blocks)
            for rows in blocks:
                accepted = kept[rows.start]
                if got < n:
                    x[got:got + len(accepted)] = accepted[:n - got]
                got += len(accepted)
            drawn += batch
            rate = got / drawn
            if drawn >= 50 * batch and rate < 1e-4:
                raise SamplerError(
                    f"rejection acceptance rate {rate:.2e} below 1e-4; "
                    "switch to method='snis'")
        w = np.full(n, 1.0 / n)
        return TiltedSampleSet(x, w, float(n), acceptance_rate=rate)

    raise ValueError(f"unknown sampling method {method!r}")


def _max_z(mean_gap, mean_se, second_gap, second_se) -> float:
    """The largest moment gap in standard errors; a zero error counts no gap."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.nanmax([
            np.max(np.abs(mean_gap) / np.where(mean_se > 0, mean_se, np.inf)),
            np.max(np.abs(second_gap) / np.where(second_se > 0, second_se, np.inf)),
        ]))


@dataclass
class MomentGapReport:
    mean_gap: np.ndarray
    mean_se: np.ndarray
    second_gap: np.ndarray
    second_se: np.ndarray
    max_z: float
    ess_sampler: float
    ess_reference: float
    inconclusive: bool


def pushforward_check(g: Generator, r: Reward, alpha: float, n: int, seed: int,
                      method: str = "snis") -> MomentGapReport:
    """Two independent routes to the tilted output moments must agree:
    (a) push tilted-noise samples through g, (b) importance-weight base
    outputs directly in output space.

    Both routes' outputs stream through row blocks, and at most one n-row
    draw is held at a time.  Route (b) runs first and holds no draw at all:
    its base noise is stream 0 of `_Normals(seed + 1, ...)` over the row
    blocks of its outputs, read once for the rewards and once more with the
    outputs for the moments; its weights are freed before route (a) draws
    its (n, d) tilted samples (sample_tilted_noise at `seed`)."""
    if n < MIN_MOMENT_SAMPLES:
        raise ValueError(f"need at least {MIN_MOMENT_SAMPLES} samples")
    x = _Normals(seed + 1, rowblocks.row_blocks(n, g.output_dim), g.latent_dim, 0)
    logw = reward_values(g, r, x)
    logw /= alpha
    w, ess_ref = _snis_weights(logw)
    mean_b, second_b, se_mb, se_sb = _streamed_moments(g, x, w)
    del logw, w

    tilted = sample_tilted_noise(g, r, alpha, n, seed, method=method)
    mean_a, second_a, se_ma, se_sa = _streamed_moments(g, tilted.samples, tilted.weights)

    mean_gap = mean_a - mean_b
    second_gap = second_a - second_b
    mean_se = np.sqrt(se_ma ** 2 + se_mb ** 2)
    second_se = np.sqrt(se_sa ** 2 + se_sb ** 2)
    return MomentGapReport(
        mean_gap=mean_gap, mean_se=mean_se,
        second_gap=second_gap, second_se=second_se,
        max_z=_max_z(mean_gap, mean_se, second_gap, second_se),
        ess_sampler=tilted.ess, ess_reference=ess_ref,
        inconclusive=bool(min(tilted.ess, ess_ref) < MIN_ESS),
    )


def exact_pushforward_z(g: Generator, tilted: TiltedSampleSet, mean: np.ndarray,
                        second: np.ndarray) -> float:
    """The largest gap, in standard errors, between the output moments of a
    tilted sample pushed through g (pushforward_check's route (a)) and
    exact ones, the closed form of the exact tilt's pushforward; unlike
    pushforward_check's two routes, this tells a wrong tilt from the
    right one even when both routes weight the same way."""
    m, s, se_m, se_s = _streamed_moments(g, tilted.samples, tilted.weights)
    return _max_z(m - mean, se_m, s - second, se_s)


def stein_check(f: Callable[[np.ndarray], np.ndarray], d: int, n: int,
                seed: int) -> tuple[float, float, float]:
    """E[x . f(x)] versus E[tr J_f(x)] for standard Gaussian x: both means,
    over the same x, and the standard error of their difference, the mean
    of the per-row differences x . f(x) - tr J_f(x).

    `f` must accept an (m, d) batch of any m and be row-wise: row i of its
    output depends on row i of its input alone.  It is evaluated one row
    block at a time, on rowblocks.WORKERS threads, so it must also be safe
    to call from several threads at once.  The Jacobian trace is estimated
    by central differences, which keeps this route independent of any
    reverse-mode machinery: entry j of `fd_columns`' column j, the only
    entry of it read, so no (B, d, d) Jacobian is built.  The Gaussian
    sample is stream 0 of `_Normals(seed, ...)` over rowblocks.row_blocks(n),
    each block drawing its own rows in the one pass.
    """
    if n < MIN_MOMENT_SAMPLES:
        raise ValueError(f"need at least {MIN_MOMENT_SAMPLES} samples")
    blocks = rowblocks.row_blocks(n)
    x = _Normals(seed, blocks, d, 0)
    lhs_terms = np.empty(n)
    trace_terms = np.empty(n)

    def block(rows):
        xb = x[rows]
        lhs_terms[rows] = np.sum(xb * f(xb), axis=1)
        # the diagonal summed in coordinate order (np.trace sums pairwise)
        trace_terms[rows] = sum(col[:, j] for j, col in enumerate(fd_columns(f, xb)))
    rowblocks.run_blocks(block, blocks)
    lhs = float(lhs_terms.mean())
    rhs = float(trace_terms.mean())
    se = float(np.sqrt((lhs_terms - trace_terms).var(ddof=1) / n))
    return lhs, rhs, se


def check_knn_points(n: int, purpose: str, k: int = KNN_K):
    """Raise ValueError("must be >= k + 1 <purpose>") unless sets of `n`
    points are enough for `kl_knn` at rank k: each point needs k others."""
    if n < k + 1:
        raise ValueError(f"must be >= {k + 1} {purpose}")


@functools.cache
def kd_tree() -> type:
    """scipy's cKDTree, imported on first use: scipy is the one dependency
    beyond numpy, and only kNN estimates need it.  A config whose run makes
    them calls this when it loads, so a missing scipy is a config error and
    the import is paid before the run starts.  Raises ImportError."""
    from scipy.spatial import cKDTree
    return cKDTree


def _knn_blocks(n: int, width: int) -> tuple[list[slice], int]:
    """Row blocks of kl_knn's rotations and distances over n rows `width`
    values wide, and the rows of the largest, which sets the scratch block
    that each of those steps holds.  A block holds an eighth of
    rowblocks.ROW_BLOCK's values (512 rows of 48), so that its temporaries
    stay a small part of even a 2000-row set."""
    blocks = rowblocks.row_blocks(n, 8 * width)
    return blocks, max(b.stop - b.start for b in blocks)


def _rotate_rows(x: np.ndarray, mean: np.ndarray, axes: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """(x - mean) @ axes into `out`, one row block at a time through one
    scratch block."""
    blocks, most = _knn_blocks(*x.shape)
    scratch = np.empty((most, x.shape[1]))
    for rows in blocks:
        np.matmul(np.subtract(x[rows], mean, out=scratch[:rows.stop - rows.start]), axes,
                  out=out[rows])
    return out


def _sq_distances(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """|x - p|^2 row by row, overwriting x: kl_knn's distance, by which it
    measures rho and nu and the products rank their candidates."""
    x -= p
    np.square(x, out=x)
    return x.sum(axis=1)


def _kth_by_products(p: np.ndarray, q: np.ndarray, mean: np.ndarray, k: int) -> np.ndarray:
    """Index of each p_i's k-th nearest row of q by kl_knn's distance, ties
    to the lower index.  Products |q_c|^2 - 2 p_c.q_c on both sets centred
    on Q's mean `mean` pick the candidates within `margin` of a row's k-th
    one, and those are ranked by the distance itself.  Q's centred copy and
    the blocks of products hold about Q's and P's sizes."""
    (n, width), m = p.shape, len(q)
    q_c = q - mean
    q_sq = np.einsum("ij,ij->i", q_c, q_c)
    reach = np.sqrt(q_sq.max())
    rows_per = max(1, n * width // (2 * m))
    buf = np.empty((2, rows_per, m))
    near = np.empty(n, dtype=np.intp)
    for first in range(0, n, rows_per):
        p_c = p[first:first + rows_per] - mean
        # with s = |p_c| + max |q_c| and u = eps / 2, the products are off by
        # gamma_(width+1) s^2, centring moves |p_c - q_c|^2 off |p - q|^2 by
        # 2u s^2 and kl_knn's sum is off by gamma_(width+2) s^2: (2 width + 5)
        # u s^2 to first order.  The k-th distance lies within twice that of
        # the k-th product; the margin doubles it again for the rest
        margin = 2.0 * (2 * width + 5) * np.finfo(np.float64).eps * (
            np.sqrt(np.einsum("ij,ij->i", p_c, p_c)) + reach) ** 2
        prod, kth = buf[0, :len(p_c)], buf[1, :len(p_c)]
        np.matmul(p_c * -2.0, q_c.T, out=prod)     # -2 p.q, exactly (a power of two)
        prod += q_sq
        np.copyto(kth, prod)
        kth.partition(k - 1, axis=1)
        kth = kth[:, k - 1] + margin
        row, col = np.divmod(np.flatnonzero(prod <= kth[:, None]), m)
        order = np.lexsort((col, _sq_distances(q[col], p[first + row]), row))
        counts = np.bincount(row, minlength=len(p_c))
        near[first:first + len(p_c)] = col[order[np.cumsum(counts) - counts + (k - 1)]]
    return near


def _principal_frame(x: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, ...]:
    """x's mean and principal axes (the eigenvectors of its centred
    scatter), and x centred and rotated into those axes in `out`."""
    mean = x.mean(axis=0)
    np.subtract(x, mean, out=out)
    axes = np.linalg.eigh(out.T @ out)[1]
    return mean, axes, _rotate_rows(x, mean, axes, out)


def _kth_neighbors(p: np.ndarray, q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Index of each p_i's k-th nearest neighbor among the other points of P
    and among Q.

    Each k-d tree is built over its own set, centred and rotated into that
    set's principal axes; P's self-query runs on a tree over P.  Q's query
    takes its route from P's mean in Q's axes: inside the bounding box of
    Q's rotated rows (every near set, and a direct fine-tune's drift set at
    step 0, 0.14-0.55 of whose rows lie outside it), a tree over Q answers,
    queried with P rotated into Q's axes; outside it (the drift sets from
    step 25 on, 99.2% and more of their rows outside), a tree on Q prunes
    little, so blocked products answer on the calling thread
    (_kth_by_products).  The trees query on rowblocks.cpu_share() workers.

    Each set is centred in the buffer it is rotated into, one row block at
    a time, and P's rotation into Q's axes reuses P's, so two rotated sets
    are the most either route holds; the products' route frees both first.
    Kept apart from kl_knn so they are freed before it measures distances."""
    tree, workers = kd_tree(), rowblocks.cpu_share()
    mean_p, _, p_rot = _principal_frame(p, np.empty_like(p))
    near_p = tree(p_rot).query(p_rot, k=[k + 1], workers=workers)[1][:, 0]  # not self
    mean, axes, q_rot = _principal_frame(q, np.empty_like(q))
    centre = (mean_p - mean) @ axes
    if np.all((q_rot.min(axis=0) <= centre) & (centre <= q_rot.max(axis=0))):
        p_rot = _rotate_rows(p, mean, axes, p_rot)
        return near_p, tree(q_rot).query(p_rot, k=[k], workers=workers)[1][:, 0]
    del p_rot, q_rot
    return near_p, _kth_by_products(p, q, mean, k)


def kl_knn(samples_p: np.ndarray, samples_q: np.ndarray, k: int = KNN_K, *,
           d: Optional[int] = None) -> float:
    """k-nearest-neighbor estimate of D(P || Q) from two sample sets.

    The Wang-Kulkarni-Verdu (2009) estimator: with n points from P, m from
    Q, rho_i the distance from p_i to its k-th nearest neighbor among the
    other points of P and nu_i to its k-th nearest neighbor in Q,

        D(P || Q) ~ (d / n) * sum_i log(nu_i / rho_i) + log(m / (n - 1)),

    d being the dimension of the set both laws live on: the sets' width by
    default, the latent's size for two pushforwards of a smaller latent
    (a decoder's outputs), as the neighbor volumes scale with the distance
    to the power of that dimension, not of the ambient one.

    Each k-d tree is built over its set centred on its own mean and
    rotated into its own principal axes, so that the tree's axis-aligned
    splits follow the directions the data spans (a decoder's outputs span
    only a few of their axes).  The trees only pick the neighbors: rho and
    nu are measured between the original points, so the estimate changes
    only where rounding in the rotated coordinates reorders two neighbors
    tied to within it.  When P's mean lies outside Q's bounding box in Q's
    axes (a direct fine-tune's drift once its outputs have collapsed),
    blocked products find each nu instead, as the k-th smallest of the very
    distances measured (_kth_neighbors).  The tree queries run on
    rowblocks.cpu_share() threads, the rest one row block at a time,
    without changing a bit of the result.  A zero distance (a duplicated
    point) makes it retry once on copies of both sets jittered by a fixed
    draw; one that persists raises ValueError.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    p = np.atleast_2d(np.asarray(samples_p, dtype=np.float64))
    q = np.atleast_2d(np.asarray(samples_q, dtype=np.float64))
    if p.shape[1] != q.shape[1]:
        raise ValueError("sample sets live in different dimensions")
    n, m = p.shape[0], q.shape[0]
    d = p.shape[1] if d is None else d
    if not 1 <= d <= p.shape[1]:
        raise ValueError(f"d must be in [1, {p.shape[1]}], got {d}")
    check_knn_points(min(n, m), "points in each set", k)
    for name, s in (("samples_p", p), ("samples_q", q)):
        if not np.all(np.isfinite(s)):
            raise ValueError(f"{name} contains non-finite values")
    for jittered in (False, True):
        near_p, near_q = _kth_neighbors(p, q, k)
        # |x[near] - p| one row block at a time through one buffer: the same
        # bits as np.linalg.norm(x[near] - p, axis=1) without its temporaries
        # ("clip" skips take's own buffering; every index is in range, as each
        # set holds more than k points)
        rho, nu = np.empty(n), np.empty(n)
        blocks, most = _knn_blocks(*p.shape)
        buf = np.empty((most, p.shape[1]))
        for rows in blocks:
            part = buf[:rows.stop - rows.start]
            for x, near, dist in ((p, near_p, rho), (q, near_q, nu)):
                np.take(x, near[rows], axis=0, out=part, mode="clip")
                np.sqrt(_sq_distances(part, p[rows]), out=dist[rows])
        if not (np.any(rho == 0.0) or np.any(nu == 0.0)):
            return float(d * np.mean(np.log(nu / rho)) + np.log(m / (n - 1)))
        if jittered:
            raise ValueError("duplicate points persist after jitter; cannot estimate")
        rng = np.random.default_rng(0)
        jitter = 1e-10 * max(1.0, float(np.abs(p).max()))
        p = p + jitter * rng.standard_normal(p.shape)
        q = q + jitter * rng.standard_normal(q.shape)


class Estimate:
    """A kl_knn estimate submitted to a KnnEvaluator.  float() of it waits
    for the estimate and returns it, or re-raises the error it raised."""

    def __init__(self, future: Future, wait: Callable[[], ContextManager]):
        self._future = future
        self._wait = wait

    def __float__(self) -> float:
        with self._wait():
            return self._future.result()


class KnnEvaluator:
    """Runs kl_knn estimates on min(2, rowblocks.WORKERS) background
    threads, so the caller can go on (training, say) while the k-d tree
    queries, which release the GIL, run beside it.

    `submit` starts its estimate and only then waits for the one submitted
    before it, so two estimates can run at once, each querying on its share
    of the CPUs (rowblocks.cpu_share()), and at most one is in flight when
    `submit` returns; the callers resolve their estimates in submission
    order.  On one thread, `submit` waits first: the new estimate could
    only queue behind the old.  An estimate's error is re-raised by the
    next `submit`, by `close` or by float() of it, whichever comes first,
    so errors surface in submission order: a `submit` that re-raises one
    first waits for the estimate it started and drops its result or error.
    Every wait runs inside `wait()`, so a caller can charge it to a phase.
    The threads are rowblocks.pool(threads)'s, started by the first
    estimate, and they call kl_knn through this module's global at call
    time, so a wrapper bound to `oracles.kl_knn` sees every estimate."""

    def __init__(self, wait: Callable[[], ContextManager] = nullcontext):
        self._wait = wait
        self._last: Optional[Estimate] = None
        self.estimates = 0
        self.threads = 0
        self._busy: list[float] = []     # each estimate's wall seconds in kl_knn

    @property
    def busy_s(self) -> float:
        """The threads' wall seconds inside kl_knn, summed over threads."""
        return sum(self._busy)

    def _estimate(self, p: np.ndarray, q: np.ndarray, options: dict) -> float:
        t0 = time.perf_counter()
        try:
            return kl_knn(p, q, **options)
        finally:
            self._busy.append(time.perf_counter() - t0)     # atomic, unlike +=

    def submit(self, samples_p: np.ndarray, samples_q: np.ndarray, **options) -> Estimate:
        """Start kl_knn(samples_p, samples_q, **options); the caller must
        not change either array until the estimate is resolved."""
        self.threads = min(2, rowblocks.WORKERS)
        if self.threads == 1:
            self.close()
        future = rowblocks.pool(self.threads).submit(self._estimate, samples_p, samples_q,
                                                     options)
        self.estimates += 1
        try:
            self.close()
        except BaseException:
            if not future.cancel():
                with self._wait():
                    future.exception()      # waits; drops its value or error
            raise
        self._last = Estimate(future, self._wait)
        return self._last

    def close(self):
        """Wait for the estimate in flight, if any, and re-raise its error."""
        last, self._last = self._last, None
        if last is not None:
            float(last)


def gaussian_shift_kl(shift: np.ndarray) -> float:
    """D(N(c, I) || N(0, I)) = ||c||^2 / 2."""
    c = np.asarray(shift, dtype=np.float64)
    return 0.5 * float(c @ c)


def affine_shift_kl(a: np.ndarray, mu: np.ndarray) -> float:
    """KL between the laws of a x + mu and a x, x ~ N(0, I); the pseudo-inverse
    of a a^T covers rank-deficient maps (projections)."""
    return 0.5 * float(mu @ np.linalg.pinv(a @ a.T) @ mu)


@dataclass
class DpiReport:
    kl_noise: float
    kl_output: float
    margin: float


def dpi_closed_form(hn: NoiseHypernetwork, g: Generator) -> DpiReport:
    """The data-processing inequality in closed form: a constant-shift
    network on an affine generator moves N(0, I) to N(c, I), and the outputs
    by A c."""
    if g.variant != "affine":
        raise ValueError("the closed form needs an affine generator")
    shift = hn.perturb(np.zeros(g.latent_dim))
    probe = hn.perturb(np.ones(g.latent_dim))
    if not np.allclose(shift, probe, atol=1e-12):
        raise ValueError("the closed form needs a constant-shift network")
    kl_noise = gaussian_shift_kl(shift)
    a = g.layers[0].weight
    kl_output = affine_shift_kl(a, a @ shift)
    return DpiReport(kl_noise, kl_output, kl_noise - kl_output)


def dpi_check(hn: NoiseHypernetwork, g: Generator, n: int, seed: int,
              k: int = KNN_K) -> DpiReport:
    """The generator cannot increase the KL between noise laws: both sides
    estimated by kl_knn from n draws each, the output side at the
    generator's manifold_dim."""
    rng_seed = np.random.SeedSequence(seed).spawn(2)
    rng_a = np.random.default_rng(rng_seed[0])
    rng_b = np.random.default_rng(rng_seed[1])
    x_mod = rng_a.standard_normal((n, g.latent_dim))
    x_mod = x_mod + hn.perturb(x_mod)
    x_base = rng_b.standard_normal((n, g.latent_dim))
    kl_noise = kl_knn(x_mod, x_base, k)
    kl_output = kl_knn(g.generate(x_mod), g.generate(x_base), k, d=g.manifold_dim)
    return DpiReport(kl_noise, kl_output, kl_noise - kl_output)


def bilipschitz_check(hn: NoiseHypernetwork, n_pairs: int, seed: int) -> tuple[float, float]:
    """Sampled distortion ratios of the residual transform x -> x + f(x)."""
    rng = np.random.default_rng(seed)
    d = hn.backbone.latent_dim
    x = rng.standard_normal((n_pairs, d))
    y = rng.standard_normal((n_pairs, d))
    tx = x + hn.perturb(x)
    ty = y + hn.perturb(y)
    num = np.linalg.norm(tx - ty, axis=1)
    den = np.linalg.norm(x - y, axis=1)
    mask = den > 0
    ratios = num[mask] / den[mask]
    return float(ratios.min()), float(ratios.max())


# ---------------------------------------------------------------------------
# Bundled theory suite
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    statistic: float
    tolerance: float
    status: str  # "pass", "fail", or "inconclusive"


@dataclass
class TheoryReport:
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name: str, statistic: float, tolerance: float,
            ok: bool, inconclusive: bool = False):
        status = "inconclusive" if inconclusive else ("pass" if ok else "fail")
        self.checks.append(CheckResult(name, float(statistic), float(tolerance), status))

    def all_pass(self) -> bool:
        return all(c.status == "pass" for c in self.checks)


def check_theory_scale(n: int):
    """Raise ValueError, led by the argument, unless `run_theory_suite` runs
    at sample size n (its kNN checks, at rank KNN_K, use n // 2 points a set)."""
    if n < MIN_MOMENT_SAMPLES:
        raise ValueError(f"n: must be >= {MIN_MOMENT_SAMPLES}, the smallest sample the "
                         "moment checks accept")


def run_theory_suite(n: int, seed: int = 0,
                     phase: Callable[[str], ContextManager] = lambda name: nullcontext()
                     ) -> TheoryReport:
    """Every theoretical claim exercised once at sample size n.  Each group
    of checks runs inside ``phase(group)``, so that a caller can time it."""
    check_theory_scale(n)
    report = TheoryReport()
    d = 4
    a = np.array([[1.0, 0.2, 0.0, 0.0],
                  [0.0, 0.8, 0.1, 0.0],
                  [0.0, 0.0, 1.1, 0.3],
                  [0.1, 0.0, 0.0, 0.9]])
    b = np.array([0.5, -0.2, 0.1, 0.0])
    c = np.array([0.8, -0.4, 0.2, 0.5])
    g_aff = make_generator({"variant": "affine", "latent_dim": d,
                            "matrix": a.tolist(), "bias": b.tolist()}, seed=seed)
    r_lin = LinearReward(c)

    # tilted sampler: mean of the tilted noise law is A^T c in closed form
    with phase("tilted_sampler"):
        tilted = sample_tilted_noise(g_aff, r_lin, 1.0, n, seed, method="snis")
        target = a.T @ c
        gap = float(np.linalg.norm(tilted.mean() - target))
        tol = 4.0 * float(np.linalg.norm(np.ones(d))) / np.sqrt(tilted.ess)
        report.add("tilted_sampler_mean", gap, tol, gap <= tol)

    # pushforward identity: on the affine/linear pair, the tilted draw pushed
    # through g against the closed form, the pushforward of the exact tilt
    # N(A^T c, I): mean A A^T c + b, second moment diag(A A^T) + mean^2; on
    # decoder/redness, the two routes of pushforward_check
    with phase("pushforward"):
        exact_mean = a @ target + b
        z = exact_pushforward_z(g_aff, tilted, exact_mean,
                                np.sum(a * a, axis=1) + exact_mean ** 2)
        report.add("pushforward_affine", z, 4.0, z <= 4.0, tilted.ess < MIN_ESS)
        del tilted
        g_dec = make_generator({"variant": "decoder", "latent_dim": 6, "height": 4,
                                "width": 4, "hidden": [16]}, seed=seed + 2)
        r_red = RednessReward(0.01)
        pf2 = pushforward_check(g_dec, r_red, 0.005, n, seed + 2, method="rejection")
        report.add("pushforward_decoder", pf2.max_z, 4.0, pf2.max_z <= 4.0,
                   pf2.inconclusive)

    # Gaussian integration-by-parts identity on random small-slope networks,
    # each trial keyed by (seed, trial), so suites at other seeds share none;
    # the folded network is the same map as hn.perturb to rounding, at a
    # third of its products
    with phase("stein"):
        worst = 0.0
        for trial in range(5):
            key = np.random.SeedSequence(seed, spawn_key=(STEIN_TAG, trial))
            g_seed, hn_seed, up_seed, x_seed = (int(v) for v in key.generate_state(4))
            g_mlp = make_generator({"variant": "mlp", "latent_dim": d, "output_dim": d,
                                    "hidden": [8]}, seed=g_seed)
            hn = init_hypernet(g_mlp, rank=2, alpha=2.0, seed=hn_seed)
            hn.randomize_adapters(up_seed)
            hn.set_lipschitz_budget(0.5)
            lhs, rhs, se = stein_check(hn.stack.merged().forward, d, n, x_seed)
            worst = max(worst, abs(lhs - rhs) / (4.0 * se))
        report.add("stein_identity", worst, 1.0, worst <= 1.0)

    # k-NN estimator ground truths
    with phase("knn"):
        rng = np.random.default_rng(seed + 40)
        est0 = kl_knn(rng.standard_normal((n // 2, 2)), rng.standard_normal((n // 2, 2)))
        report.add("knn_null", abs(est0), 0.05, abs(est0) <= 0.05)
        shift = np.array([1.0, 0.0])
        est1 = kl_knn(rng.standard_normal((n // 2, 2)) + shift,
                      rng.standard_normal((n // 2, 2)))
        report.add("knn_shift", abs(est1 - 0.5), 0.1, abs(est1 - 0.5) <= 0.1)

    # DPI: closed form on a projection generator, estimator on the MLP
    with phase("dpi"):
        g_proj = make_generator({"variant": "affine", "latent_dim": 3, "output_dim": 1,
                                 "matrix": [[1.0, 0.0, 0.0]], "bias": [0.0]}, seed=0)
        hn_c = init_hypernet(g_proj, rank=1, alpha=1.0, seed=0)
        cshift = np.array([0.6, 0.8, -0.5])
        hn_c.set_constant(cshift)
        dpi_cf = dpi_closed_form(hn_c, g_proj)
        expected_margin = 0.5 * float(cshift[1:] @ cshift[1:])
        report.add("dpi_closed_form", abs(dpi_cf.margin - expected_margin), 1e-12,
                   abs(dpi_cf.margin - expected_margin) <= 1e-12)
        g_mlp = make_generator({"variant": "mlp", "latent_dim": d, "output_dim": d,
                                "hidden": [8]}, seed=seed + 60)
        hn = init_hypernet(g_mlp, rank=2, alpha=2.0, seed=seed + 60)
        hn.randomize_adapters(seed + 61)
        hn.set_lipschitz_budget(0.4)
        dpi_est = dpi_check(hn, g_mlp, min(n, 8000), seed + 62)
        report.add("dpi_estimated", dpi_est.margin, -0.05, dpi_est.margin >= -0.05)

    # bi-Lipschitz distortion stays inside [1 - L, 1 + L]
    with phase("bilipschitz"):
        lo, hi = bilipschitz_check(hn, 2000, seed + 70)
        lip = hn.lipschitz_upper_bound()
        ok = (lo >= 1.0 - lip - 1e-9) and (hi <= 1.0 + lip + 1e-9)
        report.add("bilipschitz_band", max(1.0 - lip - lo, hi - (1.0 + lip)), 0.0, ok)

    # log-det error bound and the KL/L2 approximation on a budgeted network
    with phase("logdet"):
        rngx = np.random.default_rng(seed + 80)
        xs = rngx.standard_normal((50, d))
        bound = theorem_bound(d, lip)
        worst_err = float(np.max(np.abs(error_term(hn.jacobian_batch(xs)))))
        report.add("logdet_error_bound", worst_err, bound, worst_err <= bound)
        kb = exact_noise_kl(hn, xs[:20])
        report.add("kl_l2_approximation", abs(kb.approx_error), bound,
                   abs(kb.approx_error) <= bound)

    return report
