"""Bernstein and Bernstein-Stancu operators on [0, 1].

The degree-n Bernstein operator blends samples of a function taken at the
equally spaced points k/n with binomial weights b_{n,k}(x). The Stancu
variant keeps the weights and shifts the sample points to
(k + alpha)/(n + beta) for shift parameters 0 <= alpha <= beta; alpha =
beta = 0 recovers the plain operator through the same code path.

Every result of this module is a pure function of its arguments; the
kept basis rows (below) change speed, never a bit. All evaluation goes
through ``evaluate``: one forward ratio recurrence over k (no explicit
binomial coefficients, so degrees in the hundreds stay exact to ~1e-13)
that adds f(t_k) b_{n,k}(x) to a running sum as it goes, so memory does
not depend on n: a grid's basis is held whole only where it repeats and
fits a fixed bound (kept rows, below). The basis depends on n and x
only, never on the shifts, so operators of one degree share one
recurrence: ``evaluate`` takes a tuple of them and updates the basis
once per step for all. Points x > 1/2 run the recurrence at 1 - x over
the node values in reverse, so it always starts from its
well-conditioned end and (1 - x)**n never underflows for the supported
degree range. The weights sit within a few sqrt(n x (1 - x)) of k = n x,
so the recurrence, stepped in k and vectorised across points, stops as
soon as no remaining term can change a bit of the running sum at any
point: the result is bit-identical to running all n steps, which a zero
running sum always does. A lone point is checked by two float
comparisons and sent to its endpoint value or to ``_point``, which runs
the same operations in the same order as two ufunc accumulates along k.
A grid is cut by ``np.searchsorted`` at its first x > 0, x > 1/2 and
x = 1, so its endpoints and halves are slices; points out of order are
sorted for that (stably) and their results put back once at the end.
The grid's non-empty halves are one stream's rows (``_stream``): the
basis is updated in place one step at a time, and a block of up to 16
steps ends with two ufunc calls, one forming its terms and one adding
them to the running sum in ascending k, the same roundings in the same
order. A block holds at most 17 sum rows: a ufunc accumulate along all
of k (column by column) was 5-10x slower. The layout of the last grid
array is remembered while the caller passes that array unchanged
(``_layout``); a sweep over the shifts at one degree repeats its stream,
so the layout keeps the basis rows from the degree's second sight (at
most 1 MiB a degree, 2 MiB a grid), read back instead of stepped (``_keep``).
Both read a cached ratio table per degree and the node values each
StancuParams keeps: a FunctionSpec is sampled unchecked (the nodes lie
in [0, 1]) at its node table, and the operator keeps those samples for
the last spec, by identity, applied to it.
"""

from __future__ import annotations

import math
import numbers
import weakref
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "BUILTIN_FUNCTIONS",
    "FunctionSpec",
    "SampledCurve",
    "StancuParams",
    "apply_operator",
    "apply_operator_curve",
    "evaluate",
    "moment_closed_form",
    "uniform_grid",
]

_BUILTIN_EVAL = {
    "e0": lambda t: np.ones_like(t),
    "e1": lambda t: np.array(t, copy=True),
    "e2": lambda t: t * t,
    "sin15": lambda t: np.sin(15.0 * t),
    "abshalf": lambda t: np.abs(t - 0.5),
}

BUILTIN_FUNCTIONS = tuple(sorted(_BUILTIN_EVAL))


def _as_unit_interval(x, what="x"):
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        raise ValueError(f"{what} is empty")
    if not (0.0 <= arr.min() and arr.max() <= 1.0):  # NaN fails both tests, +-inf one
        raise ValueError(f"{what} must lie in [0, 1]")
    return arr


@dataclass(frozen=True)
class FunctionSpec:
    """A named real-valued function on exactly [0, 1].

    Either a builtin analytic function (``e0``, ``e1``, ``e2``, ``sin15``
    for sin(15x), ``abshalf`` for |x - 1/2|), exactly when ``samples`` is
    None, or a tabulated one given by samples, evaluated with linear
    interpolation between them. Calling the spec outside [0, 1] raises
    ValueError.
    """

    name: str
    samples: tuple[tuple[float, float], ...] | None = None
    # read-only (abscissae, values) arrays built once from samples
    _table: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.samples is None:
            if self.name not in _BUILTIN_EVAL:
                raise ValueError(
                    f"unknown builtin function {self.name!r}; "
                    f"choose one of {', '.join(BUILTIN_FUNCTIONS)}"
                )
        elif len(self.samples) < 2:
            raise ValueError("tabulated functions need at least 2 samples")
        else:
            table = np.array(self.samples, dtype=float).T.copy()
            table.setflags(write=False)
            xs, ys = table
            if not np.isfinite(xs).all() or not np.isfinite(ys).all():
                raise ValueError("samples must be finite")
            if xs[0] != 0.0 or xs[-1] != 1.0:
                raise ValueError("sample abscissae must start at 0 and end at 1")
            if not (np.diff(xs) > 0.0).all():
                raise ValueError("sample abscissae must be strictly increasing")
            object.__setattr__(self, "_table", (xs, ys))

    @staticmethod
    def builtin(name: str) -> "FunctionSpec":
        return FunctionSpec(name=name)

    @staticmethod
    def tabulated(name, xs, ys) -> "FunctionSpec":
        """Build a piecewise-linear function from parallel abscissa/value arrays."""
        pts = tuple((float(a), float(b)) for a, b in zip(xs, ys, strict=True))
        return FunctionSpec(name=name, samples=pts)

    def __call__(self, x):
        arr = _as_unit_interval(x, what=f"argument of {self.name}")
        out = self._sample(arr)
        return float(out) if arr.ndim == 0 else out

    def _sample(self, t: np.ndarray) -> np.ndarray:
        """The values at float points t already known to lie in [0, 1], unchecked."""
        if self.samples is None:
            return _BUILTIN_EVAL[self.name](t)
        return np.interp(t, *self._table)


@dataclass(frozen=True)
class StancuParams:
    """Operator degree n >= 1 plus the real node shifts, 0 <= alpha <= beta, converted
    to an ``int`` and two floats: equal values give equal operators and results."""

    n: int
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise ValueError("n must be an integer")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        shifts = (self.alpha, self.beta)
        try:  # a shift that is not real, or is real beyond the float range, fails like inf
            a, b = (float(s) if isinstance(s, numbers.Real) else math.inf for s in shifts)
        except OverflowError:
            a = b = math.inf
        if not (math.isfinite(a) and math.isfinite(b)) or not (0.0 <= a <= b):
            raise ValueError("shift parameters must be finite and satisfy 0 <= alpha <= beta")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    def node_values(self) -> np.ndarray:
        """The n+1 sample points (k + alpha)/(n + beta), k = 0..n, read-only."""
        return self._nodes

    @cached_property
    def _nodes(self) -> np.ndarray:  # in __dict__, not a field: ==, hash, repr ignore it
        nodes = (np.arange(self.n + 1) + self.alpha) / (self.n + self.beta)
        nodes.setflags(write=False)
        return nodes

    def _sampled(self, f) -> np.ndarray:
        """f at the nodes as floats; kept read-only for the last FunctionSpec (by ``is``)."""
        if not isinstance(f, FunctionSpec):  # other callables may be impure: never kept
            return np.asarray(f(self.node_values()), dtype=float)
        memo = vars(self).get("_memo")
        if memo is None or memo[0] is not f:  # not ==: that equates 0.0 and -0.0 samples
            # No range check: t_0 = alpha/(n + beta) >= 0, and rounding is
            # monotone, so fl(k + alpha) <= fl(n + alpha) <= fl(n + beta): t_k <= 1.
            fn = f._sample(self._nodes)  # a new float array
            fn.setflags(write=False)
            vars(self)["_memo"] = memo = (f, fn)
        return memo[1]

    def __getstate__(self):  # copies and pickles build their own read-only tables
        return {k: v for k, v in vars(self).items() if k not in ("_nodes", "_memo")}

    def displacement_bound(self) -> float:
        """(alpha + beta)/(n + beta), which no node's distance from k/n exceeds.

        Split into two quotients only where alpha + beta overflows, so the
        bound stays finite (about 2 for shifts near the float maximum).
        """
        d = self.n + self.beta
        s = self.alpha + self.beta
        return s / d if math.isfinite(s) else self.alpha / d + self.beta / d


def uniform_grid(size: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """numpy's ``linspace(0, 1, size)[start:stop]``, bit for bit, for size >= 2.

    The one uniform-grid formula: x_i = i * (1/(size - 1)), with the last
    point exactly 1. A slice costs only its own points, so a large grid
    can be built one block at a time.
    """
    if not isinstance(size, (int, np.integer)) or isinstance(size, bool) or size < 2:
        raise ValueError(f"grid size must be an integer >= 2, got {size!r}")
    start, stop, _ = slice(start, stop).indices(size)
    xs = np.arange(start, stop) * (1.0 / (size - 1))
    if stop == size > start:
        xs[-1] = 1.0
    return xs


@lru_cache(maxsize=4)
def _shared_grid(size: int) -> np.ndarray:
    """``uniform_grid(size)``, one read-only array per size: its callers share its layout."""
    grid = uniform_grid(size)
    grid.setflags(write=False)
    return grid


@dataclass(frozen=True, eq=False)
class SampledCurve:
    """Function values over a uniform grid on [0, 1], endpoints included."""

    grid: np.ndarray
    values: np.ndarray


_TINY = np.finfo(float).tiny  # 2**-1022, the smallest normal float
_TOO_LARGE = "degree n={} too large for float64 basis recurrence"
_CHECK_EVERY = 4
_BLOCK = 16  # steps per block of ``_stream``...
_BLOCK_BYTES = 2**20  # ...if their basis rows and one more sum rows fit in this many bytes


def _block_steps(n: int, b: np.ndarray, acc: np.ndarray) -> int:
    """Steps per block of ``_stream`` over basis row b and running sum acc.

    ``_BLOCK`` (at most n) when that many rows of b and one more of acc fit in
    ``_BLOCK_BYTES``, else 1; always 1 for a one-element sum, whose (K+1)-row
    reduction would run along memory, where numpy sums pairwise.
    """
    fits = _BLOCK * b.nbytes + (_BLOCK + 1) * acc.nbytes <= _BLOCK_BYTES
    return min(_BLOCK, n) if fits and acc.size > 1 else 1


@lru_cache(maxsize=16)
def _ratios(n: int) -> tuple[np.ndarray, tuple[tuple[float, np.ndarray], ...]]:
    """The step ratios (n - k)/(k + 1), k = 0..n-1, read-only, and each as a
    float and as a 0-d view (which np.multiply takes without converting it)."""
    ratios = np.arange(float(n), 0.0, -1.0) / np.arange(1.0, n + 1)
    ratios.setflags(write=False)
    return ratios, tuple(zip(ratios.tolist(), [ratios[k, ...] for k in range(n)]))


def _keep(kept: dict, n: int, u: np.ndarray) -> None:
    """After a stream of u at degree n that read no kept rows: record n in kept, the
    degree -> rows dict of u's grid layout, at its first sight; at its second, step
    its whole basis as ``_stream`` does (the seed an array power, then (b r) c_k) and
    keep it. Only streams of more than one element whose n+1 rows fit in _BLOCK_BYTES
    are recorded, and only while all recorded degrees' rows fit in 2 _BLOCK_BYTES,
    tested after each write so that threads recording at once cannot both pass."""
    if u.size < 2 or (n + 1) * u.nbytes > _BLOCK_BYTES:
        return
    rows = None
    if n in kept:
        w = 1.0 - u
        rows = np.empty((n + 1,) + u.shape)
        rows[0] = w**n
        r = u / w
        for k, (_, cv) in enumerate(_ratios(n)[1], 1):
            np.multiply(rows[k - 1], r, rows[k])
            np.multiply(rows[k], cv, rows[k])
        rows.setflags(write=False)  # never written again: threads read it without the GIL
    kept[n] = rows
    if (len(kept) + sum(kept)) * u.nbytes > 2 * _BLOCK_BYTES:
        kept.pop(n, None)


def _point(fn: np.ndarray, u: float) -> np.ndarray:
    """``_stream`` at one point u, shape (1[, C]): its operations in its order.

    Entry 2k of the running product of [seed, r, c_1, r, c_2, ...] is the
    loop's (b_{k-1} r) c_k; 0.0 + seed keeps its sign of a zero sum. The seed
    is an array power: Python's ** and np.float64's can differ in the last bit.
    """
    n = fn.shape[0] - 1
    w = 1.0 - u
    b = (np.array([w]) ** n)[0]
    if b < _TINY:
        raise ValueError(_TOO_LARGE.format(n))
    fac = np.empty(2 * n + 1)
    fac[0], fac[1::2], fac[2::2] = b, u / w, _ratios(n)[0]
    terms = (fn.T * np.multiply.accumulate(fac)[::2]).T
    terms[0] = 0.0 + terms[0]
    return np.add.accumulate(terms)[-1:]


def _stream(fn: np.ndarray, u: np.ndarray, kept: np.ndarray | None = None) -> np.ndarray:
    """Row j: sum_k fn[k, j] * b_{n,k}(u[j]) at interior points 0 < u <= 1/2.

    A stream of R rows takes u of shape (R, W) and the node values fn of
    shape (n+1, R), or (n+1, R, C) for C columns, row j over fn[:, j]; it
    returns (R[, C], W). Forward ratio recurrence
    b_k = (b_{k-1} u/(1 - u)) (n - k + 1)/k from the seed (1 - u)**n,
    accumulated in ascending k; the basis is updated once per step for all
    columns. The steps run in Python, vectorised across rows and points,
    and stop once no remaining term can change the sum at any point or
    column, so the result is bit-identical to the full n steps.

    Each step writes b_k, in place, into one row of a block buffer. A
    block of K steps ends with two ufunc calls: one ``np.einsum`` writes
    the K terms f(t_k) b_k (a plain product each, without the broadcast
    multiply's slower stride-0 loop) into rows 1..K of a sum buffer whose
    row 0 holds a copy of the running sum, and one ``np.add.reduce`` over
    its rows adds them in ascending k. These are the roundings of stepping
    one term at a time, in its order, so K changes speed, never results,
    on two conditions. numpy sums pairwise only along the fast memory axis
    (numpy.sum, Notes), and adds rows in order; but rows of one element lie
    along memory, so a one-element stream (one interior point, one
    operator) takes one-step blocks. einsum writes +0.0 where a product is
    -0.0, which cannot change a sum that is never -0.0 (0.0 + v b starts it
    at +0.0 or nonzero, and x + y is -0.0 only when both are). K is
    ``_BLOCK`` when that many basis rows and one more sum rows fit in
    ``_BLOCK_BYTES`` (``_block_steps``), else 1: then, as for wider
    streams, where the steps are memory-bound and blocks were slower, b's
    own array is the one basis row, and one multiply and one add take each
    term. ``evaluate`` sends a lone point to ``_point``. Degrees large
    enough to underflow the seed are rejected rather than silently
    returning zeros.

    ``kept`` is the whole basis of this stream, rows 0..n of shape
    (n+1, R, W), kept by the grid's layout (``_keep``), or None. With it a
    block reads rows k+1..k+j of ``kept`` where it would step them into its
    buffer; the terms, the sum and the stop are the same calls on the same bits.
    """
    n = fn.shape[0] - 1
    u = u[:, None] if fn.ndim == 3 else u
    if kept is None:
        w = 1.0 - u
        b = w**n
        if float(b.min()) < _TINY:
            raise ValueError(_TOO_LARGE.format(n))
        r = u / w
    else:
        kept = kept.reshape((n + 1,) + u.shape)
        b = kept[0]
    vals = fn[..., None]  # (n+1[, R][, C], 1): each step's values, broadcast over u
    acc = 0.0 + vals[0] * b
    size = _block_steps(n, b, acc)
    if size == 1:  # b's own array is the one basis row
        bs, term = b[None], np.empty(acc.shape)
    else:  # one allocation: two were handed back to the OS and faulted in again every call
        held = size * b.size if kept is None else 0  # the stepped basis rows
        buf = np.empty(held + (size + 1) * acc.size)
        bs = buf[:held].reshape((-1,) + b.shape)
        sums = buf[held:].reshape((size + 1,) + acc.shape)  # row 0: acc's copy
    # a block of j steps after step k reads rows 0..j-1 of bs, or k+1..k+j of kept
    bs, rows = (bs, list(bs)) if kept is None else (kept, None)
    spec, bv = ("krc,krw->krcw", bs[:, :, 0]) if fn.ndim == 3 else ("kr,krw->krw", bs)
    um = float(u.max())
    rm = um / (1.0 - um)  # max(r): the same two roundings, monotone in u
    fmax = float(np.abs(fn).max())  # read only by the exact stop below
    bound = fmax * 2.0**56
    first = math.ceil(n * um + 8.7 * math.sqrt(n * um * (1.0 - um)))
    check = first
    steps = _ratios(n)[1]
    ratios = iter(steps)  # the stepped path's
    top = min(first, n)
    k = 0  # steps taken
    # a block ends every size steps up to first, at first, every size steps on, and at n
    for end in [*range(size, top, size), *range(top, n, size), n]:
        j = end - k
        if rows is None:
            b, lo = kept[end], k + 1
        else:
            for row, (_, cv) in zip(rows if j == size else rows[:j], ratios):
                # in place: the third argument is the output (faster than out=)
                np.multiply(b, r, row)
                np.multiply(row, cv, row)
                b = row
            lo = 0
        k = end
        c = steps[k - 1][0]
        if size == 1:
            np.multiply(vals[k], b, term)
            np.add(acc, term, acc)
        else:  # the block's j terms into rows 1..j, then acc + t_1 + ... + t_j
            np.einsum(spec, fn[k + 1 - j : k + 1], bv[lo : lo + j], out=sums[1 : j + 1])
            sums[0] = acc
            np.add.reduce(sums[: j + 1], 0, None, acc)
        # Exact stop. This step used ratio c, and every later step
        # multiplies by r * c_j <= rm * c < 3/4 (the ratios fall with k).
        # Each step rounds twice (unit roundoff 2**-53, subnormal spacing
        # 2**-1074), so b' <= 0.76 b + (c + 2) 2**-1075: for n < 2**50 no
        # later b exceeds B = max(b, 2**-1022), and every later term
        # |v b_j| rounds to at most fl(fmax B). The test below,
        # fl(2**56 fmax B) < |acc|, gives fmax B < |acc| 2**-56 exactly.
        # For |acc| in [2**e, 2**(e+1)) that is below 2**(e-55), a quarter
        # of the float spacing on either side of acc, so each later sum
        # rounds back to acc (round to nearest); where 2**(e-55) is below
        # the least subnormal, the terms are 0. acc = 0 never passes, and
        # an overflowing bound only never stops. Where the check sits
        # changes speed, never results: at the end of a block, first near
        # n u + 8.7 sqrt(n u (1 - u)), u = max(u), where the binomial
        # tail has fallen below 2**-55 ~ e**-38 of its peak, then at block
        # ends at least _CHECK_EVERY steps apart; never on streams where
        # that estimate is >= n.
        if (
            check <= k < n
            and rm * c < 0.75
            and (bound * np.maximum(b, _TINY) < np.abs(acc)).all()
        ):
            break
        if check <= k:
            check = k + _CHECK_EVERY
    return acc


_F64 = np.dtype(float)
_grid: tuple = (lambda: None, b"", None)  # the last grid remembered: weak ref, bytes, layout


def _layout(xs) -> float | tuple:
    """xs as a float where it is one point, else its grid layout for ``evaluate``:
    size, stable sort order (None if sorted), cuts a, h, e, each stream row's
    slice and width, the read-only u rows and a dict, degree -> kept basis rows
    of those u rows (``_keep``). The last float64 array's layout is remembered,
    weakly and within ``_BLOCK_BYTES``, as one tuple, and reused while the caller
    passes that same array (``is``) with the same bytes; its rows go with it."""
    global _grid
    grid = _grid  # read once: another thread may swap it
    if type(xs) is np.ndarray and xs is grid[0]() and xs.dtype == _F64 and xs.tobytes() == grid[1]:
        return grid[2]
    pts = np.asarray(xs, dtype=float).reshape(-1)
    if pts.size == 1:
        return float(pts[0])
    pts = _as_unit_interval(pts)
    order = None if (pts[1:] >= pts[:-1]).all() else np.argsort(pts, kind="stable")
    srt = pts if order is None else pts[order]
    # Cuts of the sorted points: the first x > 0, x > 1/2 and x >= 1 (= 1).
    a, h, e = np.searchsorted(srt, (0.0, 0.5, 1.0 - 2.0**-53), "right").tolist()
    # One stream, a row per non-empty half: u = x over the node values, u = 1 - x over
    # them reversed; the shorter row is padded with its last point, which stops as it does.
    halves = ((slice(a, h), srt[a:h]), (slice(h, e), 1.0 - srt[h:e]))
    rows = [row for row in halves if row[1].size]
    us = np.empty((len(rows), max((u.size for _, u in rows), default=0)))
    for j, (_, u) in enumerate(rows):
        us[j, : u.size], us[j, u.size :] = u, u[-1]
    us.setflags(write=False)
    layout = pts.size, order, (a, h, e), [(cut, u.size) for cut, u in rows], us, {}
    held = pts.nbytes + us.nbytes + (0 if order is None else order.nbytes)
    if type(xs) is np.ndarray and xs.dtype == _F64 and held <= _BLOCK_BYTES:
        _grid = (weakref.ref(xs), pts.tobytes(), layout)
    return layout


def evaluate(f, p, xs) -> np.ndarray:
    """Operator values sum_k b_{n,k}(x) f(t_k) at every point x of xs.

    ``p`` is one StancuParams, or a tuple of them sharing one degree: the
    basis depends on n and x only, so one recurrence serves them all and
    the result has shape (len(xs), len(p)), column j bit-identical to
    ``evaluate(f, p[j], xs)``. For one operator, ``f`` maps the node array
    t (``node_values()``) to values; an (n+1, C) value array gives results
    of shape (len(xs), C). A FunctionSpec is sampled once per operator,
    which keeps the samples of the last spec it was given; other callables
    are called every time. x = 0 and x = 1 return f(t_0) and f(t_n)
    exactly (the recurrence would hit 0**0 there). Points x > 1/2 are
    reflected to 1 - x with the node values reversed. Unsorted xs are
    sorted for the cuts at 0, 1/2 and 1, and their results put back. Passing
    one float64 array again, unchanged, reuses its checks, sort and cuts, and
    from a degree's second call on that array, its basis rows (``_keep``).
    """
    if not isinstance(xs, float):  # np.float64 is a float too
        xs = _layout(xs)  # a float for one point
    if isinstance(xs, float) and not 0.0 <= xs <= 1.0:  # NaN fails both tests, +-inf one
        raise ValueError("x must lie in [0, 1]")
    if isinstance(p, StancuParams):
        fn = p._sampled(f)
    else:
        ps = tuple(p)
        if not ps or any(q.n != ps[0].n for q in ps):
            raise ValueError("operators evaluated together must share one degree")
        fn, cols = None, [q._sampled(f) for q in ps]  # one column per operator
    if isinstance(xs, float):  # one point: no sort, cuts or stream
        if fn is None:
            fn = np.stack(cols, axis=1)
        if xs in (0.0, 1.0):
            return (fn[:1] if xs == 0.0 else fn[-1:]).copy()
        return _point(fn, xs) if xs <= 0.5 else _point(fn[::-1], 1.0 - xs)
    size, order, (a, h, e), rows, us, kept = xs  # the grid's layout
    # The samples go straight into the stream's (n+1, R[, C]) node array: its
    # row 0 in node order, read in reverse where row 0 is the right half.
    shape = (len(cols[0]), len(cols)) if fn is None else fn.shape  # (n+1[, C])
    gs = np.empty(shape[:1] + (max(len(rows), 1),) + shape[1:])
    lead = gs[:, 0] if a < h or h == e else gs[::-1, 0]
    if fn is None:
        for i, col in enumerate(cols):
            lead[:, i] = col
    else:
        lead[...] = fn
    fn = lead
    if len(rows) == 2:
        gs[:, 1] = fn[::-1]
    out = np.empty((size,) + shape[1:])
    out[:a], out[e:] = fn[0], fn[-1]
    if rows:
        basis = kept.get(len(gs) - 1)
        for (cut, width), s in zip(rows, _stream(gs, us, basis)):
            out[cut] = s[..., :width].T
        if basis is None:  # recorded, or kept once the stream's buffers are freed
            _keep(kept, len(gs) - 1, us)
    if order is not None:  # back to the caller's order
        out[order] = out.copy()
    return out


def apply_operator(f: FunctionSpec, p: StancuParams, x: float) -> float:
    """Evaluate the operator: sum_k b_{n,k}(x) f((k + alpha)/(n + beta))."""
    return float(evaluate(f, p, float(x))[0])


def apply_operator_curve(f: FunctionSpec, p: StancuParams, grid_size: int) -> SampledCurve:
    """Operator values over a uniform grid; pointwise identical to apply_operator."""
    grid = uniform_grid(grid_size)
    return SampledCurve(grid=grid, values=evaluate(f, p, grid))


def moment_closed_form(i: int, p: StancuParams, x):
    """Closed-form operator image of the monomial t**i, i in {0, 1, 2}.

    These are the three identities that drive the positive-linear-operator
    convergence argument:

        i = 0:  1
        i = 1:  x + (alpha - beta x)/(n + beta)
        i = 2:  x**2 + (n x (1-x) + (alpha - beta x)(2 n x + beta x + alpha))
                       / (n + beta)**2

    Accepts a scalar or an array of evaluation points.
    """
    if not isinstance(i, (int, np.integer)) or isinstance(i, bool) or i not in (0, 1, 2):
        raise ValueError("moment index must be 0, 1 or 2")
    arr = _as_unit_interval(x)
    n, a, b = p.n, p.alpha, p.beta
    if i == 0:
        out = np.ones_like(arr)
    elif i == 1:
        out = arr + (a - b * arr) / (n + b)
    else:
        out = arr**2 + (n * arr * (1.0 - arr) + (a - b * arr) * (2.0 * n * arr + b * arr + a)) / (
            n + b
        ) ** 2
    if arr.ndim == 0:
        return float(out)
    return out
