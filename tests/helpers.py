"""Shared program-construction helpers for the test suite.

Contains core-IR renditions of the paper's worked examples (Fig. 4's
three K-means cluster-counting variants, Fig. 10's OptionPricing-style
stream program, the Section 2.2 row-sums example), used across the
checker, interpreter, fusion, flattening and backend tests.
"""

from __future__ import annotations

import collections
import dataclasses
import threading

from repro.core import ProgBuilder, array
from repro.core.prim import F32, I32
from repro.core.types import Array, Prim
from repro.core import ast as A
from repro.sched import Placer
from repro.serve.breaker import CircuitBreaker


def split_friendly(profile):
    """``profile`` with free launches and no saturation floor: kernel
    time is then proportional to rows and an extra shard costs nothing,
    so the pool's cost-model placement splits even a toy batch.  The
    pool tests that need a split get it from here, never from a product
    switch."""
    return dataclasses.replace(
        profile, launch_overhead_us=0.0, saturation_threads=1
    )


def tune(target, *, breaker=None, **attrs):
    """Swap settings on a device pool, or on a server's pool, before it
    starts, and return ``target``.  Each keyword names a pool attribute
    (``retries``, ``planner``, ``placer``);
    ``breaker`` is the keyword arguments of a fresh
    :class:`CircuitBreaker` for every device."""
    pool = getattr(target, "pool", target)
    for name, value in attrs.items():
        if not hasattr(pool, name):
            raise AttributeError(f"a device pool has no {name!r}")
        setattr(pool, name, value)
    if breaker is not None:
        for d in pool.devices:
            d.breaker = CircuitBreaker(f"dev{d.id}", **breaker)
    return target


class StintSpy:
    """Watches every device stint through the breaker protocol: the
    attempt loop asks a pool device's breaker (named ``dev{id}``) once
    before a stint and tells it once after.  ``runs`` lists each
    stint's ``(device id, thread name)``; ``peak`` counts, per device,
    the most admitted stints that ran at once."""

    def __init__(self, monkeypatch) -> None:
        self.runs = []
        self.peak = collections.Counter()
        running = collections.Counter()
        lock = threading.Lock()
        allow = CircuitBreaker.allow

        def device(breaker):
            return int(breaker.name[len("dev"):])

        def spy_allow(breaker):
            dev = device(breaker)
            with lock:
                self.runs.append((dev, threading.current_thread().name))
            admitted = allow(breaker)
            if admitted:
                with lock:
                    running[dev] += 1
                    self.peak[dev] = max(self.peak[dev], running[dev])
            return admitted

        def ended(record):
            def spy_record(breaker):
                with lock:
                    running[device(breaker)] -= 1
                return record(breaker)

            return spy_record

        monkeypatch.setattr(CircuitBreaker, "allow", spy_allow)
        for name in ("record_success", "record_failure", "record_neutral"):
            monkeypatch.setattr(
                CircuitBreaker, name, ended(getattr(CircuitBreaker, name))
            )


class KWayPlacer(Placer):
    """Always the ``k``-way plan among those the placer weighed —
    swapped in as a pool's ``placer`` by tests (and measurements) that
    need a particular split whatever the cost model predicts."""

    def __init__(self, k: int) -> None:
        super().__init__()
        self.k = k

    def plan(self, *args, **kwargs):
        _, considered = super().plan(*args, **kwargs)
        forced = next(p for p in considered if len(p.shards) == self.k)
        return forced, considered


def map_inc_program():
    """map (+1) over a vector of f32."""
    pb = ProgBuilder()
    with pb.function("main") as fb:
        xs = fb.param("xs", array(F32, "n"))
        with fb.lam([("x", Prim(F32))]) as lb:
            (x,) = lb.params
            lb.ret(lb.add(x, lb.f32(1.0)))
        ys = fb.map(lb.fn, xs)
        fb.ret(ys)
    return pb.build()


def sum_program():
    """reduce (+) 0 over a vector of f32."""
    pb = ProgBuilder()
    with pb.function("main") as fb:
        xs = fb.param("xs", array(F32, "n"))
        with fb.lam([("a", Prim(F32)), ("x", Prim(F32))]) as lb:
            a, x = lb.params
            lb.ret(lb.add(a, x))
        s = fb.reduce(lb.fn, [fb.f32(0.0)], xs, comm=True)
        fb.ret(s)
    return pb.build()


def rowsums_program():
    """The Section 2.2 example: add 1 to a matrix and sum its rows.

    main (matrix: [n][m]f32): ([n][m]f32, [n]f32)
    """
    pb = ProgBuilder()
    with pb.function("main") as fb:
        matrix = fb.param("matrix", array(F32, "n", "m"))
        with fb.lam([("row", array(F32, "m"))]) as rb:
            (row,) = rb.params
            with rb.lam([("x", Prim(F32))]) as ib:
                (x,) = ib.params
                ib.ret(ib.add(x, ib.f32(1.0)))
            row2 = rb.map(ib.fn, row)
            with rb.lam([("a", Prim(F32)), ("x", Prim(F32))]) as sb:
                a, x = sb.params
                sb.ret(sb.add(a, x))
            s = rb.reduce(sb.fn, [rb.f32(0.0)], row)
            rb.ret(row2, s)
        outs = fb.map(rb.fn, matrix)
        fb.ret(*outs)
    return pb.build()


def _vec_add_lambda(fb, k):
    """A lambda implementing map (+) on two [k]i32 vectors."""
    with fb.lam([("xv", Array(I32, (k,))), ("yv", Array(I32, (k,)))]) as vb:
        xv, yv = vb.params
        with vb.lam([("x", Prim(I32)), ("y", Prim(I32))]) as ab:
            x, y = ab.params
            ab.ret(ab.add(x, y))
        s = vb.map(ab.fn, xv, yv)
        vb.ret(s)
    return vb.fn


def kmeans_counts_sequential(k: int = 5):
    """Fig. 4a: sequential cluster counting with an in-place update.

    main (membership: [n]i32): [k]i32 — O(n) work.
    """
    pb = ProgBuilder()
    with pb.function("main") as fb:
        membership = fb.param("membership", array(I32, "n"))
        n = fb.size_of(membership)
        counts0 = fb.replicate(fb.i32(k), fb.i32(0))
        with fb.loop(
            [("counts", Array(I32, (k,)), counts0)],
            for_lt=("i", n),
            unique=[True],
        ) as lp:
            (counts,) = lp.merge_vars
            cluster = lp.index(membership, lp.ivar)
            old = lp.index(counts, cluster)
            new = lp.add(old, 1)
            counts2 = lp.update(counts, [cluster], new)
            lp.ret(counts2)
        result = lp.end()
        fb.ret(result)
    return pb.build()


def kmeans_counts_parallel(k: int = 5):
    """Fig. 4b: fully parallel but work-inefficient counting — O(n*k)."""
    pb = ProgBuilder()
    with pb.function("main") as fb:
        membership = fb.param("membership", array(I32, "n"))
        with fb.lam([("cluster", Prim(I32))]) as mb:
            (cluster,) = mb.params
            incr = mb.replicate(mb.i32(k), mb.i32(0))
            incr2 = mb.update(incr, [cluster], mb.i32(1))
            mb.ret(incr2)
        increments = fb.map(mb.fn, membership)
        zeros = fb.replicate(fb.i32(k), fb.i32(0))
        red_lam = _vec_add_lambda(fb, k)
        counts = fb.reduce(red_lam, [zeros], increments, comm=True)
        fb.ret(counts)
    return pb.build()


def kmeans_counts_stream(k: int = 5):
    """Fig. 4c: stream_red with an efficiently sequentialised chunk loop."""
    pb = ProgBuilder()
    with pb.function("main") as fb:
        membership = fb.param("membership", array(I32, "n"))
        red_lam = _vec_add_lambda(fb, k)
        with fb.lam(
            [
                ("chunksize", Prim(I32)),
                ("acc", Array(I32, (k,))),
                ("chunk", array(I32, "chunksize")),
            ],
            unique=[False, True, False],
        ) as cb:
            chunksize, acc, chunk = cb.params
            with cb.loop(
                [("acc2", Array(I32, (k,)), acc)],
                for_lt=("i", chunksize),
                unique=[True],
            ) as lp:
                (acc2,) = lp.merge_vars
                cluster = lp.index(chunk, lp.ivar)
                old = lp.index(acc2, cluster)
                new = lp.add(old, 1)
                acc3 = lp.update(acc2, [cluster], new)
                lp.ret(acc3)
            res = lp.end()
            cb.ret(res)
        zeros = fb.replicate(fb.i32(k), fb.i32(0))
        counts = fb.stream_red(red_lam, cb.fn, [zeros], membership)
        fb.ret(counts)
    return pb.build()


def fig10_program():
    """Fig. 10a: stream_map computing a scan-based recurrence per chunk,
    whose concatenation is then summed with a reduce.

    The strength-reduction invariant (a programmer obligation for
    stream_map) genuinely holds here: when the input is ``iota n``, the
    intended result is ``ys[i] = sum_{j<=i} 2*j``.  Each chunk either
    computes its first prefix directly via the expensive closed form
    ``find x = x*(x-1)`` (the sum of ``2*j`` for ``j < x``) or extends
    it with the cheap scan recurrence — so every partitioning agrees.
    """
    pb = ProgBuilder()
    with pb.function("main") as fb:
        iss = fb.param("iss", array(I32, "n"))
        with fb.lam(
            [("m", Prim(I32)), ("chunk", array(I32, "m"))]
        ) as sb:
            m, chunk = sb.params
            first = sb.index(chunk, sb.i32(0))
            # find: the independent but expensive formula.
            fm1 = sb.sub(first, 1)
            a = sb.mul(first, fm1)
            # g: the per-element map.
            with sb.lam([("i", Prim(I32))]) as gb:
                (i,) = gb.params
                gb.ret(gb.mul(i, gb.i32(2)))
            t = sb.map(gb.fn, chunk)
            with sb.lam([("x", Prim(I32)), ("y", Prim(I32))]) as ob:
                x, y = ob.params
                ob.ret(ob.add(x, y))
            y0 = sb.scan(ob.fn, [sb.i32(0)], t)
            with sb.lam([("v", Prim(I32))]) as hb:
                (v,) = hb.params
                hb.ret(hb.add(v, a))
            y = sb.map(hb.fn, y0)
            sb.ret(y)
        ys = fb.stream_map(sb.fn, iss)
        with fb.lam([("x", Prim(I32)), ("y", Prim(I32))]) as rb:
            x, y = rb.params
            rb.ret(rb.add(x, y))
        b = fb.reduce(rb.fn, [fb.i32(0)], ys)
        fb.ret(b)
    return pb.build()


def matmul_program():
    """Dense matrix multiplication via a map-map-reduce nest."""
    pb = ProgBuilder()
    with pb.function("main") as fb:
        a = fb.param("a", array(F32, "n", "m"))
        b = fb.param("b", array(F32, "m", "p"))
        bt = fb.transpose(b)
        with fb.lam([("arow", array(F32, "m"))]) as ob:
            (arow,) = ob.params
            with ob.lam([("bcol", array(F32, "m"))]) as ib:
                (bcol,) = ib.params
                with ib.lam([("x", Prim(F32)), ("y", Prim(F32))]) as pb_:
                    x, y = pb_.params
                    pb_.ret(pb_.mul(x, y))
                prods = ib.map(pb_.fn, arow, bcol)
                with ib.lam([("u", Prim(F32)), ("v", Prim(F32))]) as sb:
                    u, v = sb.params
                    sb.ret(sb.add(u, v))
                dot = ib.reduce(sb.fn, [ib.f32(0.0)], prods)
                ib.ret(dot)
            row = ob.map(ib.fn, bt)
            ob.ret(row)
        c = fb.map(ob.fn, a)
        fb.ret(c)
    return pb.build()


def fig11_program():
    """The contrived nesting of Fig. 11a."""
    from repro.frontend import parse
    return parse(
        """
        fun main (pss: [m][m]i32) (n: i32): ([m][m][m]i32, [m][m]i32) =
          map (\\(ps: [m]i32) ->
            let ass = map (\\(p: i32) ->
                let cs = scan (\\(a: i32) (b: i32) -> a + b) 0 (iota p)
                let r = reduce (\\(a: i32) (b: i32) -> a + b) 0 cs
                in map (\\(x: i32) -> x + r) ps) ps
            let bs = loop (ws = ps) for i < n do
                map (\\(as_: [m]i32) (w: i32) ->
                    let d = reduce (\\(a: i32) (b: i32) -> a + b) 0 as_
                    let e = d + w
                    in 2 * e) ass ws
            in {ass, bs}) pss
        """
    )
