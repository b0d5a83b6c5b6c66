"""A program object's content fingerprint is taken once.

:func:`repro.pipeline.fingerprint.fingerprint_program` keeps each live
program object's digest in one identity memo
(:class:`repro.core.identity.IdentityMemo`, also the serving layer's
resident-program memo).  The AST is frozen, so a hit is exact: every
digest equals the unmemoised formula, recomputed inline here.  The
memo holds its programs weakly, leaves with them, and never serves a
recycled ``id``.  The threaded test takes its seeds from
``CHAOS_SEEDS`` (default ``0,1,2``; CI's ``chaos`` job runs more).
"""

import gc
import hashlib
import os
import random
import sys
import threading
import types
import weakref

import pytest

from repro.bench.suite import BENCHMARKS
from repro.core import ast as A
from repro.core import identity
from repro.core import pretty
from repro.frontend.parser import parse
from repro.pipeline import ArtifactCache, compile_program
from repro.pipeline import fingerprint as F

SEEDS = [int(s) for s in os.environ.get("CHAOS_SEEDS", "0,1,2").split(",")]
NAMES = list(BENCHMARKS.names())

SOURCES = [
    r"fun main (xs: [n]f32): [n]f32 = map (\(x: f32) -> x + 1.0f32) xs",
    r"fun main (xs: [n]f32): [n]f32 = map (\(x: f32) -> x * 2.0f32) xs",
    r"fun main (xs: [n]i32): [n]i32 = map (\(x: i32) -> x - 3) xs",
]


def fresh_digest(prog):
    """The unmemoised content fingerprint."""
    h = hashlib.sha256()
    for part in ("program", pretty.pretty_prog(prog)):
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()


@pytest.fixture
def memo(monkeypatch):
    """The fingerprint memo, empty: what these tests count (or leave
    stale) is their own."""
    fresh = identity.IdentityMemo()
    monkeypatch.setattr(F, "_PROGRAM_DIGESTS", fresh)
    return fresh


def _count_pretty_prog(monkeypatch):
    calls = []
    real = pretty.pretty_prog

    def spy(prog):
        calls.append(prog)
        return real(prog)

    monkeypatch.setattr(pretty, "pretty_prog", spy)
    return calls


@pytest.mark.parametrize("name", NAMES)
def test_first_and_second_digest_are_the_formula(name):
    prog = BENCHMARKS[name].program()
    first = F.fingerprint_program(prog)
    second = F.fingerprint_program(prog)
    assert first == second == fresh_digest(prog)


def test_a_warm_compile_does_not_pretty_print(tmp_path, monkeypatch):
    cache = ArtifactCache(tmp_path / "artifacts")
    calls = _count_pretty_prog(monkeypatch)
    for name in NAMES:
        prog = BENCHMARKS[name].program()
        cold = compile_program(prog, artifact_cache=cache)
        assert cold.from_artifact is None, name
        del calls[:]
        warm = compile_program(prog, artifact_cache=cache)
        assert calls == [], name
        # Nothing decoded is memoised: the artifact is read again.
        assert warm.from_artifact == "host", name
        assert warm.fingerprints == cold.fingerprints, name
    assert cache.stats.hits == len(NAMES)


def test_an_equal_but_distinct_object_gets_its_own_entry(memo):
    first, second = parse(SOURCES[0]), parse(SOURCES[0])
    assert first == second and first is not second
    digest = F.fingerprint_program(first)
    assert memo.get(second) is None
    assert F.fingerprint_program(second) == digest
    assert len(memo) == 2
    assert memo.get(first) == memo.get(second) == digest


def test_a_collected_program_leaves_the_memo(memo):
    prog = parse(SOURCES[0])
    F.fingerprint_program(prog)
    assert len(memo) == 1
    ref = weakref.ref(prog)
    del prog
    gc.collect()
    assert ref() is None
    assert len(memo) == 0


@pytest.mark.parametrize("callbacks", ["run", "held-off"])
def test_a_recycled_id_is_never_served(callbacks, memo, monkeypatch):
    """Programs of two contents are built and dropped in turn, so a new
    one often takes the last one's ``id``.  The digest stays exact both
    when a dead program's entry has left and when it is still there
    (its callback held off), so the ``ref() is obj`` check alone keeps
    the stale digest from being served."""
    if callbacks == "held-off":
        monkeypatch.setattr(identity, "weakref", types.SimpleNamespace(
            ref=lambda obj, callback=None: weakref.ref(obj)
        ))
    funs = [parse(src).funs for src in SOURCES[:2]]
    want = [fresh_digest(A.Prog(funs=f)) for f in funs]
    assert want[0] != want[1]
    seen, reused = set(), 0
    for i in range(200):
        prog = A.Prog(funs=funs[i % 2])
        reused += id(prog) in seen
        seen.add(id(prog))
        assert F.fingerprint_program(prog) == want[i % 2], i
        del prog
    assert reused > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_threads_share_and_drop_programs(seed, memo):
    """Stress: 4 threads, a short switch interval.  Each draws a shared
    program or builds a fresh one (and drops it) and checks its digest;
    afterwards the memo holds the shared programs and nothing dead."""
    funs = [parse(src).funs for src in SOURCES]
    want = [fresh_digest(A.Prog(funs=f)) for f in funs]
    shared = [A.Prog(funs=f) for f in funs]
    n, rounds = 4, 300
    barrier = threading.Barrier(n)
    wrong = []

    def client(i):
        rng = random.Random(seed * 1000 + i)
        barrier.wait()
        for _ in range(rounds):
            k = rng.randrange(len(funs))
            prog = shared[k] if rng.random() < 0.5 else A.Prog(funs=funs[k])
            if F.fingerprint_program(prog) != want[k]:
                wrong.append((i, k))
            del prog

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    gc.collect()
    assert [memo.get(p) for p in shared] == want
    assert len(memo) == len(shared)
