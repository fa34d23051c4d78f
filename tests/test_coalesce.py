"""The shared coalescing cache against a dict model (Hypothesis stateful).

Random sequences of lookups, builds that fail, new content hashes and
invalidations.  The model is a dict of what each key should hold; after
every step the cache's stats must equal the model's counts, and along
the way:

* a (key, hash) builds at most once between invalidations of its model;
* a stale entry is served only after a failed build;
* an error is raised only when there is no entry to fall back on.

A threaded stress test then checks what a lost update would break.
"""

from __future__ import annotations

import itertools
import random
import sys
import threading
import time
import types

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.coalesce import CacheBuildError, CoalescingCache

KEYS = (("a", 1), ("a", 2), ("b", 1))


class DictCache(CoalescingCache):
    _COUNTER = {stat: f"test.{stat}" for stat in (
        "hits", "builds", "coalesced", "failures", "stale_served", "shed",
        "invalidations", "disk_hits", "disk_stores")}

    @staticmethod
    def _size(entry) -> int:
        return len(entry.payload)


def _entry(content_hash: str):
    return types.SimpleNamespace(content_hash=content_hash,
                                 payload=content_hash.encode("ascii"))


class CacheMachine(RuleBasedStateMachine):
    @initialize()
    def start(self):
        self.cache = DictCache()
        self.hashes = itertools.count()
        self.current = {key: f"h{next(self.hashes)}" for key in KEYS}
        #: key → hash of the entry the cache should hold.
        self.entries: dict[tuple, str] = {}
        self.failed: set[tuple] = set()
        #: (key, hash) pairs built since their model's last invalidation.
        self.built: set[tuple] = set()
        self.counts = dict.fromkeys(DictCache._COUNTER, 0)

    @rule(key=st.sampled_from(KEYS))
    def new_content_hash(self, key):
        self.current[key] = f"h{next(self.hashes)}"

    @rule(key=st.sampled_from(KEYS), fails=st.booleans())
    def lookup(self, key, fails):
        content_hash = self.current[key]
        calls = []

        def build():
            calls.append(content_hash)
            if fails:
                raise RuntimeError("injected")
            assert (key, content_hash) not in self.built
            self.built.add((key, content_hash))
            return _entry(content_hash)

        fresh = self.entries.get(key) == content_hash
        try:
            entry, outcome = self.cache.get(key, content_hash, build)
        except CacheBuildError as exc:
            assert calls and fails
            assert key not in self.entries
            assert exc.name == key[0] and "injected" in exc.cause
            self.counts["builds"] += 1
            self.counts["failures"] += 1
            self.failed.add(key)
            return
        if fresh:
            assert (outcome, calls) == ("hit", [])
            self.counts["hits"] += 1
        elif fails:
            assert outcome == "stale" and calls == [content_hash]
            assert entry.content_hash == self.entries[key] != content_hash
            self.counts["builds"] += 1
            self.counts["failures"] += 1
            self.counts["stale_served"] += 1
            self.failed.add(key)
        else:
            assert outcome == "built" and calls == [content_hash]
            assert entry.content_hash == content_hash
            self.counts["builds"] += 1
            self.entries[key] = content_hash
            self.failed.discard(key)

    @rule(name=st.sampled_from(sorted({key[0] for key in KEYS})))
    def invalidate(self, name):
        dropped = [key for key in self.entries if key[0] == name]
        assert self.cache.invalidate(name) == len(dropped)
        for key in dropped:
            del self.entries[key]
        self.failed = {key for key in self.failed if key[0] != name}
        self.built = {pair for pair in self.built if pair[0][0] != name}
        if dropped:
            self.counts["invalidations"] += 1

    @invariant()
    def stats_match_the_model(self):
        stats = self.cache.stats()
        assert {stat: stats[stat] for stat in self.counts} == self.counts
        assert stats["entries"] == len(self.entries)
        assert stats["resident_bytes"] == sum(
            len(content_hash) for content_hash in self.entries.values())
        assert stats["degraded_keys"] == [
            "/".join(map(str, key)) for key in sorted(self.failed)]


TestCacheMachine = CacheMachine.TestCase
TestCacheMachine.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None)



def test_threads_never_overlap_builds_of_one_key_or_lose_a_count():
    """Eight threads on three keys, with failing builds, hash flips and
    invalidations, under a short switch interval: one key never builds
    twice at once, and every lookup is counted exactly once."""
    cache = DictCache()
    lock = threading.Lock()
    running = dict.fromkeys(KEYS, 0)
    most_at_once = [0]
    lookups = [0]

    def build_for(key, content_hash, fails):
        def build():
            with lock:
                running[key] += 1
                most_at_once[0] = max(most_at_once[0], running[key])
            try:
                time.sleep(0.0002)  # let another build of the key start
                if fails:
                    raise RuntimeError("injected")
                return _entry(content_hash)
            finally:
                with lock:
                    running[key] -= 1
        return build

    def client(seed):
        rng = random.Random(seed)
        for _ in range(300):
            key = rng.choice(KEYS)
            if rng.random() < 0.05:
                cache.invalidate(key[0])
                continue
            content_hash = f"h{rng.randrange(3)}"
            try:
                cache.get(key, content_hash,
                          build_for(key, content_hash, rng.random() < 0.2))
            except CacheBuildError:
                pass
            with lock:
                lookups[0] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=client, args=(seed,))
                   for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert most_at_once[0] == 1
    stats = cache.stats()
    assert stats["shed"] == 0
    assert stats["hits"] + stats["coalesced"] + stats["builds"] == lookups[0]
    assert stats["failures"] <= stats["builds"]
