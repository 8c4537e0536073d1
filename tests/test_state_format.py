"""Engine state kept flat in memory, pickled in its per-object layout.

A process's hot set is a :class:`HotSet` (page counts and steps) and a
direct-mapped cache keeps one tag list, but pickles — run-cache entries
and engine checkpoints — keep the expanded pair list and the per-set
lists. These tests hold both to references: the loop that built hot
sets as lists, and a per-set-list cache encoded in the legacy slot
state.
"""

from __future__ import annotations

import copyreg
import io
import pickle
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.params import CacheGeometry
from repro.kernel.process import DATA_VBASE, TEXT_VBASE, HotSet, Image, Process
from repro.memsys.cache import EMPTY, Cache


def reference_hot_blocks(text_pages, data_pages, text_fraction,
                         data_fraction, blocks_per_page):
    """The list ``Process.build_hot_set`` built before HotSet existed."""
    hot = []
    text_step = max(1, int(1 / max(text_fraction, 1e-6)))
    for vpage in range(TEXT_VBASE, TEXT_VBASE + text_pages):
        for block in range(0, blocks_per_page, text_step):
            hot.append((vpage, block))
    data_step = max(1, int(1 / max(data_fraction, 1e-6)))
    for vpage in range(DATA_VBASE, DATA_VBASE + data_pages):
        for block in range(0, blocks_per_page, data_step):
            hot.append((vpage, block))
    return hot


def _process(text_pages, data_pages, pid=5):
    image = Image("prog", text_pages=text_pages, file_ino=3, frames=[7, -1])
    process = Process(pid, 2, "prog", image, iter(()), data_pages=data_pages)
    process.data_frames[DATA_VBASE] = 40
    process.cow_pages.add(DATA_VBASE)
    return process


# Text pages reach past DATA_VBASE (oracle's image does), fractions give
# steps that do not divide the page or exceed it, and zero pages give
# empty halves.
_PAGES = st.integers(0, DATA_VBASE + 40)
_FRACTION = st.floats(0.0, 1.0)
_BPP = st.integers(1, 24)


class TestHotSet:
    @settings(max_examples=200, deadline=None)
    @given(text_pages=_PAGES, data_pages=_PAGES, text_fraction=_FRACTION,
           data_fraction=_FRACTION, bpp=_BPP)
    def test_yields_the_reference_list(self, text_pages, data_pages,
                                       text_fraction, data_fraction, bpp):
        ref = reference_hot_blocks(text_pages, data_pages, text_fraction,
                                   data_fraction, bpp)
        hot = _process(text_pages, data_pages).hot_set(
            text_fraction, data_fraction, bpp)
        assert isinstance(hot, HotSet)
        assert list(hot) == ref
        assert len(hot) == len(ref)
        assert bool(hot) == bool(ref)
        # The arithmetic the touch loop inlines.
        assert [hot[i] for i in range(len(hot))] == ref

    @given(st.integers(1, 20), st.integers(1, 7))
    def test_index_out_of_range(self, pages, step):
        hot = HotSet(pages, step, 0, 1, 16)
        for i in (len(hot), -1):
            try:
                hot[i]
            except IndexError:
                continue
            raise AssertionError(f"index {i} of {len(hot)} did not raise")

    def test_empty(self):
        hot = HotSet(0, 2, 0, 1, 256)
        assert len(hot) == 0 and not hot and list(hot) == []

    def test_build_draws_the_cursor_as_before(self):
        process = _process(12, 9)
        process.build_hot_set(random.Random(4), 0.5, 0.6, 256)
        ref = reference_hot_blocks(12, 9, 0.5, 0.6, 256)
        assert process.sweep_cursor == random.Random(4).randrange(len(ref))
        empty = _process(0, 0)
        rng = random.Random(4)
        empty.build_hot_set(rng, 0.5, 0.6, 256)
        assert empty.sweep_cursor == 0
        assert rng.random() == random.Random(4).random()  # nothing drawn


class TestProcessPickle:
    @settings(max_examples=40, deadline=None)
    @given(text_pages=st.integers(0, 300), data_pages=st.integers(0, 40),
           text_fraction=_FRACTION, data_fraction=_FRACTION)
    def test_hot_set_pickles_as_the_reference_list(
        self, text_pages, data_pages, text_fraction, data_fraction
    ):
        with_set = _process(text_pages, data_pages)
        with_set.build_hot_set(random.Random(1), text_fraction, data_fraction)
        with_list = _process(text_pages, data_pages)
        with_list.hot_blocks = reference_hot_blocks(
            text_pages, data_pages, text_fraction, data_fraction, 256)
        with_list.sweep_cursor = with_set.sweep_cursor
        for protocol in (2, pickle.HIGHEST_PROTOCOL):
            assert pickle.dumps(with_set, protocol) == pickle.dumps(with_list, protocol)
        # Unpickling gives the list back; the live process keeps its set.
        restored = pickle.loads(pickle.dumps(with_set))
        assert restored.hot_blocks == with_list.hot_blocks
        assert isinstance(with_set.hot_blocks, HotSet)

    def test_unbuilt_hot_set_stays_an_empty_list(self):
        process = _process(3, 2)
        assert pickle.loads(pickle.dumps(process)).hot_blocks == []


class _LegacySets:
    """The per-set list layout every direct-mapped cache had before the
    flat tag list, driven by the same operations."""

    def __init__(self, num_sets):
        self.ways = [[] for _ in range(num_sets)]
        self.present = set()

    def fill(self, block):
        ways = self.ways[block % len(self.ways)]
        if ways:
            victim = ways[0]
            ways[0] = block
            self.present.discard(victim)
        else:
            ways.append(block)
            victim = EMPTY
        self.present.add(block)
        return victim

    def access(self, block):
        return None if block in self.present else self.fill(block)

    def invalidate(self, block):
        if block not in self.present:
            return False
        self.ways[block % len(self.ways)].remove(block)
        self.present.discard(block)
        return True

    def invalidate_all(self):
        flushed = sorted(self.present)
        for ways in self.ways:
            ways.clear()
        self.present.clear()
        return flushed


def _legacy_dumps(cache, legacy, protocol):
    """``cache`` pickled the way the per-set list class pickled: its
    default slot state, with the reference's sets and present-set."""

    class LegacyPickler(pickle.Pickler):
        def reducer_override(self, obj):
            if type(obj) is not Cache:
                return NotImplemented
            state = (None, {
                "geometry": obj.geometry,
                "num_sets": obj.num_sets,
                "assoc": obj.assoc,
                "_ways": legacy.ways,
                "_present": legacy.present,
            })
            return copyreg.__newobj__, (Cache,), state

    out = io.BytesIO()
    LegacyPickler(out, protocol).dump(cache)
    return out.getvalue()


_SETS = 64
_BLOCK = st.integers(0, 6 * _SETS)
_CACHE_OP = st.one_of(
    st.tuples(st.sampled_from(["fill", "access", "invalidate"]), _BLOCK),
    st.tuples(st.just("invalidate_all")),
)


class TestCachePickle:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_CACHE_OP, max_size=120))
    def test_direct_mapped_pickles_as_legacy_slot_state(self, ops):
        cache = Cache(CacheGeometry(_SETS * 16, associativity=1))
        legacy = _LegacySets(_SETS)
        for name, *args in ops:
            if name == "fill" and args[0] in cache:
                name = "access"  # fill's contract: the block is absent
            assert getattr(cache, name)(*args) == getattr(legacy, name)(*args)
        assert cache._tags == [w[0] if w else EMPTY for w in legacy.ways]
        for protocol in (2, pickle.HIGHEST_PROTOCOL):
            blob = pickle.dumps(cache, protocol)
            assert blob == _legacy_dumps(cache, legacy, protocol)
        restored = pickle.loads(blob)
        assert restored._tags == cache._tags and restored._ways is None
        assert restored.__getstate__() == cache.__getstate__()
        block = 7 * _SETS + 3
        assert restored.access(block) == cache.access(block)
        assert restored._tags == cache._tags

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_CACHE_OP, max_size=80))
    def test_associative_round_trips(self, ops):
        cache = Cache(CacheGeometry(_SETS * 16, associativity=2))
        for name, *args in ops:
            if name == "fill" and args[0] in cache:
                name = "access"
            getattr(cache, name)(*args)
        restored = pickle.loads(pickle.dumps(cache, pickle.HIGHEST_PROTOCOL))
        assert restored._tags is None
        assert restored._ways == cache._ways
        assert restored._present == cache._present
