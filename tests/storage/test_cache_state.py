"""``PageCache`` as a state machine: one state, the page LRU.

A decoded entry lives exactly as long as its pages, and
``repeat_hit`` answers from that state whether repeating a decoded hit
would change nothing.  Two identical worlds run the same steps — reads,
decoded reads, churn that fits and churn that overflows, invalidation,
``clear``, a file recreate that bumps the generation, a remap — except
that where the first world's ``repeat_hit`` succeeds, the second calls
``read_decoded`` for the same range instead.  After every step:

* every decoded entry's pages are resident, and ``used_bytes`` is
  within the capacity;
* the two worlds agree on the page LRU order, the decoded entries, the
  clock and every counter;
* a ``repeat_hit`` that says no has changed nothing.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.common.rng import make_rng
from repro.storage.clock import SimClock
from repro.storage.device import DeviceModel, StorageDevice
from repro.storage.page_cache import PageCache

BLOCK = 64
#: Short last blocks and one file that ends on a block boundary.
FILES = {"a": 5 * BLOCK + 9, "b": 4 * BLOCK}
#: What a caller charges ahead of a repeated read (an index lookup).
LEAD_US = 0.37


def content(path, generation):
    return bytes((i + 7 * generation) % 251 for i in range(FILES[path]))


@st.composite
def byte_ranges(draw):
    """A range over one to three pages of one file."""
    path = draw(st.sampled_from(sorted(FILES)))
    offset = draw(st.integers(0, FILES[path] - 1))
    first = offset // BLOCK
    end = min(FILES[path], (first + draw(st.integers(1, 3))) * BLOCK)
    return path, offset, draw(st.integers(1, end - offset))


class World:
    """A device with the files, and a cache over it."""

    def __init__(self, capacity_pages, mapped):
        self.clock = SimClock()
        self.device = StorageDevice(self.clock, DeviceModel(block_size=BLOCK),
                                    rng=make_rng(3, "device"))
        for path in FILES:
            self.device.create_file(path, content(path, 0))
        self.cache = PageCache(self.device, capacity_pages * BLOCK)
        self.mapped = mapped
        self.regions = {path: self.device.map_file(path) for path in FILES}
        #: (key, obj) of every decoded read, for repeat_hit to try.
        self.held = []

    def read_decoded(self, path, offset, length):
        key = (path, self.device.file_generation(path), offset, length)
        region = self.regions[path] if self.mapped else None
        obj = self.cache.read_decoded(path, offset, length, bytes, region)
        self.held.append((key, obj))
        return obj

    def recreate(self, path):
        generation = self.device.file_generation(path)
        self.device.delete_file(path)
        self.device.create_file(path, content(path, generation))

    def state(self):
        cache = self.cache
        return dict(pages=list(cache._pages), front=cache._front,
                    used_bytes=cache.used_bytes, decoded=list(cache._decoded),
                    stats=dict(vars(cache.stats)), now_us=self.clock.now_us)


class CacheMachine(RuleBasedStateMachine):
    @initialize(capacity_pages=st.integers(1, 4), mapped=st.booleans())
    def setup(self, capacity_pages, mapped):
        self.worlds = (World(capacity_pages, mapped),
                       World(capacity_pages, mapped))

    def each(self, step):
        results = [step(world) for world in self.worlds]
        assert results[0] == results[1]

    @rule(byte_range=byte_ranges())
    def read_decoded(self, byte_range):
        self.each(lambda world: world.read_decoded(*byte_range))

    @rule(byte_range=byte_ranges())
    def read(self, byte_range):
        self.each(lambda world: world.cache.read(*byte_range))

    @rule(path=st.sampled_from(sorted(FILES)), index=st.integers(0, 5))
    def read_block(self, path, index):
        index %= -(-FILES[path] // BLOCK)
        self.each(lambda world: bytes(world.cache.read_block(path, index)))

    @rule(count=st.integers(0, 6),
          size=st.sampled_from([BLOCK, BLOCK // 2, 3 * BLOCK]))
    def displace(self, count, size):
        # Counts up to the capacity fit, larger ones overflow it.
        self.each(lambda world: world.cache.displace(count, size))

    @rule(path=st.sampled_from(sorted(FILES)))
    def invalidate_file(self, path):
        self.each(lambda world: world.cache.invalidate_file(path))

    @rule()
    def clear(self):
        self.each(lambda world: world.cache.clear())

    @rule(path=st.sampled_from(sorted(FILES)))
    def recreate(self, path):
        self.each(lambda world: world.recreate(path))

    @rule(path=st.sampled_from(sorted(FILES)))
    def remap(self, path):
        def remap(world):
            world.regions[path] = world.device.map_file(path)
        self.each(remap)

    @precondition(lambda self: self.worlds[0].held)
    @rule(pick=st.integers(0, 1 << 16))
    def repeat_hit(self, pick):
        world, twin = self.worlds
        key, obj = world.held[pick % len(world.held)]
        before = world.state()
        if world.cache.repeat_hit(key, obj, LEAD_US):
            path, _, offset, length = key
            twin.clock.now_us += LEAD_US
            region = twin.regions[path] if twin.mapped else None
            twin.cache.read_decoded(path, offset, length, bytes, region)
        else:
            assert world.state() == before

    @invariant()
    def one_state(self):
        for world in self.worlds:
            cache = world.cache
            for path, gen, offset, length in cache._decoded:
                for index in range(offset // BLOCK,
                                   (offset + length - 1) // BLOCK + 1):
                    assert (path, gen, index) in cache._pages
            assert cache.used_bytes <= cache.capacity_bytes
        assert self.worlds[0].state() == self.worlds[1].state()


CacheMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None)
TestCacheState = CacheMachine.TestCase
