"""The table writer's filter: one ``build`` per table, and a block equal to
``serialize_filter``'s.

The writer asks its builder for the filter and the filter block in one
call, ``FilterBuilder.build_block``, so a builder can write the block from
what its build already holds (SuRF's terminal list) instead of reading the
built filter back.  Two things hold whatever a builder does there:

* every table the store writes — by flush, compaction, ``compact_all``
  and ``bulk_load`` — goes through the builder's ``build`` exactly once
  (a table whose build went elsewhere would also vanish from the
  benchmark tracer's ``filters.build`` span);
* the block is byte for byte ``serialize_filter`` of the filter, for every
  product builder, and is what the written file holds; SuRF's block, which
  is encoded from the build's own terminal list, is also the dict-trie
  twin's (``tests/reference/surf_build.py``) on the twin's key sets.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import surf_build as twin
from repro.common.rng import make_rng
from repro.filters import (
    BloomFilterBuilder,
    PrefixBloomFilterBuilder,
    RosettaFilterBuilder,
    SplitFilterBuilder,
    SuRFBuilder,
)
from repro.filters.serialize import deserialize_filter, serialize_filter
from repro.filters.surf import SuRF, SurfVariant, TrieBackend
from repro.filters.surf.suffix import SuffixScheme
from repro.lsm.db import LSMTree
from repro.lsm.options import LSMOptions
from repro.lsm.sstable import _FOOTER
from repro.lsm.table_build import build_table_artifact

KEY_BYTES = 5

BUILDERS = {
    "bloom": lambda: BloomFilterBuilder(10.0),
    "pbf": lambda: PrefixBloomFilterBuilder(3),
    "rosetta": lambda: RosettaFilterBuilder(KEY_BYTES, 2.0),
    "split": SplitFilterBuilder,
    **{f"surf-{backend}-{variant}":
       (lambda backend=backend, variant=variant:
        SuRFBuilder(variant, 12 if variant == "real" else 8,
                    backend=backend))
       for backend in ("trie", "louds")
       for variant in ("base", "hash", "real")},
}


def fixed_keys(n, seed=0):
    rng = make_rng(seed, "build-block")
    return sorted({rng.random_bytes(KEY_BYTES) for _ in range(n)})


def filter_block(file_bytes):
    (_, _, _, _, filter_off, filter_len, _) = _FOOTER.unpack(
        file_bytes[-_FOOTER.size:])
    return file_bytes[filter_off:filter_off + filter_len]


@pytest.mark.parametrize("name", sorted(BUILDERS))
@pytest.mark.parametrize("n", [1, 2, 300])
def test_build_block_is_serialize_filter(name, n):
    keys = fixed_keys(n)
    filt, block = BUILDERS[name]().build_block(keys)
    assert block == serialize_filter(filt)
    assert serialize_filter(deserialize_filter(block)) == block
    artifact = build_table_artifact([(key, key) for key in keys], 512,
                                    BUILDERS[name]())
    assert filter_block(artifact.file_bytes) == block


@pytest.mark.parametrize("backend", ["trie", "louds"])
@pytest.mark.parametrize("variant", ["base", "hash", "real"])
def test_surf_build_block_any_widths(backend, variant):
    # The empty key, prefix keys, shared runs of 0x00 and 0xff, and keys
    # past 64 bytes: every shape the terminal list and its LCPs take.
    keys = sorted({b"", b"a", b"ab", b"abc", b"\x00" * 70, b"\x00" * 71,
                   b"\xff" * 3, b"\xff" * 3 + b"\x00", b"\xff" * 66,
                   b"q" * 65 + b"r", b"q" * 65 + b"s"})
    builder = SuRFBuilder(variant, 16 if variant == "real" else 8,
                          backend=backend)
    filt, block = builder.build_block(keys)
    assert block == serialize_filter(filt)
    reference = SuRFBuilder(variant, 16 if variant == "real" else 8,
                            backend=backend).build(keys)
    assert serialize_filter(reference) == block


@st.composite
def key_sets(draw):
    """Sorted unique keys over a narrow or full alphabet, any widths,
    the empty key and prefix keys included (the twin test's sets)."""
    alphabet = draw(st.sampled_from([b"ab", b"abcd", bytes(range(256))]))
    keys = draw(st.sets(st.lists(st.sampled_from(alphabet), max_size=7)
                        .map(bytes), max_size=60))
    return sorted(keys)


SURF_CONFIGS = [(backend, variant, bits)
                for backend in ("trie", "louds")
                for variant, bits in (("base", 0), ("hash", 5), ("real", 8),
                                      ("real", 12))]


@given(keys=key_sets(), config=st.sampled_from(SURF_CONFIGS))
@example(keys=[], config=SURF_CONFIGS[6])
@example(keys=[b""], config=SURF_CONFIGS[6])
@example(keys=[b"", b"a", b"ab", b"abc"], config=SURF_CONFIGS[2])
@settings(max_examples=200, deadline=None)
def test_surf_build_block_matches_twin(keys, config):
    backend, variant, bits = config
    filt, block = SuRFBuilder(variant, bits, backend=backend).build_block(keys)
    scheme = SuffixScheme(SurfVariant(variant), bits)
    root = twin.build_pruned_trie(keys, scheme)
    expected = (twin.louds_from_trie(root) if backend == "louds"
                else TrieBackend(root))
    assert block == twin.encode_surf(SuRF(expected, scheme, len(keys)))
    assert (twin.collect_terminals(filt.backend)
            == twin.collect_terminals(expected))
    assert block == serialize_filter(filt)


def test_no_builder_writes_no_filter_block():
    keys = fixed_keys(50)
    artifact = build_table_artifact([(key, key) for key in keys], 512, None)
    assert artifact.filter is None
    assert filter_block(artifact.file_bytes) == b""


@pytest.mark.parametrize("name", ["surf-louds-real", "surf-trie-base",
                                  "bloom", "split"])
def test_every_written_table_builds_its_filter_once(name, monkeypatch):
    builder = BUILDERS[name]()
    builds = []
    build = type(builder).build

    def counted(self, sorted_keys, *args, **kwargs):
        if self is builder:  # not split's inner builders
            builds.append(len(sorted_keys))
        return build(self, sorted_keys, *args, **kwargs)

    monkeypatch.setattr(type(builder), "build", counted)
    options = LSMOptions(memtable_size_bytes=8 * 1024,
                         sstable_target_bytes=8 * 1024,
                         l0_compaction_trigger=3,
                         base_level_size_bytes=32 * 1024,
                         level_size_multiplier=4,
                         page_cache_bytes=256 * 1024,
                         filter_builder=builder)
    rng = make_rng(3, "build-once")
    items = [(rng.random_bytes(KEY_BYTES), rng.random_bytes(40))
             for _ in range(4000)]

    def tables_written(db):
        # Every table file the tree creates, through any write path.
        created = []
        create_file = db.device.create_file

        def counting(path, data):
            if path.startswith("sst/"):
                created.append(path)
            return create_file(path, data)

        monkeypatch.setattr(db.device, "create_file", counting)
        return created

    db = LSMTree(options)
    created = tables_written(db)
    for start in range(0, len(items), 100):
        db.put_many(items[start:start + 100])
    assert db.stats.flushes and db.compactions_run
    db.flush()
    db.compact_all()
    assert builds and len(builds) == len(created)
    assert sum(table.num_entries for table in db.version.all_tables()) \
        == len({key for key, _ in items})

    bulk = LSMTree(options)
    bulk_created = tables_written(bulk)
    before = len(builds)
    bulk.bulk_load(sorted(dict(items).items()))
    assert len(bulk_created) > 1
    assert len(builds) - before == len(bulk_created)
