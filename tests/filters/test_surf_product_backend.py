"""No product path builds the dict-trie: every default SuRF is LOUDS.

The paper attacks SuRF in its succinct LOUDS-DS form, so every SuRF a
store, an experiment or the CLI builds by default must be a
``LoudsBackend``: the builder, ``SuRF.build``, the split filter's range
half, the CLI's ``surf-*`` filters, and a default-built store's tables
before and after a flush and a reopen.  The dict-trie stays only as the
reference the tests select by name; a filter block that carries its
backend code still decodes.
"""

import pytest

from repro.cli import DEMO_FILTERS, _make_filter_builder
from repro.common.rng import make_rng
from repro.filters import SplitFilterBuilder, SuRFBuilder
from repro.filters.serialize import deserialize_filter, serialize_filter
from repro.filters.surf import SuRF, TrieBackend
from repro.filters.surf.louds import LoudsBackend
from repro.lsm.db import LSMTree
from repro.workloads import DatasetConfig, build_environment


@pytest.fixture(scope="module")
def keys():
    rng = make_rng(5, "product-backend")
    return sorted({rng.random_bytes(5) for _ in range(500)})


def test_builder_and_build_default_to_louds(keys):
    assert isinstance(SuRFBuilder().build(keys).backend, LoudsBackend)
    assert isinstance(SuRF.build(keys).backend, LoudsBackend)
    filt, block = SuRFBuilder("base").build_block(keys)
    assert isinstance(filt.backend, LoudsBackend)
    assert isinstance(deserialize_filter(block).backend, LoudsBackend)


def test_split_filter_range_half_is_louds(keys):
    split = SplitFilterBuilder().build(keys)
    assert isinstance(split.range_filter.backend, LoudsBackend)


@pytest.mark.parametrize("name", [name for name in DEMO_FILTERS
                                  if name.startswith("surf-")])
def test_cli_surf_filters_are_louds(name, keys):
    filt = _make_filter_builder(name, key_width=5).build(keys)
    assert isinstance(filt.backend, LoudsBackend)


def _table_backends(db):
    return {type(table.filter.backend)
            for table in db.versions.current.all_tables()}


def test_default_store_tables_are_louds_after_flush_and_reopen():
    env = build_environment(DatasetConfig(
        num_keys=3000, key_width=5, seed=3, filter_builder=SuRFBuilder()))
    db = env.db
    assert _table_backends(db) == {LoudsBackend}
    db.put_many([(b"late-%04d" % i, b"v") for i in range(50)])
    db.flush()
    assert _table_backends(db) == {LoudsBackend}
    db.close()
    reopened = LSMTree.reopen(env.device, db.options)
    assert _table_backends(reopened) == {LoudsBackend}
    reopened.close()


def test_trie_coded_filter_block_still_decodes(keys):
    trie = SuRF.build(keys, backend="trie")
    decoded = deserialize_filter(serialize_filter(trie))
    assert isinstance(decoded.backend, TrieBackend)
    louds = SuRF.build(keys)
    probes = keys[::7] + [key[:-1] + b"\x00" for key in keys[::5]]
    assert ([decoded.may_contain(probe) for probe in probes]
            == [louds.may_contain(probe) for probe in probes])
