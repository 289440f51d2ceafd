"""Property tests: batched filter probes equal the scalar loop, per filter.

The probe engine's contract (DESIGN.md section 10): ``_may_contain_many``
must return, for every input order and multiplicity, exactly the verdicts
a scalar ``may_contain`` loop would, and the stats-recording wrappers must
advance the counters identically.  Checked here with hypothesis for every
filter family — including the vectorized Bloom path (exercised whenever
the batch reaches the numpy threshold), the shared-prefix SuRF traversals
over both backends, adversarially deep common prefixes, and 0xFF edge
labels (the byte whose +1 carries in range/child arithmetic), and
run-shaped batches: one prefix's consecutive suffixes, along which the
LOUDS probe copies a verdict the shared bytes already decided.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filters import (
    BloomFilterBuilder,
    PrefixBloomFilterBuilder,
    RosettaFilterBuilder,
    SplitFilterBuilder,
    SuRFBuilder,
)

key_sets = st.sets(st.binary(min_size=1, max_size=6), min_size=1, max_size=50)
extra_probes = st.lists(st.binary(min_size=0, max_size=8), max_size=25)

# Bytes whose successor/predecessor arithmetic carries or saturates.
edge_bytes = st.sampled_from([0x00, 0x01, 0x7F, 0xFE, 0xFF])
edge_keys = st.builds(bytes, st.lists(edge_bytes, min_size=1, max_size=6))
edge_key_sets = st.sets(edge_keys, min_size=1, max_size=40)

surf_variants = st.sampled_from(["base", "hash", "real"])
surf_backends = st.sampled_from(["trie", "louds"])


def adversarial_probes(keys, extra):
    """Stored keys, their prefixes/extensions/0xFF-neighbors, noise, dups.

    Repeated 3x so Bloom batches clear the vectorization threshold."""
    probes = list(extra)
    for key in sorted(keys)[:12]:
        probes.append(key)
        probes.append(key[:-1])
        probes.append(key + b"\x00")
        probes.append(key + b"\xff")
        probes.append(key[:-1] + b"\xff")
    return probes * 3


def assert_batch_equals_scalar(build, probes):
    batch_filt, scalar_filt = build(), build()
    scalar = [scalar_filt.may_contain(p) for p in probes]
    assert batch_filt.may_contain_many(probes) == scalar
    assert batch_filt.stats.point_queries == scalar_filt.stats.point_queries
    assert batch_filt.stats.positives == scalar_filt.stats.positives
    # And the pure probe path must agree without touching stats.
    pure = build()
    assert pure.probe_many(probes) == scalar
    assert pure.stats.point_queries == 0


@given(keys=key_sets, extra=extra_probes)
@settings(max_examples=80)
def test_bloom_batch_equals_scalar(keys, extra):
    sorted_keys = sorted(keys)
    assert_batch_equals_scalar(
        lambda: BloomFilterBuilder(10.0).build(sorted_keys),
        adversarial_probes(keys, extra))


@given(keys=key_sets, extra=extra_probes, whole_key=st.booleans())
@settings(max_examples=80)
def test_prefix_bloom_batch_equals_scalar(keys, extra, whole_key):
    sorted_keys = sorted(keys)
    assert_batch_equals_scalar(
        lambda: PrefixBloomFilterBuilder(
            prefix_len=2, whole_key_filtering=whole_key).build(sorted_keys),
        adversarial_probes(keys, extra))


@given(keys=key_sets, extra=extra_probes, variant=surf_variants,
       backend=surf_backends)
@settings(max_examples=100)
def test_surf_batch_equals_scalar(keys, extra, variant, backend):
    sorted_keys = sorted(keys)
    assert_batch_equals_scalar(
        lambda: SuRFBuilder(variant=variant, suffix_bits=8,
                            backend=backend).build(sorted_keys),
        adversarial_probes(keys, extra))


@given(keys=edge_key_sets, extra=st.lists(edge_keys, max_size=25),
       variant=surf_variants, backend=surf_backends)
@settings(max_examples=80)
def test_surf_batch_edge_labels(keys, extra, variant, backend):
    sorted_keys = sorted(keys)
    assert_batch_equals_scalar(
        lambda: SuRFBuilder(variant=variant, suffix_bits=8,
                            backend=backend).build(sorted_keys),
        adversarial_probes(keys, extra))


@given(prefix=st.binary(min_size=8, max_size=16),
       suffixes=st.sets(st.binary(min_size=1, max_size=3),
                        min_size=2, max_size=25),
       probe_suffixes=st.lists(st.binary(min_size=0, max_size=4),
                               max_size=20),
       backend=surf_backends)
@settings(max_examples=60)
def test_surf_batch_deep_shared_prefixes(prefix, suffixes, probe_suffixes,
                                         backend):
    # Every stored key and probe shares a long prefix: the cursor-resume
    # path stays deep in the trie, where truncation bugs would live.
    keys = sorted(prefix + s for s in suffixes)
    probes = [prefix + s for s in probe_suffixes]
    probes += keys[:6] + [prefix, prefix[:-1], prefix + b"\xff"]
    probes *= 2
    assert_batch_equals_scalar(
        lambda: SuRFBuilder(variant="real", suffix_bits=8,
                            backend=backend).build(keys),
        probes)


@st.composite
def suffix_runs(draw):
    """(stored keys, probes) under one prefix: the probes are a run of
    consecutive two-byte suffixes, a few repeated, plus keys shorter than
    the run's (the prefix, the prefix and one byte) — shorter than the
    depth that decides their verdict, and prefixes of the run keys that
    sort right after them."""
    prefix = draw(st.binary(min_size=1, max_size=2))
    stored = draw(st.sets(st.binary(min_size=1, max_size=3),
                          min_size=1, max_size=30))
    start = draw(st.integers(0, 0xFFFF))
    stop = min(0x10000, start + draw(st.integers(1, 300)))
    run = [prefix + value.to_bytes(2, "big") for value in range(start, stop)]
    stems = sorted({key[:len(prefix) + 1] for key in run}) + [prefix]
    repeats = draw(st.lists(st.sampled_from(run), max_size=4))
    keys = sorted({prefix + suffix for suffix in stored}
                  | set(draw(st.lists(st.sampled_from(run), max_size=8))))
    return keys, run + stems + repeats


@pytest.mark.parametrize("backend", ["trie", "louds"])
@pytest.mark.parametrize("variant", ["base", "hash", "real"])
@given(case=suffix_runs(), suffix_bits=st.sampled_from([1, 8, 9, 16]))
@settings(max_examples=60)
def test_surf_batch_suffix_runs(variant, backend, case, suffix_bits):
    keys, probes = case
    assert_batch_equals_scalar(
        lambda: SuRFBuilder(variant=variant, suffix_bits=suffix_bits,
                            backend=backend).build(keys),
        probes)


@given(keys=st.sets(st.binary(min_size=3, max_size=3),
                    min_size=1, max_size=40),
       probes=st.lists(st.binary(min_size=3, max_size=3),
                       min_size=1, max_size=40))
@settings(max_examples=60)
def test_rosetta_batch_equals_scalar(keys, probes):
    sorted_keys = sorted(keys)
    assert_batch_equals_scalar(
        lambda: RosettaFilterBuilder(
            key_bytes=3, bits_per_key_per_level=8.0).build(sorted_keys),
        (probes + sorted_keys[:8]) * 3)


@given(keys=key_sets, extra=extra_probes)
@settings(max_examples=50)
def test_split_batch_equals_scalar(keys, extra):
    sorted_keys = sorted(keys)
    assert_batch_equals_scalar(
        lambda: SplitFilterBuilder().build(sorted_keys),
        adversarial_probes(keys, extra))


@given(keys=key_sets,
       bounds=st.lists(st.tuples(st.binary(min_size=0, max_size=6),
                                 st.binary(min_size=0, max_size=6)),
                       min_size=1, max_size=25),
       variant=surf_variants, backend=surf_backends)
@settings(max_examples=80)
def test_surf_range_batch_equals_scalar(keys, bounds, variant, backend):
    sorted_keys = sorted(keys)
    ranges = [(min(a, b), max(a, b)) for a, b in bounds]
    ranges += [(k, k) for k in sorted_keys[:5]]

    def build():
        return SuRFBuilder(variant=variant, suffix_bits=8,
                           backend=backend).build(sorted_keys)

    batch_filt, scalar_filt = build(), build()
    scalar = [scalar_filt.may_contain_range(lo, hi) for lo, hi in ranges]
    assert batch_filt.may_contain_range_many(ranges) == scalar
    assert (batch_filt.stats.range_queries
            == scalar_filt.stats.range_queries)
    assert (batch_filt.stats.range_positives
            == scalar_filt.stats.range_positives)
    pure = build()
    assert pure.probe_range_many(ranges) == scalar
    assert pure.stats.range_queries == 0


@given(keys=key_sets,
       bounds=st.lists(st.tuples(st.binary(min_size=1, max_size=4),
                                 st.binary(min_size=1, max_size=4)),
                       min_size=1, max_size=25))
@settings(max_examples=50)
def test_prefix_bloom_range_batch_equals_scalar(keys, bounds):
    sorted_keys = sorted(keys)
    ranges = [(min(a, b), max(a, b)) for a, b in bounds]

    def build():
        return PrefixBloomFilterBuilder(prefix_len=2).build(sorted_keys)

    batch_filt, scalar_filt = build(), build()
    scalar = [scalar_filt.may_contain_range(lo, hi) for lo, hi in ranges]
    assert batch_filt.may_contain_range_many(ranges) == scalar
    assert (batch_filt.stats.range_queries
            == scalar_filt.stats.range_queries)
    assert (batch_filt.stats.range_positives
            == scalar_filt.stats.range_positives)
