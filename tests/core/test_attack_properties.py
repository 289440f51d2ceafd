"""Property-based attack invariants over randomly generated datasets.

These pin the attack's core correctness claims for arbitrary key sets, at
the filter level (no LSM, no timing — the logic under test is the
strategy, not the oracle):

* every prefix IdPrefix identifies is a true prefix of some stored key
  (characteristic C2 of section 5.2), for both IdPrefix modes;
* extending an identified prefix finds a genuinely stored key;
* FindFPK's positives all pass the filter (by construction of the oracle)
  and are false positives whenever the keyspace is sparse.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.extension import extend_prefix
from repro.core.oracle import ProbeOracle
from repro.core.surf_attack import SurfAttackStrategy
from repro.filters.surf import SuRF
from repro.filters.surf.suffix import SuffixScheme, SurfVariant
from repro.system.responses import Status

WIDTH = 4


class FilterOracle(ProbeOracle):
    """Classification straight from a filter; probes from a key set."""

    def __init__(self, filt, stored):
        self.filt = filt
        self.stored = stored

    def classify(self, keys):
        return [self.filt.may_contain(k) for k in keys]

    def wait_for_eviction(self):
        pass

    def probe(self, key):
        return (Status.UNAUTHORIZED if key in self.stored
                else Status.NOT_FOUND)


key_sets = st.sets(st.binary(min_size=WIDTH, max_size=WIDTH),
                   min_size=2, max_size=120)


@given(keys=key_sets, mode=st.sampled_from(["truncate", "replace"]),
       variant=st.sampled_from(["base", "real"]), seed=st.integers(0, 1000))
@settings(max_examples=60, deadline=None)
def test_identified_prefixes_are_true_prefixes(keys, mode, variant, seed):
    sorted_keys = sorted(keys)
    filt = SuRF.build(sorted_keys, variant=variant, suffix_bits=8)
    scheme = SuffixScheme(SurfVariant(variant), 8)
    strategy = SurfAttackStrategy(WIDTH, scheme, mode=mode,
                                  confirm_probes=2, seed=seed)
    oracle = FilterOracle(filt, set(sorted_keys))
    fps = strategy.find_false_positives(
        oracle, strategy.generate_candidates(400))
    candidates = strategy.identify_prefixes(oracle, fps)
    for cand in candidates:
        assert cand.fp_key.startswith(cand.prefix)
        if len(cand.prefix) >= 2:
            # Informative prefixes must be real shared prefixes (C2).
            assert any(k.startswith(cand.prefix) for k in sorted_keys)


@given(keys=key_sets, seed=st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_extension_of_true_prefix_finds_stored_key(keys, seed):
    sorted_keys = sorted(keys)
    stored = set(sorted_keys)
    target = sorted_keys[seed % len(sorted_keys)]
    prefix = target[:2]
    oracle = FilterOracle(None, stored)
    result = extend_prefix(oracle, prefix, WIDTH)
    assert result.found
    assert result.key in stored
    assert result.key.startswith(prefix)
    # In-order enumeration finds the *smallest* stored key under the prefix.
    assert result.key == min(k for k in sorted_keys if k.startswith(prefix))


@given(keys=key_sets)
@settings(max_examples=40, deadline=None)
def test_findfpk_positives_pass_the_filter(keys):
    sorted_keys = sorted(keys)
    filt = SuRF.build(sorted_keys, variant="real", suffix_bits=8)
    strategy = SurfAttackStrategy(WIDTH, SuffixScheme(SurfVariant.REAL, 8),
                                  seed=9)
    oracle = FilterOracle(filt, set(sorted_keys))
    fps = strategy.find_false_positives(
        oracle, strategy.generate_candidates(300))
    assert all(filt.may_contain(fp) for fp in fps)
