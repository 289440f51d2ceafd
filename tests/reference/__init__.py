"""Reference implementations the equivalence suites compare ``src/`` to.

Each production job has one path in ``src/repro``; the slower, simpler
twin it replaced lives here, called directly by the tests that hold the
two together.  Each module's docstring says what its oracle proves:
:mod:`reference.point_read` (clock), :mod:`reference.streaming_build`
(bytes, logical content), :mod:`reference.unmappable` (range-side clock:
reads without mapped regions charge like mapped ones),
:mod:`reference.churn` (cache state after an eviction wait),
:mod:`reference.surf_build` (SuRF structure and filter-block bytes),
:mod:`reference.bloom_build` (Bloom-family filter-block bytes and probe
verdicts).
Imported as ``reference``: pytest puts ``tests/`` on ``sys.path``.
"""
