"""The single source of version and hashing-provenance identifiers.

Everything that stamps stored artifacts — the content-addressed result
cache, observability manifests, ``BENCH_*.json`` records, and the
``repro.api`` ``/context`` manifest — reads the identifiers from here,
so a stored result can always be checked against the code that could
have produced it:

* :data:`__version__` — the library release.  The result cache keys on
  it, so a release never serves stale records.
* :data:`SPEC_HASH_VERSION` — the spec-hash algorithm: how
  :meth:`repro.harness.spec.ExperimentSpec.content_hash` canonicalizes
  and digests a spec.  Bump it if the canonical form or digest ever
  changes; two stores with different values must not be merged.
"""

from __future__ import annotations

__all__ = ["__version__", "SPEC_HASH_VERSION"]

__version__ = "6.2.0"

#: Spec-hash algorithm identifier: SHA-256 over the canonical JSON
#: encoding (sorted keys, compact separators, ``name`` excluded,
#: ``failures: null`` dropped) of an ``ExperimentSpec``.
SPEC_HASH_VERSION = "spec-hash/1-sha256"
