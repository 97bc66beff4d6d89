"""Hot-path acceleration: shared per-topology path/routing caches.

See :mod:`repro.perf.pathcache` for the design.  The vectorized compute
kernels themselves live next to the code they accelerate
(:mod:`repro.throughput.lp`, :mod:`repro.flowsim.fairshare`); this
package owns the structures they share, and :class:`Lru`, the one
bounded, counted LRU every warm cache in the library uses.
"""

from .lru import Lru
from .pathcache import (
    PathCache,
    clear_shared_caches,
    invalidate_shared_cache,
    shared_cache_stats,
    shared_path_cache,
    topology_content_hash,
)

__all__ = [
    "Lru",
    "PathCache",
    "shared_path_cache",
    "shared_cache_stats",
    "topology_content_hash",
    "clear_shared_caches",
    "invalidate_shared_cache",
]
