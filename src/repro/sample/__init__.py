"""repro.sample — interval-sampled simulation with cycle projection.

Slices a program's dynamic op stream into fixed-size intervals,
fingerprints each with a memory-access/op-class feature vector, clusters
the fingerprints (seeded k-means, k by BIC), times a few members per
cluster in detail through the streaming pipeline with a warm-up window
and ambient-cache checkpointing, and projects
whole-program cycles with per-cluster error bars.  See
``docs/ARCHITECTURE.md`` §11 for the dataflow and the warm-state
contract.
"""

from repro.sample.cluster import (
    Clustering,
    cluster_intervals,
    kmeans,
    representatives,
)
from repro.sample.fingerprint import FEATURE_NAMES, FingerprintAccumulator
from repro.sample.intervals import (
    FingerprintRun,
    IntervalRecord,
    Segment,
    collect_segments,
    fingerprint_pass,
    safe_cut,
)
from repro.sample.project import (
    DEFAULT_ERROR_BOUND_PCT,
    SAMPLES_PER_CLUSTER,
    ClusterStat,
    SampleReport,
    resolve_spec,
    sample_loop,
    sample_named,
)

__all__ = [
    "Clustering",
    "cluster_intervals",
    "kmeans",
    "representatives",
    "FEATURE_NAMES",
    "FingerprintAccumulator",
    "FingerprintRun",
    "IntervalRecord",
    "Segment",
    "collect_segments",
    "fingerprint_pass",
    "safe_cut",
    "DEFAULT_ERROR_BOUND_PCT",
    "SAMPLES_PER_CLUSTER",
    "ClusterStat",
    "SampleReport",
    "resolve_spec",
    "sample_loop",
    "sample_named",
]
