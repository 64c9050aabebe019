"""The split-manifest readers, kept as the provenance oracle.

``data.write_split_manifest`` writes one file per split of a run; nothing in
the library reads them back. These read them, so tests can check that the
manifest lists the ids each model trained on, and can rebuild the bundle
those ids induce.
"""

import os

from linklab.data import _induce_bundle


def read_split_manifest(directory):
    out = {}
    for name in ("target_train", "target_test", "shadow_train", "shadow_test"):
        path = os.path.join(directory, f"{name}.txt")
        with open(path) as fh:
            out[name] = tuple(int(line.strip()) for line in fh if line.strip())
    return out


def bundle_from_manifest(g, directory):
    """Rebuild the SplitBundle that ``write_split_manifest`` recorded, on the
    graph its ids index (one graph: under cross-graph ``transfer`` the
    shadow ids index the shadow graph)."""
    return _induce_bundle(g, **read_split_manifest(directory))
