"""The semantic index (Section 3.2 of the paper).

The semantic index stores labelled bounding boxes keyed by
``(video, label, time)`` so that ``Scan`` can find the regions a query needs
with a range scan over time.  :class:`BTreeSemanticIndex` is the one
implementation: an in-memory, frame-sorted list per ``(video, label)`` under
one lock.
"""

from .semantic_index import BTreeSemanticIndex, IndexEntry

__all__ = ["IndexEntry", "BTreeSemanticIndex"]
