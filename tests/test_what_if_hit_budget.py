"""A clock-free budget for the regret policy's hit path.

Once every what-if answer about a SOT is memoised, a policy visit to it is
three memo reads — the current and untiled costs, the alternatives' layouts,
the alternatives' costs — and a probe per question, and reading a SOT's index
generation sums no per-frame write counter while nothing is written.  Before
the reads were batched, a visit read the memo once per question (eight times
a visit here, with two classes seen), and every read summed the SOT's ten
per-frame counters.
"""

from __future__ import annotations

import pytest

from repro.core.policies import IncrementalRegretPolicy
from repro.core.query import Query
from repro.core.tasm import TASM
from repro.index.semantic_index import BTreeSemanticIndex

from tests.conftest import run_w4_on_smoke_road


class KeepsTheLayout:
    """A RetileExecutor that re-encodes nothing."""

    def retile(self, video_name, sot_index, layout) -> float:
        return 0.0


@pytest.fixture(scope="module")
def warm():
    """W4's final state, and a step whose answers are all memoised: a query
    over every SOT, after the policy has seen both of W4's classes."""
    tasm, video = run_w4_on_smoke_road()
    policy = IncrementalRegretPolicy()

    def step(label: str = "car") -> None:
        query = Query.select_range(label, video.name, 0, video.frame_count)
        assert tasm.execute(query).regions
        policy.on_query(tasm, KeepsTheLayout(), video.name, query)

    step("person"), step("car")
    return tasm, video, step


def counting(monkeypatch, owner, attribute: str, calls: dict) -> dict:
    calls[attribute] = 0
    original = getattr(owner, attribute)

    def counted(*args, **kwargs):
        calls[attribute] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attribute, counted)
    return calls


def test_a_visit_reads_the_memo_once_per_batch(warm, monkeypatch):
    tasm, video, step = warm
    calls = counting(monkeypatch, TASM, "_what_if_answers", {})
    counting(monkeypatch, IncrementalRegretPolicy, "_process_sot", calls)
    step()
    scan_reads = tasm.video(video.name).sot_count  # the scan's piece per SOT
    assert calls["_process_sot"] == 2
    assert calls["_what_if_answers"] - scan_reads == 3 * calls["_process_sot"]


def test_generation_reads_sum_no_counter_while_nothing_is_written(warm, monkeypatch):
    tasm, video, step = warm
    calls = counting(monkeypatch, BTreeSemanticIndex, "_sum_writes", {})
    step()
    assert calls["_sum_writes"] == 0
    tasm.add_metadata(video.name, 3, "car", 0, 0, 8, 8)
    step()
    assert calls["_sum_writes"] == tasm.video(video.name).sot_count  # once a range
