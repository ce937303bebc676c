"""Tests for regret accounting (repro.core.regret)."""

from __future__ import annotations

from repro.core.regret import RegretAccumulator, RegretEntry, layout_key


def alternatives_for(regret: RegretAccumulator, sot_index: int) -> list[RegretEntry]:
    """The alternatives a SOT has regret entries for (a test probe)."""
    return [entry for (sot, _), entry in regret._entries.items() if sot == sot_index]


class TestLayoutKey:
    def test_canonical_ordering(self):
        assert layout_key(["person", "car"]) == ("car", "person")
        assert layout_key(("car", "car", "person")) == ("car", "person")
        assert layout_key([]) == ()

    def test_keys_compare_equal_regardless_of_input_order(self):
        assert layout_key(["a", "b"]) == layout_key(["b", "a"])


class TestRegretAccumulator:
    def test_starts_at_zero(self):
        regret = RegretAccumulator()
        entry = regret.ensure_alternative(0, ["car"])
        assert entry.regret == 0.0
        assert entry.observations == 0
        assert regret.ensure_alternative(0, ["car"]) is entry

    def test_accumulates_across_queries(self):
        regret = RegretAccumulator()
        regret.accumulate(0, ["car"], 2.0)
        regret.accumulate(0, ["car"], 3.0)
        regret.accumulate(0, ["car"], -1.0)
        entry = regret.ensure_alternative(0, ["car"])
        assert entry.regret == 4.0
        assert entry.observations == 3

    def test_alternatives_are_per_sot(self):
        regret = RegretAccumulator()
        regret.accumulate(0, ["car"], 1.0)
        regret.accumulate(1, ["car"], 5.0)
        assert regret.ensure_alternative(0, ["car"]).regret == 1.0
        assert regret.ensure_alternative(1, ["car"]).regret == 5.0
        assert len(alternatives_for(regret, 0)) == 1

    def test_exceeding_threshold(self):
        # The policy compares an entry's regret against its threshold itself.
        regret = RegretAccumulator()
        regret.accumulate(0, ["car"], 1.0)
        regret.accumulate(0, ["person"], 10.0)
        over = [
            entry.objects
            for entry in alternatives_for(regret, 0)
            if entry.regret > 5.0
        ]
        assert over == [("person",)]
        assert not any(entry.regret > 100.0 for entry in alternatives_for(regret, 0))

    def test_reset_clears_only_that_sot(self):
        regret = RegretAccumulator()
        regret.accumulate(0, ["car"], 1.0)
        regret.accumulate(1, ["car"], 2.0)
        regret.reset(0)
        assert alternatives_for(regret, 0) == []
        assert regret.ensure_alternative(1, ["car"]).regret == 2.0
        assert len(alternatives_for(regret, 1)) == 1

    def test_negative_regret_tracks_harmful_layouts(self):
        """Layouts that would have slowed queries accumulate negative regret."""
        regret = RegretAccumulator()
        regret.accumulate(0, ["person"], -2.0)
        entry = regret.accumulate(0, ["person"], -1.5)
        assert entry.regret == -3.5
        assert not entry.regret > 0.0, "never past a zero threshold"
