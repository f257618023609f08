"""The durable request journal: framing, recovery, compaction, torn writes
(ISSUE 10 tentpole part 2)."""

import json

import pytest

from repro.core.faults import FAULT_KINDS, FAULT_SITES, FaultPlan, FaultSpec, installed
from repro.serve.journal import JOURNAL_MAGIC, RequestJournal


def test_journal_torn_write_fault_registered():
    assert "journal-torn-write" in FAULT_KINDS
    assert FAULT_SITES["journal-append"] == ("journal-torn-write",)
    assert FaultSpec(kind="journal-torn-write").site == "journal-append"


class TestAcceptAnswer:
    def test_accept_then_answer_leaves_no_lag(self, tmp_path):
        journal = RequestJournal(tmp_path / "requests.wal")
        seq = journal.accept("forward", "int main(){}", {"max_refinements": 8}, "fp1")
        assert journal.lag == 1
        journal.answer(seq, "safe")
        assert journal.lag == 0
        assert journal.accepted == 1
        assert journal.answered == 1
        journal.close()

    def test_sequence_numbers_are_monotonic(self, tmp_path):
        journal = RequestJournal(tmp_path / "requests.wal")
        seqs = [
            journal.accept(f"t{i}", "src", None, f"fp{i}") for i in range(5)
        ]
        assert seqs == sorted(seqs) and len(set(seqs)) == 5
        journal.close()

    def test_answer_is_idempotent(self, tmp_path):
        journal = RequestJournal(tmp_path / "requests.wal")
        seq = journal.accept("t", "src", None, "fp")
        journal.answer(seq, "safe")
        journal.answer(seq, "safe")  # double-answer: no error, no double count
        journal.answer(999, "safe")  # unknown seq: ignored
        assert journal.answered == 1
        journal.close()

    def test_records_are_framed_json(self, tmp_path):
        path = tmp_path / "requests.wal"
        journal = RequestJournal(path)
        journal.accept("t", "src", {"max_refinements": 2}, "fp", client_id="ci")
        journal.close()
        data = path.read_bytes()
        assert data[:4] == JOURNAL_MAGIC
        length = int.from_bytes(data[4:8], "big")
        record = json.loads(data[8 : 8 + length])
        assert record["type"] == "accepted"
        assert record["name"] == "t"
        assert record["options"] == {"max_refinements": 2}
        assert record["client_id"] == "ci"


class TestRecovery:
    def test_unanswered_records_are_recovered(self, tmp_path):
        path = tmp_path / "requests.wal"
        journal = RequestJournal(path)
        s1 = journal.accept("done", "src1", None, "fp1")
        journal.accept("lost", "src2", {"strategy": "dfs"}, "fp2")
        journal.answer(s1, "safe")
        journal.close()

        reopened = RequestJournal(path)
        assert [r["name"] for r in reopened.recovered] == ["lost"]
        assert reopened.recovered[0]["options"] == {"strategy": "dfs"}
        assert reopened.lag == 1
        reopened.close()

    def test_recovered_seqs_survive_and_new_seqs_continue(self, tmp_path):
        path = tmp_path / "requests.wal"
        journal = RequestJournal(path)
        journal.accept("a", "src", None, "fp1")
        lost_seq = journal.accept("b", "src", None, "fp2")
        journal.answer(1, "safe")
        journal.close()

        reopened = RequestJournal(path)
        assert reopened.recovered[0]["seq"] == lost_seq
        assert reopened.accept("c", "src", None, "fp3") > lost_seq
        reopened.close()

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "requests.wal"
        journal = RequestJournal(path)
        journal.accept("intact", "src", None, "fp1")
        journal.close()
        with open(path, "ab") as handle:
            # A frame promising 500 bytes but delivering 9: a crashed writer.
            handle.write(JOURNAL_MAGIC + (500).to_bytes(4, "big") + b'{"partial')

        reopened = RequestJournal(path)
        assert reopened.torn_dropped == 1
        assert [r["name"] for r in reopened.recovered] == ["intact"]
        reopened.close()

    def test_garbage_tail_is_dropped(self, tmp_path):
        path = tmp_path / "requests.wal"
        journal = RequestJournal(path)
        journal.accept("intact", "src", None, "fp1")
        journal.close()
        with open(path, "ab") as handle:
            handle.write(b"not a frame at all")

        reopened = RequestJournal(path)
        assert reopened.torn_dropped == 1
        assert [r["name"] for r in reopened.recovered] == ["intact"]
        reopened.close()

    def test_reopen_compacts_answered_records_away(self, tmp_path):
        path = tmp_path / "requests.wal"
        journal = RequestJournal(path)
        for i in range(10):
            seq = journal.accept(f"t{i}", "src", None, f"fp{i}")
            journal.answer(seq, "safe")
        journal.accept("pending", "src", None, "fp-pending")
        journal.close()
        size_before = path.stat().st_size

        reopened = RequestJournal(path)
        reopened.close()
        # Only the single outstanding record survives the rewrite.
        assert path.stat().st_size < size_before
        final = RequestJournal(path)
        assert [r["name"] for r in final.recovered] == ["pending"]
        final.close()

    def test_missing_file_starts_empty(self, tmp_path):
        journal = RequestJournal(tmp_path / "fresh" / "requests.wal")
        assert journal.recovered == []
        assert journal.lag == 0
        journal.close()


class TestTornWriteFault:
    def test_injected_torn_write_is_dropped_on_recovery(self, tmp_path):
        """Regression pin for the ``journal-torn-write`` fault kind: the
        injected partial frame is byte-for-byte a crashed writer's tail and
        recovery must drop exactly it, keeping every intact record."""
        path = tmp_path / "requests.wal"
        journal = RequestJournal(path)
        journal.accept("before", "src", None, "fp-before")
        plan = FaultPlan(
            [FaultSpec(kind="journal-torn-write", key="torn", attempts=())]
        )
        with installed(plan):
            journal.accept("torn", "src", None, "fp-torn")
        journal.close()

        reopened = RequestJournal(path)
        assert reopened.torn_dropped == 1
        # The torn record is unrecoverable (by design — it never fully made
        # it to disk); everything before it survives.
        assert [r["name"] for r in reopened.recovered] == ["before"]
        reopened.close()

    def test_fault_is_inert_without_a_plan(self, tmp_path):
        path = tmp_path / "requests.wal"
        journal = RequestJournal(path)
        journal.accept("clean", "src", None, "fp")
        journal.close()
        reopened = RequestJournal(path)
        assert reopened.torn_dropped == 0
        assert [r["name"] for r in reopened.recovered] == ["clean"]
        reopened.close()


class TestRuntimeCompaction:
    def test_log_stays_bounded_under_churn(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.serve.journal.JOURNAL_COMPACT_BYTES", 2048)
        path = tmp_path / "requests.wal"
        journal = RequestJournal(path)
        for i in range(200):
            seq = journal.accept(f"t{i}", "x" * 50, None, f"fp{i}")
            journal.answer(seq, "safe")
        journal.close()
        # 200 accept+answer pairs at ~100+ bytes each would be >20 KiB
        # unbounded; compaction keeps the file near-empty (no outstanding).
        assert path.stat().st_size < 4096
