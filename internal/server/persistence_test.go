package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"incentivetree/internal/core"
	"incentivetree/internal/geometric"
	"incentivetree/internal/journal"
)

func mech(t *testing.T) core.Mechanism {
	t.Helper()
	m, err := geometric.Default(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func populate(t *testing.T, s *Server) {
	t.Helper()
	if err := s.Join("ada", ""); err != nil {
		t.Fatal(err)
	}
	if err := s.Join("bo", "ada"); err != nil {
		t.Fatal(err)
	}
	if err := s.Contribute("ada", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Contribute("bo", 3); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := New(mech(t))
	populate(t, s)
	snap := s.SnapshotState()

	restored := New(mech(t))
	if err := restored.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	p, err := restored.participant("bo")
	if err != nil {
		t.Fatal(err)
	}
	if p.Contribution != 3 || p.Sponsor != "ada" {
		t.Fatalf("restored bo = %+v", p)
	}
	// Writes continue to work after restore.
	if err := restored.Contribute("bo", 1); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotIsIsolatedCopy(t *testing.T) {
	s := New(mech(t))
	populate(t, s)
	snap := s.SnapshotState()
	if err := s.Contribute("ada", 10); err != nil {
		t.Fatal(err)
	}
	if got := snap.Tree.Total(); got != 5 {
		t.Fatalf("snapshot mutated: total = %v", got)
	}
}

func TestRestoreRejectsBadSnapshots(t *testing.T) {
	s := New(mech(t))
	if err := s.RestoreState(Snapshot{}); err == nil {
		t.Fatal("nil tree should be rejected")
	}
	// Duplicate names.
	dupe := New(mech(t))
	populate(t, dupe)
	snap := dupe.SnapshotState()
	if err := snap.Tree.SetLabel(2, "ada"); err != nil {
		t.Fatal(err)
	}
	if err := s.RestoreState(snap); err == nil {
		t.Fatal("duplicate names should be rejected")
	}
}

func TestJournalRecordsWrites(t *testing.T) {
	var wal bytes.Buffer
	s := New(mech(t), WithJournal(journal.NewWriter(&wal, 1)))
	populate(t, s)
	events, err := journal.Read(&wal)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("journal has %d events, want 4", len(events))
	}
	if events[0].Kind != journal.KindJoin || events[2].Kind != journal.KindContribute {
		t.Fatalf("unexpected kinds: %+v", events)
	}
}

func TestRecoverFromJournalOnly(t *testing.T) {
	var wal bytes.Buffer
	s := New(mech(t), WithJournal(journal.NewWriter(&wal, 1)))
	populate(t, s)
	want := s.SnapshotState()

	events, err := journal.Read(&wal)
	if err != nil {
		t.Fatal(err)
	}
	fresh := New(mech(t))
	if err := Recover(fresh, nil, events); err != nil {
		t.Fatal(err)
	}
	if !fresh.SnapshotState().Tree.Equal(want.Tree) {
		t.Fatal("journal-only recovery diverged")
	}
}

func TestRecoverFromSnapshotPlusSuffix(t *testing.T) {
	var wal bytes.Buffer
	s := New(mech(t), WithJournal(journal.NewWriter(&wal, 1)))
	if err := s.Join("ada", ""); err != nil {
		t.Fatal(err)
	}
	if err := s.Contribute("ada", 2); err != nil {
		t.Fatal(err)
	}
	snap := s.SnapshotState() // covers seq 1-2
	if err := s.Join("bo", "ada"); err != nil {
		t.Fatal(err)
	}
	if err := s.Contribute("bo", 5); err != nil {
		t.Fatal(err)
	}
	want := s.SnapshotState()

	events, err := journal.Read(&wal)
	if err != nil {
		t.Fatal(err)
	}
	fresh := New(mech(t))
	if err := Recover(fresh, &snap, events); err != nil {
		t.Fatal(err)
	}
	if !fresh.SnapshotState().Tree.Equal(want.Tree) {
		t.Fatalf("snapshot+suffix recovery diverged:\n%s\nvs\n%s",
			fresh.SnapshotState().Tree.Render(), want.Tree.Render())
	}
	if fresh.SnapshotState().LastSeq != want.LastSeq {
		t.Fatalf("LastSeq = %d, want %d", fresh.SnapshotState().LastSeq, want.LastSeq)
	}
}

func TestSnapshotAndRestoreEndpoints(t *testing.T) {
	s, ts := newTestServer(t)
	if err := s.Join("ada", ""); err != nil {
		t.Fatal(err)
	}
	if err := s.Contribute("ada", 4); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	getJSON(t, ts.URL+"/v1/snapshot", &snap)
	if snap.Tree == nil || snap.Tree.Total() != 4 {
		t.Fatalf("snapshot = %+v", snap)
	}

	// Restore into a second server over HTTP.
	_, ts2 := newTestServer(t)
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts2.URL+"/v1/restore", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restore status = %d", resp.StatusCode)
	}
	var ada Participant
	getJSON(t, ts2.URL+"/v1/participants/ada", &ada)
	if ada.Contribution != 4 {
		t.Fatalf("restored ada = %+v", ada)
	}

	// Malformed restore.
	resp, err = http.Post(ts2.URL+"/v1/restore", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed restore status = %d", resp.StatusCode)
	}
}

// TestOversizeJoinRejected: a join the journal cannot hold is refused,
// never acknowledged. Over HTTP the body bound answers 413 before the
// op reaches the journal; a programmatic join whose record would
// exceed the binary payload limit fails its append and rolls back.
// Either way the journal still reads back and recovers.
func TestOversizeJoinRejected(t *testing.T) {
	var log bytes.Buffer
	s := New(mech(t), WithJournal(journal.NewWriterMode(&log, 1, journal.ModeBinary)))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if err := s.Join("ada", ""); err != nil {
		t.Fatal(err)
	}
	bigName := strings.Repeat("x", 2*maxWriteBody)
	for path, body := range map[string]any{
		"/v1/join":       map[string]string{"name": bigName},
		"/v1/contribute": map[string]any{"name": bigName, "amount": 1},
	} {
		resp := postJSON(t, ts.URL+path, body)
		var e errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || e.Error == "" {
			t.Fatalf("POST %s with a %d-byte name = %d %q, want 413", path, len(bigName), resp.StatusCode, e.Error)
		}
	}
	if err := s.Join(strings.Repeat("y", 1<<26), "ada"); err == nil || !strings.Contains(err.Error(), "journal append") {
		t.Fatalf("64 MiB join = %v, want journal append refusal", err)
	}
	if s.LastSeq() != 1 || s.Has(bigName) {
		t.Fatalf("after refusals: LastSeq %d, want 1", s.LastSeq())
	}
	if err := s.Join("bo", "ada"); err != nil {
		t.Fatal(err)
	}
	events, err := journal.Read(&log)
	if err != nil {
		t.Fatalf("journal no longer reads back: %v", err)
	}
	rec := New(mech(t))
	if err := Recover(rec, nil, events); err != nil || rec.LastSeq() != 2 || !rec.Has("bo") {
		t.Fatalf("recovered LastSeq %d, err %v; want 2 with bo", rec.LastSeq(), err)
	}
}
