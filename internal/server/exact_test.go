package server

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"incentivetree/internal/core"
	"incentivetree/internal/experiments"
	"incentivetree/internal/ingest"
	"incentivetree/internal/journal"
	"incentivetree/internal/obs"
	"incentivetree/internal/tdrm"
	"incentivetree/internal/tree"
)

// requireServedExact fails t unless the current version's reward table
// has, participant by participant, the bits of a full evaluation of the
// current tree under m.
func requireServedExact(t *testing.T, s *Server, m core.Mechanism, when string) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	table, _, err := s.tableLocked()
	if err != nil {
		t.Fatalf("%s: table: %v", when, err)
	}
	want, err := m.Rewards(s.state.Tree)
	if err != nil {
		t.Fatalf("%s: full evaluation: %v", when, err)
	}
	for id := range want {
		if got := table.rewards.Of(tree.NodeID(id)); math.Float64bits(got) != math.Float64bits(want[id]) {
			t.Fatalf("%s: served R(%d) = %v, full evaluation %v", when, id, got, want[id])
		}
	}
}

// tdrmBatch returns n ops. Every fourth joins a participant, alternately
// under the batch's first joiner (a hub) and under the previous joiner;
// the rest contribute amounts from fractions of mu to chains far past
// it. prefix keeps names unique across batches.
func tdrmBatch(prefix string, n int) []ingest.Op {
	ops := make([]ingest.Op, 0, n)
	joined := 0
	for len(ops) < n {
		name := fmt.Sprintf("%s%02d", prefix, joined)
		if len(ops)%4 == 0 {
			sponsor := ""
			if joined > 0 {
				sponsor = fmt.Sprintf("%s%02d", prefix, joined-1)
				if joined%2 == 0 {
					sponsor = prefix + "00"
				}
			}
			ops = append(ops, ingest.Op{Kind: ingest.OpJoin, Name: name, Sponsor: sponsor})
			joined++
			continue
		}
		target := fmt.Sprintf("%s%02d", prefix, len(ops)%joined)
		ops = append(ops, ingest.Op{Kind: ingest.OpContribute, Name: target, Amount: 0.25 + float64(len(ops)%11)*0.37 + 1e6*float64(len(ops)%3)})
	}
	return ops
}

// TestTDRMCommitCostsNoEvaluation: under TDRM a committed batch is
// served from the exact engine, so it pays no mechanism evaluation, and
// the served table stays bitwise the full evaluation's across a batch,
// a rolled-back journal failure and a restore. /v1/stats reports R(T)
// with the bits of the full evaluation's total.
func TestTDRMCommitCostsNoEvaluation(t *testing.T) {
	inner, err := tdrm.Default(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m := experiments.Instrumented(inner, reg)
	var buf bytes.Buffer
	fw := &failWriter{w: &buf}
	s := New(m, WithMetrics(reg), WithJournal(journal.NewWriter(fw, 1)))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	evals := reg.Counter("itree_mechanism_rewards_total", "", "mechanism", m.Name())

	for i, res := range s.ApplyBatch(tdrmBatch("a", 64)) {
		if res.Err != nil {
			t.Fatalf("op %d: %v", i, res.Err)
		}
	}
	if n := evals.Value(); n != 0 {
		t.Fatalf("a 64-op batch paid %d evaluations, want 0", n)
	}
	requireServedExact(t, s, inner, "after batch")

	var st statsResponse
	if resp := getJSON(t, ts.URL+"/v1/stats", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats = %d", resp.StatusCode)
	}
	s.mu.RLock()
	want, err := inner.Rewards(s.state.Tree)
	s.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(st.TotalReward) != math.Float64bits(want.Total()) {
		t.Fatalf("stats total_reward = %v, full evaluation R(T) = %v", st.TotalReward, want.Total())
	}

	// The table at this version serves the engine's slice in place; a
	// batch whose append fails must not leave it serving the rolled-back
	// writes to existing participants.
	fw.fail = true
	failed := append(tdrmBatch("b", 8),
		ingest.Op{Kind: ingest.OpContribute, Name: "a03", Amount: 2.5},
		ingest.Op{Kind: ingest.OpJoin, Name: "b99", Sponsor: "a07"},
		ingest.Op{Kind: ingest.OpContribute, Name: "b99", Amount: 40})
	for i, res := range s.ApplyBatch(failed) {
		if res.Err == nil {
			t.Fatalf("op %d committed through a failing journal", i)
		}
	}
	fw.fail = false
	requireServedExact(t, s, inner, "after rollback")

	snap := s.SnapshotState()
	for i, res := range s.ApplyBatch(tdrmBatch("c", 16)) {
		if res.Err != nil {
			t.Fatalf("op %d: %v", i, res.Err)
		}
	}
	if resp := postJSON(t, ts.URL+"/v1/restore", snap); resp.StatusCode != http.StatusOK {
		t.Fatalf("restore = %d", resp.StatusCode)
	}
	requireServedExact(t, s, inner, "after restore")
	if n := evals.Value(); n != 0 {
		t.Fatalf("%d evaluations over batches, rollback and restore, want 0", n)
	}
}

// TestTDRMConcurrentWritesAndReads: readers of the version's table —
// participant views, /v1/stats, /v1/rewards, /v1/leaderboard and the
// reward gauges — run while batches change the exact engine's slice
// that table serves in place. Run under -race; afterwards the table is
// still bitwise the full evaluation's.
func TestTDRMConcurrentWritesAndReads(t *testing.T) {
	m, err := tdrm.Default(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s := New(m, WithMetrics(reg), WithBatching(ingest.Options{}))
	t.Cleanup(s.CloseIngest)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if err := s.Join("hub", ""); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			sponsor := "hub"
			for i := 0; i < 25; i++ {
				name := fmt.Sprintf("w%d-%02d", w, i)
				if _, err := s.SubmitJoin(ctx, name, sponsor); err != nil {
					t.Errorf("join %s: %v", name, err)
					return
				}
				if _, err := s.SubmitContribute(ctx, name, 0.5+float64(i)); err != nil {
					t.Errorf("contribute %s: %v", name, err)
					return
				}
				sponsor = name
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := s.participant("hub"); err != nil {
					t.Errorf("participant: %v", err)
					return
				}
				for _, path := range []string{"/v1/stats", "/v1/rewards", "/v1/leaderboard?k=3"} {
					resp, err := http.Get(ts.URL + path)
					if err != nil {
						t.Errorf("GET %s: %v", path, err)
						return
					}
					resp.Body.Close()
				}
				reg.Snapshot()
			}
		}()
	}
	writers.Wait()
	close(done)
	readers.Wait()
	requireServedExact(t, s, m, "after concurrent writes")
}
