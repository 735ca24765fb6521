package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"incentivetree/internal/core"
	"incentivetree/internal/experiments"
	"incentivetree/internal/geometric"
	"incentivetree/internal/ingest"
	"incentivetree/internal/obs"
	"incentivetree/internal/tree"
)

// flakyMechanism fails every evaluation while fail is set.
type flakyMechanism struct {
	core.Mechanism
	fail atomic.Bool
}

func (f *flakyMechanism) Rewards(t *tree.Tree) (core.Rewards, error) {
	if f.fail.Load() {
		return nil, errors.New("evaluation failed")
	}
	return f.Mechanism.Rewards(t)
}

// TestRewardTableOneEvaluationPerVersion: every reader at one commit
// version — participant reads, /v1/rewards, /v1/leaderboard, /v1/stats
// and a metrics scrape — shares one mechanism evaluation, and the
// evaluation a batch pays serves them all. The cache counters count the
// reads only: a hit when the table existed, a miss when a read built it.
func TestRewardTableOneEvaluationPerVersion(t *testing.T) {
	g, err := geometric.Default(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyMechanism{Mechanism: g}
	reg := obs.NewRegistry()
	m := experiments.Instrumented(flaky, reg)
	s := New(m, WithMetrics(reg))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	evals := reg.Counter("itree_mechanism_rewards_total", "", "mechanism", m.Name())
	hits := reg.Counter("itree_rewards_cache_hits_total", "")
	misses := reg.Counter("itree_rewards_cache_misses_total", "")

	const n = 20
	sponsor := ""
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("p%02d", i)
		if err := s.Join(name, sponsor); err != nil {
			t.Fatal(err)
		}
		if err := s.Contribute(name, float64(i+1)); err != nil {
			t.Fatal(err)
		}
		sponsor = name
	}
	get := func(path string, want int) {
		t.Helper()
		if resp := getJSON(t, ts.URL+path, nil); resp.StatusCode != want {
			t.Fatalf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
	readAll := func() {
		t.Helper()
		for i := 0; i < n; i++ {
			get(fmt.Sprintf("/v1/participants/p%02d", i), http.StatusOK)
		}
		get("/v1/rewards", http.StatusOK)
		get("/v1/leaderboard?k=5", http.StatusOK)
		get("/v1/stats", http.StatusOK)
		reg.Snapshot()
	}
	const reads = n + 3 // participants, rewards, leaderboard, stats
	cost := func(what string, want uint64, f func()) {
		t.Helper()
		before := evals.Value()
		f()
		if got := evals.Value() - before; got != want {
			t.Fatalf("%s: %d evaluations, want %d", what, got, want)
		}
	}
	counters := func(what string, wantHits, wantMisses uint64) {
		t.Helper()
		if h, m := hits.Value(), misses.Value(); h != wantHits || m != wantMisses {
			t.Fatalf("%s: hits=%d misses=%d, want %d/%d", what, h, m, wantHits, wantMisses)
		}
	}

	// Direct writes build no table: the first read builds it.
	cost("reads after direct writes", 1, readAll)
	counters("reads after direct writes", reads-1, 1)

	// A batch builds the table its version serves from.
	cost("batch", 1, func() {
		if res := s.ApplyBatch([]ingest.Op{{Kind: ingest.OpContribute, Name: "p03", Amount: 2}}); res[0].Err != nil {
			t.Fatal(res[0].Err)
		}
	})
	cost("reads after a batch", 0, readAll)
	counters("reads after a batch", 2*reads-1, 1)

	// Concurrent readers at a fresh version share one build.
	if err := s.Contribute("p04", 1); err != nil {
		t.Fatal(err)
	}
	cost("16 concurrent readers", 1, func() {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if _, err := s.participant("p04"); err != nil {
					t.Error(err)
				}
			}()
		}
		close(start)
		wg.Wait()
	})
	counters("concurrent readers", 2*reads-1+15, 2)

	// A failed build is not memoized: each read retries it.
	if err := s.Contribute("p05", 1); err != nil {
		t.Fatal(err)
	}
	flaky.fail.Store(true)
	cost("failing reads", 2, func() {
		get("/v1/rewards", http.StatusInternalServerError)
		get("/v1/stats", http.StatusInternalServerError)
	})
	flaky.fail.Store(false)
	cost("reads after the failure clears", 1, readAll)

	// Quarantine and restore retire the table.
	if err := s.Quarantine("p10"); err != nil {
		t.Fatal(err)
	}
	cost("reads after quarantine", 1, readAll)
	var p Participant
	getJSON(t, ts.URL+"/v1/participants/p12", &p)
	if !p.Quarantined || p.Reward != 0 {
		t.Fatalf("p12 under quarantined p10 served %+v", p)
	}
	if err := s.RestoreState(s.SnapshotState()); err != nil {
		t.Fatal(err)
	}
	cost("reads after restore", 1, readAll)
}

// TestLeaderboardMatchesFullRanking: the k-bounded selection serves, for
// every k, the first k rows of the whole table ranked by reward (desc,
// name asc on ties), also when many rewards tie and node ids run against
// name order.
func TestLeaderboardMatchesFullRanking(t *testing.T) {
	s, ts := newTestServer(t)
	const n = 40
	for i := n - 1; i >= 0; i-- {
		name, sponsor := fmt.Sprintf("p%02d", i), ""
		if i < n-3 {
			sponsor = fmt.Sprintf("p%02d", n-1-i%3) // under one of three roots
		}
		if err := s.Join(name, sponsor); err != nil {
			t.Fatal(err)
		}
		if err := s.Contribute(name, float64(1+i%4)); err != nil {
			t.Fatal(err)
		}
	}
	var all rewardsResponse
	getJSON(t, ts.URL+"/v1/rewards", &all)
	ranked := append([]Participant(nil), all.Participants...)
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].Reward > ranked[j].Reward })
	ties := 0
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Reward == ranked[i-1].Reward {
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("fixture has no tied rewards")
	}
	for _, k := range []int{1, 2, 3, 7, n - 1, n, n + 5} {
		var lb leaderboardResponse
		getJSON(t, fmt.Sprintf("%s/v1/leaderboard?k=%d", ts.URL, k), &lb)
		want := ranked[:min(k, n)]
		if lb.K != len(want) || lb.Participants != n || !reflect.DeepEqual(lb.Leaders, want) {
			t.Fatalf("k=%d: leaderboard = %+v\nwant k=%d participants=%d leaders=%+v", k, lb, len(want), n, want)
		}
	}
}
