// Package query_test holds the read-path tests of the served reward
// table, driven through the server's HTTP API: every read at one commit
// version shares one mechanism evaluation, a version change forces a
// rebuild, a failed evaluation is retried rather than served, and
// concurrent misses collapse into one build. The table itself lives in
// internal/server.
package query_test

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"incentivetree/internal/core"
	"incentivetree/internal/experiments"
	"incentivetree/internal/geometric"
	"incentivetree/internal/obs"
	"incentivetree/internal/server"
	"incentivetree/internal/tree"
)

// flakyMechanism fails every evaluation while fail is set and takes at
// least delay over each.
type flakyMechanism struct {
	core.Mechanism
	fail  atomic.Bool
	delay atomic.Int64 // nanoseconds
}

func (f *flakyMechanism) Rewards(t *tree.Tree) (core.Rewards, error) {
	time.Sleep(time.Duration(f.delay.Load()))
	if f.fail.Load() {
		return nil, errors.New("evaluation failed")
	}
	return f.Mechanism.Rewards(t)
}

// fixture is a server over an instrumented mechanism with a referral
// chain p00 ← p01 ← … of n participants.
type fixture struct {
	t      *testing.T
	s      *server.Server
	url    string
	flaky  *flakyMechanism
	evals  *obs.Counter
	hits   *obs.Counter
	misses *obs.Counter
}

func newFixture(t *testing.T, n int) *fixture {
	t.Helper()
	g, err := geometric.Default(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyMechanism{Mechanism: g}
	reg := obs.NewRegistry()
	m := experiments.Instrumented(flaky, reg)
	s := server.New(m, server.WithMetrics(reg))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
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
	return &fixture{
		t:      t,
		s:      s,
		url:    ts.URL,
		flaky:  flaky,
		evals:  reg.Counter("itree_mechanism_rewards_total", "", "mechanism", m.Name()),
		hits:   reg.Counter("itree_rewards_cache_hits_total", ""),
		misses: reg.Counter("itree_rewards_cache_misses_total", ""),
	}
}

// get reads path and checks its status code. It is safe to call from
// several goroutines.
func (f *fixture) get(path string, want int) error {
	resp, err := http.Get(f.url + path)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
	}
	return nil
}

func (f *fixture) mustGet(path string, want int) {
	f.t.Helper()
	if err := f.get(path, want); err != nil {
		f.t.Fatal(err)
	}
}

func TestGetCachesPerVersion(t *testing.T) {
	f := newFixture(t, 5)

	for i := 0; i < 3; i++ {
		f.mustGet("/v1/rewards", http.StatusOK)
	}
	if n := f.evals.Value(); n != 1 {
		t.Fatalf("evaluations = %d, want 1 (two hits)", n)
	}
	if h := f.hits.Value(); h != 2 {
		t.Fatalf("hits = %d, want 2", h)
	}
	if m := f.misses.Value(); m != 1 {
		t.Fatalf("misses = %d, want 1", m)
	}

	// A commit bumps the version and invalidates exactly once.
	if err := f.s.Contribute("p02", 7); err != nil {
		t.Fatal(err)
	}
	f.mustGet("/v1/rewards", http.StatusOK)
	f.mustGet("/v1/participants/p02", http.StatusOK)
	if n := f.evals.Value(); n != 2 {
		t.Fatalf("evaluations = %d, want 2", n)
	}
}

// TestInvalidateForcesRebuild: quarantine and a state restore change the
// served table without a contribution, and each forces one rebuild.
func TestInvalidateForcesRebuild(t *testing.T) {
	f := newFixture(t, 5)
	f.mustGet("/v1/rewards", http.StatusOK)

	if err := f.s.Quarantine("p01"); err != nil {
		t.Fatal(err)
	}
	f.mustGet("/v1/rewards", http.StatusOK)
	f.mustGet("/v1/rewards", http.StatusOK)
	if n := f.evals.Value(); n != 2 {
		t.Fatalf("evaluations after quarantine = %d, want 2", n)
	}

	if err := f.s.RestoreState(f.s.SnapshotState()); err != nil {
		t.Fatal(err)
	}
	f.mustGet("/v1/rewards", http.StatusOK)
	f.mustGet("/v1/rewards", http.StatusOK)
	if n := f.evals.Value(); n != 3 {
		t.Fatalf("evaluations after restore = %d, want 3", n)
	}
}

// TestBuildErrorNotCached: a failed evaluation propagates and the next
// read retries instead of serving a poisoned table.
func TestBuildErrorNotCached(t *testing.T) {
	f := newFixture(t, 5)
	f.flaky.fail.Store(true)
	f.mustGet("/v1/rewards", http.StatusInternalServerError)
	f.flaky.fail.Store(false)
	f.mustGet("/v1/rewards", http.StatusOK)
	if n := f.evals.Value(); n != 2 {
		t.Fatalf("evaluations = %d, want 2 (error retried)", n)
	}
}

// TestConcurrentMissesCollapse: readers racing on a version with no
// table yet share one build: the readers that queue behind the slow
// first build are served the table it stored.
func TestConcurrentMissesCollapse(t *testing.T) {
	f := newFixture(t, 5)
	f.flaky.delay.Store(int64(50 * time.Millisecond))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			if err := f.get(fmt.Sprintf("/v1/participants/p%02d", i%5), http.StatusOK); err != nil {
				t.Error(err)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	if n := f.evals.Value(); n != 1 {
		t.Fatalf("evaluations = %d, want 1", n)
	}
}
