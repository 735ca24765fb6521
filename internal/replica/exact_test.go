package replica_test

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"incentivetree/internal/core"
	"incentivetree/internal/store"
	"incentivetree/internal/tdrm"
	"incentivetree/internal/tree"
)

// TestTDRMFollowerServesExactTableAfterResync: the default campaign is
// TDRM, served from its exact engine on both sides. After a snapshot
// re-bootstrap and further tailing, the follower's /v1/rewards bytes
// equal the primary's, and every reward it serves has the bits of a
// full evaluation of the tree it serves.
func TestTDRMFollowerServesExactTableAfterResync(t *testing.T) {
	p := startPrimary(t, t.TempDir())
	defer p.stop()
	proxy := newFlexProxy(p.ts.URL)
	pts := httptest.NewServer(proxy)
	defer pts.Close()

	p.write(store.DefaultID, 0, 12)
	f := startFollower(t, pts.URL, 0)
	f.waitApplied(store.DefaultID, p.lastSeq(store.DefaultID))

	// Force a re-bootstrap: advance and compact the primary's journal
	// past the follower's position while it is cut off.
	proxy.gateAll.Store(true)
	time.Sleep(400 * time.Millisecond)
	p.write(store.DefaultID, 100, 6)
	resp, err := http.Post(p.ts.URL+"/v1/campaigns/"+store.DefaultID+"/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	proxy.gateAll.Store(false)
	if st := f.waitApplied(store.DefaultID, p.lastSeq(store.DefaultID)); st.Resyncs < 2 {
		t.Fatalf("compaction gap must force a re-bootstrap, got %d resyncs", st.Resyncs)
	}
	// Events tailed after the snapshot update the rebuilt engine.
	p.write(store.DefaultID, 200, 5)
	f.waitApplied(store.DefaultID, p.lastSeq(store.DefaultID))
	requireIdenticalReads(t, p.ts.URL, f.ts.URL, store.DefaultID)

	var tr tree.Tree
	if err := json.Unmarshal(mustGet(t, f.ts.URL+"/v1/tree"), &tr); err != nil {
		t.Fatal(err)
	}
	m, err := tdrm.Default(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Rewards(&tr)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]float64, tr.NumParticipants())
	for _, u := range tr.Nodes() {
		byName[tr.Label(u)] = want.Of(u)
	}
	var served struct {
		Mechanism    string `json:"mechanism"`
		Participants []struct {
			Name   string  `json:"name"`
			Reward float64 `json:"reward"`
		} `json:"participants"`
	}
	if err := json.Unmarshal(mustGet(t, f.ts.URL+"/v1/rewards"), &served); err != nil {
		t.Fatal(err)
	}
	if served.Mechanism != m.Name() {
		t.Fatalf("follower serves %s, want %s", served.Mechanism, m.Name())
	}
	if len(served.Participants) != tr.NumParticipants() {
		t.Fatalf("follower serves %d participants, tree has %d", len(served.Participants), tr.NumParticipants())
	}
	for _, sp := range served.Participants {
		if w := byName[sp.Name]; math.Float64bits(sp.Reward) != math.Float64bits(w) {
			t.Fatalf("follower serves R(%s) = %v, full evaluation %v", sp.Name, sp.Reward, w)
		}
	}
}
