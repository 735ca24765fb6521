package replica_test

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"incentivetree/internal/core"
	"incentivetree/internal/ingest"
	"incentivetree/internal/tree"
)

// TestTDRMFollowerServesExactTableAfterResync: a campaign of each
// mechanism with a reward engine — TDRM, Geometric, CDRM — is served
// from its exact engine on both sides. After a snapshot re-bootstrap,
// further tailing and a batch of joins under one hub, the follower's
// reads, /rewards included, are byte-identical to the primary's, and
// every reward it serves has the bits of a full evaluation of the tree
// it serves.
func TestTDRMFollowerServesExactTableAfterResync(t *testing.T) {
	for _, mech := range []string{"tdrm", "geometric", "cdrm-reciprocal"} {
		t.Run(mech, func(t *testing.T) { checkFollowerExactAfterResync(t, mech) })
	}
}

func checkFollowerExactAfterResync(t *testing.T, mech string) {
	p := startPrimary(t, t.TempDir())
	defer p.stop()
	const id = "exact"
	resp, err := http.Post(p.ts.URL+"/v1/campaigns", "application/json",
		strings.NewReader(`{"id":"`+id+`","mechanism":"`+mech+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create campaign: HTTP %d", resp.StatusCode)
	}
	proxy := newFlexProxy(p.ts.URL)
	pts := httptest.NewServer(proxy)
	defer pts.Close()

	p.write(id, 0, 12)
	f := startFollower(t, pts.URL, 0)
	f.waitApplied(id, p.lastSeq(id))

	// Force a re-bootstrap: advance and compact the primary's journal
	// past the follower's position while it is cut off.
	proxy.gateAll.Store(true)
	time.Sleep(400 * time.Millisecond)
	p.write(id, 100, 6)
	resp, err = http.Post(p.ts.URL+"/v1/campaigns/"+id+"/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	proxy.gateAll.Store(false)
	if st := f.waitApplied(id, p.lastSeq(id)); st.Resyncs < 2 {
		t.Fatalf("compaction gap must force a re-bootstrap, got %d resyncs", st.Resyncs)
	}
	// Events tailed after the snapshot update the rebuilt engine: single
	// writes, then one batch that joins a hub and recruits under it,
	// with contributions to the hub and its recruits.
	p.write(id, 200, 5)
	c, ok := p.st.Get(id)
	if !ok {
		t.Fatalf("campaign %s not found", id)
	}
	ops := []ingest.Op{{Kind: ingest.OpJoin, Name: "hub", Sponsor: "p0200"}}
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("hub-%02d", i)
		ops = append(ops,
			ingest.Op{Kind: ingest.OpJoin, Name: name, Sponsor: "hub"},
			ingest.Op{Kind: ingest.OpContribute, Name: name, Amount: 0.5 + float64(i)/3},
			ingest.Op{Kind: ingest.OpContribute, Name: "hub", Amount: 0.125})
	}
	for i, res := range c.Server().ApplyBatch(ops) {
		if res.Err != nil {
			t.Fatalf("hub batch op %d: %v", i, res.Err)
		}
	}
	f.waitApplied(id, p.lastSeq(id))
	requireIdenticalReads(t, p.ts.URL, f.ts.URL, id)

	var tr tree.Tree
	if err := json.Unmarshal(mustGet(t, f.ts.URL+"/v1/campaigns/"+id+"/tree"), &tr); err != nil {
		t.Fatal(err)
	}
	m, err := newMech(mech, core.DefaultParams())
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
	if err := json.Unmarshal(mustGet(t, f.ts.URL+"/v1/campaigns/"+id+"/rewards"), &served); err != nil {
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
