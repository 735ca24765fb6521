package server

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"incentivetree/internal/core"
	"incentivetree/internal/geometric"
	"incentivetree/internal/tdrm"
)

// TestEngineServesFullEvaluation drives a server per tree-fold
// mechanism, served by its reward engine, beside one that evaluates the
// same mechanism in full (fullEval), and requires every participant's
// served reward to have the full evaluation's bits.
func TestEngineServesFullEvaluation(t *testing.T) {
	for _, mc := range liveReplayMechanisms {
		m, err := mc.new(core.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		fast, slow := New(m), New(fullEval{m})
		if fast.engine == nil || slow.engine != nil {
			t.Fatalf("%s: engines %v/%v, want one on the first server only", mc.name, fast.engine, slow.engine)
		}
		rng := rand.New(rand.NewSource(3))
		names := []string{}
		for i := 0; i < 120; i++ {
			if len(names) == 0 || rng.Float64() < 0.5 {
				name := fmt.Sprintf("p%03d", len(names))
				sponsor := ""
				if len(names) > 0 {
					sponsor = names[rng.Intn(len(names))]
				}
				for _, s := range []*Server{fast, slow} {
					if err := s.Join(name, sponsor); err != nil {
						t.Fatalf("join %s: %v", name, err)
					}
				}
				names = append(names, name)
			} else {
				name := names[rng.Intn(len(names))]
				amount := rng.Float64() * 3
				for _, s := range []*Server{fast, slow} {
					if err := s.Contribute(name, amount); err != nil {
						t.Fatalf("contribute %s: %v", name, err)
					}
				}
			}
		}
		for _, name := range names {
			pf, err := fast.participant(name)
			if err != nil {
				t.Fatal(err)
			}
			ps, err := slow.participant(name)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(pf.Reward) != math.Float64bits(ps.Reward) {
				t.Fatalf("%s: %s: engine reward %v != full %v", mc.name, name, pf.Reward, ps.Reward)
			}
		}
	}
}

// TestTDRMAlwaysServesExactEngine checks that TDRM gets its exact
// engine and that the served reward is bitwise the full evaluation's.
func TestTDRMAlwaysServesExactEngine(t *testing.T) {
	m, err := tdrm.Default(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	s := New(m)
	if s.engine == nil {
		t.Fatal("TDRM has no engine")
	}
	for _, step := range [][2]string{{"ada", ""}, {"bo", "ada"}} {
		if err := s.Join(step[0], step[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Contribute("bo", 2.5); err != nil {
		t.Fatal(err)
	}
	if err := s.Contribute("ada", 2); err != nil {
		t.Fatal(err)
	}
	want, err := m.Rewards(s.state.Tree)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.participant("ada")
	if err != nil || p.Contribution != 2 {
		t.Fatalf("participant = %+v, %v", p, err)
	}
	if got, w := p.Reward, want.Of(s.state.ByName["ada"]); math.Float64bits(got) != math.Float64bits(w) {
		t.Fatalf("served reward %v, full evaluation %v", got, w)
	}
}

// TestEngineSurvivesRestore checks the engine is rebuilt from the
// restored tree, not left pointing at the old one.
func TestEngineSurvivesRestore(t *testing.T) {
	m, err := geometric.Default(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	s := New(m)
	for _, step := range [][2]string{{"ada", ""}, {"bo", "ada"}, {"cy", "bo"}} {
		if err := s.Join(step[0], step[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Contribute("cy", 4); err != nil {
		t.Fatal(err)
	}
	snap := s.SnapshotState()

	m2, err := geometric.Default(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(m2)
	if err := s2.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	if s2.engine == nil {
		t.Fatal("restore must rebuild the engine")
	}
	// Writes against the restored engine stay bitwise the full evaluation.
	if err := s2.Contribute("ada", 1); err != nil {
		t.Fatal(err)
	}
	requireServedExact(t, s2, m2, "after restore and a write")
}

// TestRewardsSortedByName pins the /v1/rewards participant order to the
// name sort: snapshot round-trips renumber NodeIDs in DFS preorder, so
// id order would make reward tables incomparable across recovery.
func TestRewardsSortedByName(t *testing.T) {
	m, err := geometric.Default(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	s := New(m)
	// Join in an order that differs from the name sort.
	for _, step := range [][2]string{{"zoe", ""}, {"mia", "zoe"}, {"ada", "zoe"}, {"bo", "mia"}} {
		if err := s.Join(step[0], step[1]); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/rewards")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body rewardsResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Participants) != 4 {
		t.Fatalf("%d participants", len(body.Participants))
	}
	if !sort.SliceIsSorted(body.Participants, func(i, j int) bool {
		return body.Participants[i].Name < body.Participants[j].Name
	}) {
		t.Fatalf("participants not sorted by name: %+v", body.Participants)
	}
}
