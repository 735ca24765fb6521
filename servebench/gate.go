package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"incentivetree/internal/core"
	"incentivetree/internal/tree"
)

// rewardsDoc is the served reward table (GET .../rewards).
type rewardsDoc struct {
	Total        float64 `json:"total_contribution"`
	TotalReward  float64 `json:"total_reward"`
	Budget       float64 `json:"budget"`
	Participants []struct {
		Name         string  `json:"name"`
		Contribution float64 `json:"contribution"`
		Reward       float64 `json:"reward"`
	} `json:"participants"`
}

func parseRewards(body []byte) (*rewardsDoc, error) {
	var doc rewardsDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("rewards: %w", err)
	}
	return &doc, nil
}

// byName returns the served rewards keyed by participant.
func (d *rewardsDoc) byName() map[string]float64 {
	out := make(map[string]float64, len(d.Participants))
	for _, p := range d.Participants {
		out[p.Name] = p.Reward
	}
	return out
}

// budgetSlack is the relative float-summation allowance on R(T); the
// paper's constraint itself is exact.
const budgetSlack = 1e-9

// checkBudget checks the paper's budget R(T) <= Phi*C(T) and R(u) >= 0
// on a served table.
func checkBudget(d *rewardsDoc, phi float64) error {
	var rt, ct float64
	for _, p := range d.Participants {
		if !(p.Reward >= 0) {
			return fmt.Errorf("budget: R(%s) = %v < 0", p.Name, p.Reward)
		}
		rt += p.Reward
		ct += p.Contribution
	}
	if rt > phi*ct*(1+budgetSlack) {
		return fmt.Errorf("budget: R(T) = %v exceeds Phi*C(T) = %v", rt, phi*ct)
	}
	if ct != d.Total {
		return fmt.Errorf("budget: table contributions sum to %v, served C(T) = %v", ct, d.Total)
	}
	return nil
}

// checkLedger checks the recovered tree against the expected state:
// the population is exactly the ledger's (seed plus acknowledged joins)
// and every contribution equals its ledger entry exactly.
func checkLedger(t *tree.Tree, l ledger) error {
	if got, want := t.NumParticipants(), len(l.want); got != want {
		return fmt.Errorf("ledger: %d participants, want %d (seed + acknowledged joins)", got, want)
	}
	for _, id := range t.Nodes() {
		name := t.Label(id)
		want, ok := l.want[name]
		if !ok {
			return fmt.Errorf("ledger: unexpected participant %q", name)
		}
		if got := t.Contribution(id); got != want {
			return fmt.Errorf("ledger: C(%s) = %v, want %v", name, got, want)
		}
	}
	return nil
}

// freshRewards evaluates m from scratch on t, keyed by participant.
func freshRewards(m core.Mechanism, t *tree.Tree) (map[string]float64, error) {
	r, err := m.Rewards(t)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, t.NumParticipants())
	for _, id := range t.Nodes() {
		out[t.Label(id)] = r.Of(id)
	}
	return out, nil
}

// checkClose checks that every served reward is within rel of the
// reference, relative to the larger magnitude.
func checkClose(served, ref map[string]float64, rel float64) error {
	if len(served) != len(ref) {
		return fmt.Errorf("rewards: %d served, %d in reference", len(served), len(ref))
	}
	for name, want := range ref {
		got, ok := served[name]
		if !ok {
			return fmt.Errorf("rewards: %q not served", name)
		}
		if got != want && math.Abs(got-want) > rel*math.Max(math.Abs(got), math.Abs(want)) {
			return fmt.Errorf("rewards: R(%s) served %v, fresh evaluation %v", name, got, want)
		}
	}
	return nil
}

// checkIdentical checks that two served reward tables are byte-identical.
func checkIdentical(before, after []byte) error {
	if bytes.Equal(before, after) {
		return nil
	}
	i := 0
	for i < len(before) && i < len(after) && before[i] == after[i] {
		i++
	}
	return fmt.Errorf("rewards: table differs across restart at byte %d of %d/%d", i, len(before), len(after))
}
