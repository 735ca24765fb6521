package tdrm

import (
	"errors"
	"math"
	"testing"

	"incentivetree/internal/core"
	"incentivetree/internal/tree"
	"incentivetree/internal/treegen"
)

// rctFold is the paper-literal evaluation Rewards replaces: build the
// RCT, evaluate every chain node, and sum each chain onto its
// participant.
func rctFold(m *Mechanism, t *tree.Tree) (core.Rewards, error) {
	rct, err := Transform(t, m.Mu())
	if err != nil {
		return nil, err
	}
	node := m.NodeRewards(rct)
	out := make(core.Rewards, t.Len())
	for w := 1; w < rct.T.Len(); w++ {
		out[rct.Origin[w]] += node[w]
	}
	return out, nil
}

// checkMatchesFold fails t unless m.Rewards equals rctFold on tr within
// rel relative error, participant by participant.
func checkMatchesFold(t *testing.T, m *Mechanism, tr *tree.Tree, rel float64) {
	t.Helper()
	got, err := m.Rewards(tr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rctFold(m, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for u := range want {
		if d := math.Abs(got[u] - want[u]); d > rel*math.Max(math.Abs(got[u]), math.Abs(want[u])) {
			t.Fatalf("mu=%v: R(%d) = %v, RCT fold gives %v (relative error %.3g)",
				m.Mu(), u, got[u], want[u], d/math.Abs(want[u]))
		}
	}
}

// TestRewardsMatchRCTFold: the closed-form chain fold agrees with the
// explicit RCT evaluation on the treegen corpus for caps below, at and
// above the typical contribution.
func TestRewardsMatchRCTFold(t *testing.T) {
	p := core.DefaultParams()
	corpus := treegen.Corpus(7, 30, 80)
	for _, mu := range []float64{1, 0.3, 2.5} {
		m := mustTDRM(t, p, 0.8*(p.Phi-p.FairShare), mu, 1.0/3.0, 1.0/3.0)
		for _, tr := range corpus {
			checkMatchesFold(t, m, tr, 1e-12)
		}
	}
}

// TestRewardsLargeContributionKeepsBudget: a contribution far past mu
// costs no more to evaluate than a small one, and the allocation stays
// finite and inside R(T) <= Phi*C(T) even where the chain length
// overflows every integer type.
func TestRewardsLargeContributionKeepsBudget(t *testing.T) {
	p := core.DefaultParams()
	m, err := Default(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{1e19, 1e300, 1e8} {
		tr := tree.FromSpecs(tree.Spec{C: c, Kids: []tree.Spec{{C: 2.5}, {C: c / 3, Kids: []tree.Spec{{C: 1}}}}})
		r, err := m.Rewards(tr)
		if err != nil {
			t.Fatalf("C=%g: %v", c, err)
		}
		for _, u := range tr.Nodes() {
			if v := r.Of(u); math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("C=%g: R(%d) = %v", c, u, v)
			}
		}
		if err := core.Audit(m, tr, r); err != nil {
			t.Fatalf("C=%g: %v", c, err)
		}
	}
}

// TestTransformRefusesOversizedChain: a chain longer than a tree can
// hold is an error, not a panic or an unbounded allocation.
func TestTransformRefusesOversizedChain(t *testing.T) {
	tr := tree.FromSpecs(tree.Spec{C: 1e19})
	if _, err := Transform(tr, 1); !errors.Is(err, tree.ErrTreeFull) {
		t.Fatalf("Transform = %v, want ErrTreeFull", err)
	}
}

// FuzzTDRMClosedForm compares Rewards with the RCT fold on small random
// trees. Each pair of input bytes adds one participant: the first picks
// its sponsor, the second its contribution — zero, an exact multiple of
// mu, or an arbitrary amount.
func FuzzTDRMClosedForm(f *testing.F) {
	f.Add(uint16(1023), []byte{0, 1, 0, 6, 1, 0, 2, 9, 1, 250})
	f.Add(uint16(0), []byte{0, 0, 0, 5})
	f.Add(uint16(4095), []byte{0, 3, 1, 7, 2, 11, 3, 255, 0, 128})
	f.Fuzz(func(t *testing.T, muRaw uint16, shape []byte) {
		mu := float64(muRaw%4096+1) / 1024 // (0, 4]
		p := core.DefaultParams()
		m, err := New(p, 0.8*(p.Phi-p.FairShare), mu, 1.0/3.0, 1.0/3.0)
		if err != nil {
			t.Fatal(err)
		}
		tr := tree.New()
		for i := 0; i+1 < len(shape) && tr.Len() <= 64; i += 2 {
			parent := tree.NodeID(int(shape[i]) % tr.Len())
			var c float64
			switch k := float64(shape[i+1] >> 2); shape[i+1] % 4 {
			case 1:
				c = k * mu
			case 2, 3:
				c = k / 7
			}
			tr.MustAdd(parent, c)
		}
		checkMatchesFold(t, m, tr, 1e-9)
	})
}
