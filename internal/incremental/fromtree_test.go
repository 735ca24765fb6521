package incremental

import (
	"math/rand"
	"testing"

	"incentivetree/internal/cdrm"
	"incentivetree/internal/core"
	"incentivetree/internal/geometric"
	"incentivetree/internal/tdrm"
	"incentivetree/internal/tree"
)

func TestForTreeSelectsEngine(t *testing.T) {
	p := core.DefaultParams()
	gm, err := geometric.Default(p)
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := ForTree(gm, tree.New()); !ok {
		t.Error("geometric should get an engine")
	} else if _, isGeo := e.(*GeometricEngine); !isGeo {
		t.Errorf("geometric engine type = %T", e)
	}
	cm, err := cdrm.DefaultReciprocal(p)
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := ForTree(cm, tree.New()); !ok {
		t.Error("cdrm should get an engine")
	} else if _, isCDRM := e.(*CDRMEngine); !isCDRM {
		t.Errorf("cdrm engine type = %T", e)
	}
	tm, err := tdrm.Default(p)
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := ForTree(tm, tree.New()); !ok {
		t.Error("tdrm should get an engine")
	} else if _, isTDRM := e.(*TDRMEngine); !isTDRM {
		t.Errorf("tdrm engine type = %T", e)
	}
}

// randomTree grows a contribution-bearing tree the way a workload would.
func randomTree(t *testing.T, seed int64, n int) *tree.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr := tree.New()
	for i := 0; i < n; i++ {
		if _, err := tr.Add(tree.NodeID(rng.Intn(tr.Len())), rng.Float64()*4); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// TestForTreeMatchesFullEvaluation is the recovery path: an engine
// rebuilt from an existing tree must serve the same rewards as full
// evaluation, and stay correct under further writes.
func TestForTreeMatchesFullEvaluation(t *testing.T) {
	p := core.DefaultParams()
	gm, err := geometric.Default(p)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := cdrm.DefaultReciprocal(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, mech := range []core.Mechanism{gm, cm} {
		tr := randomTree(t, 7, 200)
		e, ok := ForTree(mech, tr)
		if !ok {
			t.Fatalf("%s: no engine", mech.Name())
		}
		o := observed{t, e, tr}
		o.matchesFull(mech.Name() + " after rebuild")
		// The rebuilt state must absorb new writes, not just reads.
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 50; i++ {
			if rng.Float64() < 0.5 {
				o.join(tree.NodeID(rng.Intn(tr.Len())), rng.Float64())
			} else {
				o.contribute(tree.NodeID(1+rng.Intn(tr.NumParticipants())), rng.Float64())
			}
		}
		o.matchesFull(mech.Name() + " after further writes")
	}
}

func TestForTreeEmptyTree(t *testing.T) {
	gm, err := geometric.Default(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	tr := tree.New()
	e, ok := ForTree(gm, tr)
	if !ok {
		t.Fatal("no engine for empty tree")
	}
	// Rewards are indexed by NodeID, so even an empty tree has the root
	// slot (always zero).
	if r := e.Rewards(); len(r) != 1 || r[0] != 0 {
		t.Fatalf("empty tree rewards = %v", r)
	}
	o := observed{t, e, tr}
	o.join(tree.Root, 1)
	o.matchesFull("after first join")
}
