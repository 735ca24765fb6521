package incremental

import (
	"math/rand"
	"testing"

	"incentivetree/internal/cdrm"
	"incentivetree/internal/core"
	"incentivetree/internal/emek"
	"incentivetree/internal/experiments"
	"incentivetree/internal/geometric"
	"incentivetree/internal/obs"
	"incentivetree/internal/tree"
)

// TestForTreeSelectsEngine: the tree-fold mechanisms get an engine
// over their own fold, also behind the daemon's instrumentation
// wrapper; the lottery and Emek mechanisms get none.
func TestForTreeSelectsEngine(t *testing.T) {
	p := core.DefaultParams()
	folds := map[string]bool{"tdrm": true, "geometric": true, "cdrm-reciprocal": true, "cdrm-log": true}
	emk, err := emek.Default(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range experiments.MechanismNames() {
		m, err := experiments.ByName(p, name)
		if err != nil {
			t.Fatal(err)
		}
		for _, wrapped := range []core.Mechanism{m, experiments.Instrumented(m, obs.NewRegistry())} {
			e, ok := ForTree(wrapped, tree.New())
			if ok != folds[name] {
				t.Fatalf("%s (%T): engine = %v, want %v", name, wrapped, ok, folds[name])
			}
			if ok && e.f.(core.Mechanism) != m {
				t.Fatalf("%s: engine folds %T, want the mechanism itself", name, e.f)
			}
		}
	}
	if _, ok := ForTree(emk, tree.New()); ok {
		t.Fatal("emek got an engine")
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
	for _, mech := range []core.IntoMechanism{gm, cm} {
		o := observe(t, mech, randomTree(t, 7, 200))
		o.matchesFull(mech.Name() + " after rebuild")
		// The rebuilt state must absorb new writes, not just reads.
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 50; i++ {
			if rng.Float64() < 0.5 {
				o.join(tree.NodeID(rng.Intn(o.Len())), rng.Float64())
			} else {
				o.contribute(tree.NodeID(1+rng.Intn(o.NumParticipants())), rng.Float64())
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
	o := observe(t, gm, tree.New())
	// Rewards are indexed by NodeID, so even an empty tree has the root
	// slot (always zero).
	if r := o.e.Rewards(); len(r) != 1 || r[0] != 0 {
		t.Fatalf("empty tree rewards = %v", r)
	}
	o.join(tree.Root, 1)
	o.matchesFull("after first join")
}
