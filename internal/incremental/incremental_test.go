package incremental

import (
	"math/rand"
	"testing"

	"incentivetree/internal/cdrm"
	"incentivetree/internal/core"
	"incentivetree/internal/geometric"
	"incentivetree/internal/numeric"
	"incentivetree/internal/obs"
	"incentivetree/internal/tree"
)

// observed pairs an engine with the tree it observes; join and
// contribute change the tree first and then notify the engine, as the
// server does.
type observed struct {
	t *testing.T
	e Engine
	*tree.Tree
}

func (o observed) join(parent tree.NodeID, c float64) tree.NodeID {
	o.t.Helper()
	id, err := o.Add(parent, c)
	if err != nil {
		o.t.Fatal(err)
	}
	o.e.Joined(id)
	return id
}

func (o observed) contribute(u tree.NodeID, delta float64) {
	o.t.Helper()
	if err := o.AddContribution(u, delta); err != nil {
		o.t.Fatal(err)
	}
	o.e.Contributed(u, delta)
}

func geoEngine(t *testing.T) observed {
	t.Helper()
	m, err := geometric.Default(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	tr := tree.New()
	return observed{t, NewGeometricFromTree(m, tr), tr}
}

func cdrmEngine(t *testing.T) observed {
	t.Helper()
	m, err := cdrm.DefaultReciprocal(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	tr := tree.New()
	return observed{t, NewCDRMFromTree(m, tr), tr}
}

// matchesFull cross-checks every engine reward against full
// re-evaluation of the observed tree.
func (o observed) matchesFull(when string) {
	o.t.Helper()
	want, err := o.e.Mechanism().Rewards(o.Tree)
	if err != nil {
		o.t.Fatalf("%s: full eval: %v", when, err)
	}
	got := o.e.Rewards()
	if len(got) != len(want) {
		o.t.Fatalf("%s: %d rewards, want %d", when, len(got), len(want))
	}
	for id := range want {
		if !numeric.AlmostEqual(got[id], want[id], 1e-9) {
			o.t.Fatalf("%s node %d: incremental %v != full %v", when, id, got[id], want[id])
		}
	}
}

// opSequence drives an engine through a deterministic random workload
// and cross-checks its reads against full re-evaluation.
func opSequence(o observed, seed int64, ops int) {
	o.t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < ops; i++ {
		if o.NumParticipants() == 0 || rng.Float64() < 0.6 {
			o.join(tree.NodeID(rng.Intn(o.Len())), rng.Float64()*4)
		} else {
			o.contribute(tree.NodeID(1+rng.Intn(o.NumParticipants())), rng.Float64()*2)
		}
		if i%7 == 0 { // periodic full cross-check
			o.matchesFull("op")
		}
	}
}

func TestGeometricEngineMatchesFullEvaluation(t *testing.T) {
	opSequence(geoEngine(t), 1, 300)
}

func TestCDRMEngineMatchesFullEvaluation(t *testing.T) {
	opSequence(cdrmEngine(t), 2, 300)
}

func TestGeometricEngineHandComputed(t *testing.T) {
	// a = 1/3, b = (1-a)*Phi = 1/3 (defaults). Chain u -> v with C 1, 3:
	// R(v) = b*3, R(u) = b*(1 + a*3) = b*2.
	o := geoEngine(t)
	u := o.join(tree.Root, 1)
	v := o.join(u, 3)
	b := 1.0 / 3.0
	if got := o.e.Reward(v); !numeric.AlmostEqual(got, b*3, 1e-12) {
		t.Fatalf("R(v) = %v", got)
	}
	if got := o.e.Reward(u); !numeric.AlmostEqual(got, b*2, 1e-12) {
		t.Fatalf("R(u) = %v", got)
	}
	// Contribution top-up at v bubbles a*delta to u.
	o.contribute(v, 3)
	if got := o.e.Reward(u); !numeric.AlmostEqual(got, b*3, 1e-12) {
		t.Fatalf("after top-up R(u) = %v", got)
	}
}

func TestCDRMEngineHandComputed(t *testing.T) {
	o := cdrmEngine(t)
	u := o.join(tree.Root, 2)
	o.join(u, 1)
	want := o.e.(*CDRMEngine).mech.Func().Eval(2, 1)
	if got := o.e.Reward(u); !numeric.AlmostEqual(got, want, 1e-12) {
		t.Fatalf("R(u) = %v, want %v", got, want)
	}
}

// TestEngineErrorPaths: writes are validated by the tree before the
// engine hears of them, so the engine's only error surface is reads of
// nodes it holds no reward for.
func TestEngineErrorPaths(t *testing.T) {
	for _, o := range []observed{geoEngine(t), cdrmEngine(t)} {
		o.join(tree.Root, 1)
		if got := o.e.Reward(tree.Root); got != 0 {
			t.Fatalf("root reward = %v", got)
		}
		if got := o.e.Reward(tree.NodeID(99)); got != 0 {
			t.Fatalf("missing node reward = %v", got)
		}
		if got := o.e.Reward(tree.None); got != 0 {
			t.Fatalf("None reward = %v", got)
		}
	}
}

// TestFailedWriteLeavesStateConsistent: a write the tree rejects is
// never reported to the engine, so its sums stay those of the tree.
func TestFailedWriteLeavesStateConsistent(t *testing.T) {
	o := geoEngine(t)
	u := o.join(tree.Root, 1)
	// Underflowing contribution update must not corrupt the sums.
	if err := o.AddContribution(u, -5); err == nil {
		t.Fatal("underflow should fail")
	}
	o.matchesFull("after failed write")
}

func TestRewardsSnapshotIsACopy(t *testing.T) {
	for _, o := range []observed{geoEngine(t), cdrmEngine(t)} {
		o.join(tree.Root, 1)
		snap := o.e.Rewards()
		snap[1] = 999
		if o.e.Reward(1) == 999 {
			t.Fatalf("%T: snapshot aliases engine state", o.e)
		}
	}
}

// TestOpsAreInstrumented checks every engine notification ticks the
// shared obs counters and latency histograms. Counters are
// process-wide and monotonic, so the test asserts deltas, not absolute
// values.
func TestOpsAreInstrumented(t *testing.T) {
	o := geoEngine(t)
	ops := obs.Default().Counter("itree_incremental_ops_total", "", "engine", "geometric", "op", "join")
	lat := obs.Default().Histogram("itree_incremental_op_seconds", "", nil, "engine", "geometric", "op", "contribute")
	opsBefore, latBefore := ops.Value(), lat.Count()
	u := o.join(tree.Root, 1)
	o.contribute(u, 2)
	if got := ops.Value() - opsBefore; got != 1 {
		t.Fatalf("join counter delta = %d, want 1", got)
	}
	if got := lat.Count() - latBefore; got != 1 {
		t.Fatalf("contribute latency observations delta = %d, want 1", got)
	}
}
