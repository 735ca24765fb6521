package incremental

import (
	"math"
	"math/rand"
	"testing"

	"incentivetree/internal/cdrm"
	"incentivetree/internal/core"
	"incentivetree/internal/geometric"
	"incentivetree/internal/numeric"
	"incentivetree/internal/obs"
	"incentivetree/internal/tree"
)

// observed pairs an engine with the mechanism it folds and the tree it
// observes; join and contribute change the tree first and then update
// the engine, as a batch of one.
type observed struct {
	t *testing.T
	m core.IntoMechanism
	e *Engine
	*tree.Tree
}

func observe(t *testing.T, m core.IntoMechanism, tr *tree.Tree) observed {
	t.Helper()
	e, ok := ForTree(m, tr)
	if !ok {
		t.Fatalf("%s: no engine", m.Name())
	}
	return observed{t, m, e, tr}
}

func (o observed) join(parent tree.NodeID, c float64) tree.NodeID {
	o.t.Helper()
	id, err := o.Add(parent, c)
	if err != nil {
		o.t.Fatal(err)
	}
	o.e.Update([]tree.NodeID{id})
	return id
}

func (o observed) contribute(u tree.NodeID, delta float64) {
	o.t.Helper()
	if err := o.AddContribution(u, delta); err != nil {
		o.t.Fatal(err)
	}
	o.e.Update([]tree.NodeID{u})
}

func geoEngine(t *testing.T) observed {
	t.Helper()
	m, err := geometric.Default(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return observe(t, m, tree.New())
}

func cdrmEngine(t *testing.T) observed {
	t.Helper()
	m, err := cdrm.DefaultReciprocal(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return observe(t, m, tree.New())
}

// matchesFull requires every engine reward to have the bits of a full
// re-evaluation of the observed tree.
func (o observed) matchesFull(when string) {
	o.t.Helper()
	requireExact(o.t, o.m, o.Tree, o.e, when)
}

// opSequence drives an engine through a deterministic random workload,
// in batches of 1 to 8 writes, and cross-checks its rewards against
// full re-evaluation after each batch.
func opSequence(o observed, seed int64, ops int) {
	o.t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < ops; {
		var touched []tree.NodeID
		for n := 1 + rng.Intn(8); n > 0 && i < ops; n, i = n-1, i+1 {
			if o.NumParticipants() == 0 || rng.Float64() < 0.6 {
				touched = append(touched, o.MustAdd(tree.NodeID(rng.Intn(o.Len())), rng.Float64()*4))
				continue
			}
			u := tree.NodeID(1 + rng.Intn(o.NumParticipants()))
			if err := o.AddContribution(u, rng.Float64()*2); err != nil {
				o.t.Fatal(err)
			}
			touched = append(touched, u)
		}
		o.e.Update(touched)
		o.matchesFull("batch")
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
	if got := o.e.Rewards()[v]; !numeric.AlmostEqual(got, b*3, 1e-12) {
		t.Fatalf("R(v) = %v", got)
	}
	if got := o.e.Rewards()[u]; !numeric.AlmostEqual(got, b*2, 1e-12) {
		t.Fatalf("R(u) = %v", got)
	}
	// Contribution top-up at v bubbles a*delta to u.
	o.contribute(v, 3)
	if got := o.e.Rewards()[u]; !numeric.AlmostEqual(got, b*3, 1e-12) {
		t.Fatalf("after top-up R(u) = %v", got)
	}
}

func TestCDRMEngineHandComputed(t *testing.T) {
	o := cdrmEngine(t)
	u := o.join(tree.Root, 2)
	o.join(u, 1)
	want := o.m.(*cdrm.Mechanism).Func().Eval(2, 1)
	if got := o.e.Rewards()[u]; !numeric.AlmostEqual(got, want, 1e-12) {
		t.Fatalf("R(u) = %v, want %v", got, want)
	}
}

// TestEngineErrorPaths: writes are validated by the tree before the
// engine hears of them, so the engine's only error surface is the ids
// it is handed. The root and None are skipped, and an empty update
// changes nothing.
func TestEngineErrorPaths(t *testing.T) {
	for _, o := range []observed{geoEngine(t), cdrmEngine(t)} {
		o.join(tree.Root, 1)
		before := append(core.Rewards(nil), o.e.Rewards()...)
		o.e.Update([]tree.NodeID{tree.Root, tree.None})
		o.e.Update(nil)
		for id, r := range o.e.Rewards() {
			if math.Float64bits(r) != math.Float64bits(before[id]) {
				t.Fatalf("%s: R(%d) moved from %v to %v", o.m.Name(), id, before[id], r)
			}
		}
		if got := o.e.Rewards()[tree.Root]; got != 0 {
			t.Fatalf("%s: root reward = %v", o.m.Name(), got)
		}
		o.matchesFull("after no-op updates")
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

// TestOpsAreInstrumented checks every engine update, whatever its batch
// size, ticks the shared obs counter and latency histogram once.
// Counters are process-wide and monotonic, so the test asserts deltas,
// not absolute values.
func TestOpsAreInstrumented(t *testing.T) {
	o := geoEngine(t)
	ops := obs.Default().Counter("itree_incremental_ops_total", "", "engine", "geometric")
	lat := obs.Default().Histogram("itree_incremental_op_seconds", "", nil, "engine", "geometric")
	opsBefore, latBefore := ops.Value(), lat.Count()
	u := o.MustAdd(tree.Root, 1)
	if err := o.AddContribution(u, 2); err != nil {
		t.Fatal(err)
	}
	o.e.Update([]tree.NodeID{u, u})
	if got := ops.Value() - opsBefore; got != 1 {
		t.Fatalf("update counter delta = %d, want 1", got)
	}
	if got := lat.Count() - latBefore; got != 1 {
		t.Fatalf("update latency observations delta = %d, want 1", got)
	}
}

// countingFolder wraps a mechanism's fold and counts its calls.
type countingFolder struct {
	folder
	calls int
}

func (c *countingFolder) Node(x, sum float64) (up, r float64) {
	c.calls++
	return c.folder.Node(x, sum)
}

// TestUpdateRefoldsSharedAncestorsOnce: a batch refolds the union of its
// nodes' root paths, each node once. 64 contributes to distinct leaves
// of a star share the hub, so they cost 65 folds, not 128; a join and a
// contribution to the joiner in one batch fold it once. The rewards stay
// bitwise a full evaluation's after each batch.
func TestUpdateRefoldsSharedAncestorsOnce(t *testing.T) {
	for _, empty := range []observed{geoEngine(t), cdrmEngine(t)} {
		tr := tree.New()
		hub := tr.MustAdd(tree.Root, 1)
		for i := 0; i < 10_000; i++ {
			tr.MustAdd(hub, 0.5)
		}
		o := observe(t, empty.m, tr)
		cf := &countingFolder{folder: o.e.f}
		o.e.f = cf

		touched := make([]tree.NodeID, 0, 64)
		for i := 0; i < 64; i++ {
			u := hub + 1 + tree.NodeID(i*150)
			if err := o.AddContribution(u, 0.25); err != nil {
				t.Fatal(err)
			}
			touched = append(touched, u)
		}
		o.e.Update(touched)
		if cf.calls != 65 {
			t.Fatalf("%s: 64 leaf contributes under one hub folded %d nodes, want 65", o.m.Name(), cf.calls)
		}
		o.matchesFull("star batch")

		cf.calls = 0
		leaf := hub + 1
		joined := o.MustAdd(leaf, 0)
		if err := o.AddContribution(joined, 2); err != nil {
			t.Fatal(err)
		}
		o.e.Update([]tree.NodeID{joined, joined, leaf})
		if cf.calls != 3 { // joined, leaf, hub
			t.Fatalf("%s: join + contribute to one node folded %d nodes, want 3", o.m.Name(), cf.calls)
		}
		o.matchesFull("join and contribute")
	}
}
