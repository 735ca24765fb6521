// Package incremental maintains Incentive Tree rewards over a referral
// tree that someone else changes, refolding after each committed batch
// only what the batch touched.
//
// TDRM (Algorithm 4), (a,b)-Geometric (Algorithm 1) and the CDRM
// family (Theorem 5) each compute R(u) from C(u) and one sum X_u, over
// u's children v, of a value v passes up to its parent:
//
//   - TDRM: up = S(head_u), R(u) = alpha(C(u)) + beta(C(u))*X_u
//     (tdrm.Mechanism.Node);
//   - Geometric: S(u) = C(u) + X_u, up = a*S(u), R(u) = b*S(u)
//     (geometric.Mechanism.Node);
//   - CDRM: y_u = X_u, up = C(u) + y_u, R(u) = f(C(u), y_u)
//     (cdrm.Mechanism.Node).
//
// Each mechanism's RewardsInto runs that per-node fold over the whole
// tree in descending id, summing a node's children from the last-joined
// back to the first. The Engine keeps up and R per node. After a batch
// it refolds the union of the touched nodes' root paths once each, in
// the same order, from each node's children summed in the same order, so
// its rewards are bitwise equal to a full evaluation. A batch costs
// O(sum over dirty nodes of 1 + fan-out), never much more than one full
// fold, whatever the tree's shape.
//
// Mechanisms whose rewards depend on global structure (L-Luxor,
// L-Pachira, Emek) have no such fold and are served by full evaluation.
package incremental

import (
	"slices"
	"time"

	"incentivetree/internal/cdrm"
	"incentivetree/internal/core"
	"incentivetree/internal/geometric"
	"incentivetree/internal/obs"
	"incentivetree/internal/tdrm"
	"incentivetree/internal/tree"
)

// Engine updates are recorded in the process-wide obs registry, by
// engine kind, so an operator can compare root-path maintenance against
// full O(n) recomputation in production: itree_incremental_ops_total
// counts updates (one per committed batch) and
// itree_incremental_op_seconds tracks their latency.
type opRecorder struct {
	ops *obs.Counter
	lat *obs.Histogram
}

func newOpRecorder(engine string) opRecorder {
	return opRecorder{
		ops: obs.Default().Counter("itree_incremental_ops_total",
			"Engine updates (one per committed batch), by engine kind.",
			"engine", engine),
		lat: obs.Default().Histogram("itree_incremental_op_seconds",
			"Engine update latency in seconds, by engine kind.",
			nil, "engine", engine),
	}
}

// opTimer is one update in flight: defer r.start().done().
type opTimer struct {
	r     opRecorder
	start time.Time
}

// start begins timing one update.
func (r opRecorder) start() opTimer {
	return opTimer{r, time.Now()} //itreevet:ignore floatorder wall clock feeds only the op-latency histogram, never reward state
}

// done records the update.
func (t opTimer) done() {
	t.r.ops.Inc()
	t.r.lat.Observe(time.Since(t.start).Seconds())
}

var (
	tdrmOps      = newOpRecorder("tdrm")
	geometricOps = newOpRecorder("geometric")
	cdrmOps      = newOpRecorder("cdrm")
)

// folder is a mechanism's per-node fold: a participant with
// contribution c whose children pass up x in total passes up to its
// parent and earns r.
type folder interface {
	Node(c, x float64) (up, r float64)
}

// Engine maintains a tree-fold mechanism's rewards exactly over a
// referral tree it does not own. The tree's owner changes the tree and
// then calls Update with the nodes it changed.
type Engine struct {
	f     folder
	rec   opRecorder
	t     *tree.Tree
	up    []float64     // what u passes to its parent, by node id
	r     core.Rewards  // R(u), by node id; r[Root] = 0
	dirty []bool        // Update's marks: on a path still to refold
	path  []tree.NodeID // Update's scratch: the dirty nodes
}

// ForTree returns an engine observing t, its per-node state built from
// t by the fold RewardsInto runs, in O(n), when m is TDRM, Geometric or
// a CDRM-family mechanism, looking through a wrapper (see unwrap), and
// (nil, false) otherwise.
func ForTree(m core.Mechanism, t *tree.Tree) (*Engine, bool) {
	e := &Engine{t: t}
	switch mech := unwrap(m).(type) {
	case *tdrm.Mechanism:
		e.f, e.rec = mech, tdrmOps
	case *geometric.Mechanism:
		e.f, e.rec = mech, geometricOps
	case *cdrm.Mechanism:
		e.f, e.rec = mech, cdrmOps
	default:
		return nil, false
	}
	e.grow(t.Len())
	contribs, parents := t.Contributions(), t.Parents()
	// r[u] holds X_u until u is reached, as in RewardsInto.
	for id := len(parents) - 1; id >= 1; id-- {
		e.up[id], e.r[id] = e.f.Node(contribs[id], e.r[id])
		e.r[parents[id]] += e.up[id]
	}
	e.r[tree.Root] = 0
	return e, true
}

// unwrap looks through a mechanism wrapper — one with an
// Unwrap() core.Mechanism method, such as the daemon's instrumentation —
// to the concrete mechanism the engine folds.
func unwrap(m core.Mechanism) core.Mechanism {
	if w, ok := m.(interface{ Unwrap() core.Mechanism }); ok {
		return w.Unwrap()
	}
	return m
}

// Update brings the rewards up to date with the tree after a committed
// batch. touched lists the nodes the batch joined or contributed to, in
// any order and with repeats. Every node on their root paths below the
// root is refolded once, in descending id, so children come before
// parents, from its children summed from the last-joined back to the
// first. Sibling chains are in join order, which is id order, so that
// is the order in which RewardsInto accumulates X_u, and the rewards
// stay bitwise equal to a full evaluation.
func (e *Engine) Update(touched []tree.NodeID) {
	defer e.rec.start().done()
	t := e.t
	if n := t.Len(); len(e.r) < n {
		e.grow(n)
	}
	path := e.path[:0]
	for _, u := range touched {
		for n := u; n > tree.Root && !e.dirty[n]; n = t.Parent(n) {
			e.dirty[n] = true
			path = append(path, n)
		}
	}
	slices.Sort(path)
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		e.dirty[n] = false
		x := 0.0
		for c := t.LastChild(n); c != tree.None; c = t.PrevSibling(c) {
			x += e.up[c]
		}
		e.up[n], e.r[n] = e.f.Node(t.Contribution(n), x)
	}
	e.path = path
}

// grow extends the per-node arrays to n ids, in place while their
// capacity lasts. New arrays take the tree arena's capacity, so the
// engine's slack tracks the tree's growth instead of adding an
// append-doubling of its own.
func (e *Engine) grow(n int) {
	if n <= cap(e.r) {
		e.up, e.r, e.dirty = e.up[:n], e.r[:n], e.dirty[:n]
		return
	}
	c := max(n, cap(e.t.Contributions()))
	up := make([]float64, n, c)
	copy(up, e.up)
	r := make(core.Rewards, n, c)
	copy(r, e.r)
	e.up, e.r, e.dirty = up, r, make([]bool, n, c) // no marks outside Update
}

// Rewards returns the engine's reward slice, indexed by node id. The
// engine owns it: the next Update changes it in place, and one after a
// join may move it to a larger array.
func (e *Engine) Rewards() core.Rewards { return e.r }
