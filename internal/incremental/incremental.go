// Package incremental maintains Incentive Tree rewards under a stream of
// joins and contribution updates without recomputing the whole tree.
//
// An engine is an observer: it reads a referral tree that someone else
// changes (the live service applies every write through journal.State)
// and is told after each change — Joined(u) once u is in the tree,
// Contributed(u, delta) once C(u) has grown by delta. Recomputing R(u)
// for all u is O(n) per read; the engines exploit the recursive
// structure of the mechanisms to keep per-node reward state that each
// notification updates along u's root path:
//
//   - TDRM: R(u) = alpha(C(u)) + beta(C(u))*X_u with X_u the sum of
//     S(head_v) over u's children (tdrm.Mechanism.Node), so a change at
//     v changes S(head) and R only on v's root path. TDRMEngine
//     recomputes each node on that path from its children, in the
//     order a full evaluation sums them, so its rewards are bitwise
//     equal to tdrm.RewardsInto: it is an ExactEngine.
//   - Geometric: R(u) = b*S(u) with S(u) = C(u) + a*sum_children S, so a
//     contribution delta at v adds a^dist * delta to S along v's ancestor
//     path.
//   - CDRM: R(u) = f(C(u), Y(u)) with Y(u) the proper-descendant sum, so
//     a delta at v adds delta to Y along the ancestor path.
//
// The Geometric and CDRM engines accumulate deltas, so their rewards
// equal a full evaluation only up to floating-point summation order.
// Mechanisms whose rewards depend on global structure (L-Pachira) do
// not admit this decomposition and are served by full evaluation.
package incremental

import (
	"time"

	"incentivetree/internal/cdrm"
	"incentivetree/internal/core"
	"incentivetree/internal/geometric"
	"incentivetree/internal/obs"
	"incentivetree/internal/tdrm"
	"incentivetree/internal/tree"
)

// Engine writes are recorded in the process-wide obs registry, split by
// engine kind and operation, so an operator can compare root-path
// maintenance against full O(n) recomputation in production:
// itree_incremental_ops_total{engine,op} counts writes and
// itree_incremental_op_seconds{engine,op} tracks their latency.
type opRecorder struct {
	ops *obs.Counter
	lat *obs.Histogram
}

func newOpRecorder(engine, op string) opRecorder {
	return opRecorder{
		ops: obs.Default().Counter("itree_incremental_ops_total",
			"Engine write operations, by engine kind and op.",
			"engine", engine, "op", op),
		lat: obs.Default().Histogram("itree_incremental_op_seconds",
			"Engine write latency in seconds, by engine kind and op.",
			nil, "engine", engine, "op", op),
	}
}

// opTimer is one operation in flight: defer r.start().done().
type opTimer struct {
	r     opRecorder
	start time.Time
}

// start begins timing one operation.
func (r opRecorder) start() opTimer {
	return opTimer{r, time.Now()} //itreevet:ignore floatorder wall clock feeds only the op-latency histogram, never reward state
}

// done records the operation.
func (t opTimer) done() {
	t.r.ops.Inc()
	t.r.lat.Observe(time.Since(t.start).Seconds())
}

var (
	tdrmJoinOps = newOpRecorder("tdrm", "join")
	tdrmContrib = newOpRecorder("tdrm", "contribute")
	geoJoinOps  = newOpRecorder("geometric", "join")
	geoContrib  = newOpRecorder("geometric", "contribute")
	cdrmJoinOps = newOpRecorder("cdrm", "join")
	cdrmContrib = newOpRecorder("cdrm", "contribute")
)

// Engine maintains rewards over a referral tree it does not own. The
// tree's owner changes the tree first and then notifies the engine.
type Engine interface {
	// Joined records that participant u was added to the tree.
	Joined(u tree.NodeID)
	// Contributed records that C(u) grew by delta.
	Contributed(u tree.NodeID, delta float64)
	// Reward returns the current R(u) in O(1).
	Reward(u tree.NodeID) float64
	// Rewards snapshots all rewards.
	Rewards() core.Rewards
	// Mechanism returns the mechanism whose rewards are maintained.
	Mechanism() core.Mechanism
}

// ExactEngine is an Engine whose rewards equal the mechanism's full
// evaluation bit for bit after every notification, so a reader may
// serve its reward slice in place.
type ExactEngine interface {
	Engine
	// Live returns the engine's reward slice, indexed by node id. The
	// engine owns it: the next notification changes it in place, and a
	// join may move it to a larger array.
	Live() core.Rewards
}

// ForTree returns an engine observing t, with its per-node reward state
// built from t in O(n), when m's rewards admit root-path maintenance
// (TDRM, Geometric, CDRM family), and (nil, false) otherwise. For TDRM
// the engine is an ExactEngine; mechanisms that need global structure
// (L-Pachira) are better served by per-read full evaluation.
func ForTree(m core.Mechanism, t *tree.Tree) (Engine, bool) {
	switch mech := unwrap(m).(type) {
	case *tdrm.Mechanism:
		return NewTDRMFromTree(mech, t), true
	case *geometric.Mechanism:
		return NewGeometricFromTree(mech, t), true
	case *cdrm.Mechanism:
		return NewCDRMFromTree(mech, t), true
	}
	return nil, false
}

// Exact reports whether ForTree builds an ExactEngine for m.
func Exact(m core.Mechanism) bool {
	_, ok := unwrap(m).(*tdrm.Mechanism)
	return ok
}

// unwrap looks through a mechanism wrapper — one with an
// Unwrap() core.Mechanism method, such as the daemon's instrumentation —
// to the concrete mechanism the engines are built for.
func unwrap(m core.Mechanism) core.Mechanism {
	if w, ok := m.(interface{ Unwrap() core.Mechanism }); ok {
		return w.Unwrap()
	}
	return m
}

// TDRMEngine maintains TDRM rewards exactly. For every participant u it
// keeps head[u] = S(head_u), the weighted sum u's chain passes to its
// parent, and r[u] = R(u). Both are functions of C(u) and X_u, the sum
// of head over u's children (tdrm.Mechanism.Node), so a change at v
// changes them only on v's root path.
//
// The engine never accumulates deltas: each node on the path is
// recomputed from its children's heads, summed from the last-joined
// child back to the first. Sibling chains are in join order, which is
// id order, so that is the descending-id order in which
// tdrm.RewardsInto accumulates X_u, and the engine's rewards are
// bitwise equal to a full evaluation.
type TDRMEngine struct {
	mech *tdrm.Mechanism
	t    *tree.Tree
	head []float64    // S(head_u), by node id
	r    core.Rewards // R(u), by node id; r[Root] = 0
}

// NewTDRMFromTree observes t, folding every chain in one descending-id
// pass — the fold tdrm.RewardsInto runs — in O(n).
func NewTDRMFromTree(m *tdrm.Mechanism, t *tree.Tree) *TDRMEngine {
	e := &TDRMEngine{mech: m, t: t, head: make([]float64, t.Len()), r: make(core.Rewards, t.Len())}
	contribs, parents := t.Contributions(), t.Parents()
	// r[u] holds X_u until u is reached, as in RewardsInto.
	for id := len(parents) - 1; id >= 1; id-- {
		e.head[id], e.r[id] = m.Node(contribs[id], e.r[id])
		e.r[parents[id]] += e.head[id]
	}
	e.r[tree.Root] = 0
	return e
}

// Joined implements Engine in O(sum over u's root path of 1 + fan-out).
func (e *TDRMEngine) Joined(u tree.NodeID) {
	defer tdrmJoinOps.start().done()
	if n := e.t.Len(); len(e.r) < n {
		e.grow(n)
	}
	e.recompute(u)
}

// Contributed implements Engine in O(sum over u's root path of 1 +
// fan-out). delta is not used: u's chain is refolded from C(u).
func (e *TDRMEngine) Contributed(u tree.NodeID, _ float64) {
	defer tdrmContrib.start().done()
	e.recompute(u)
}

// grow extends head and r to n ids, in place while their capacity
// lasts. New arrays take the tree arena's capacity, so the engine's
// slack tracks the tree's growth instead of adding an append-doubling
// of its own.
func (e *TDRMEngine) grow(n int) {
	if n <= cap(e.r) {
		e.head, e.r = e.head[:n], e.r[:n]
		return
	}
	c := max(n, cap(e.t.Contributions()))
	head := make([]float64, n, c)
	copy(head, e.head)
	r := make(core.Rewards, n, c)
	copy(r, e.r)
	e.head, e.r = head, r
}

// recompute refolds u and every proper ancestor below the root. The
// root's fan-out is never summed: R(Root) is 0.
func (e *TDRMEngine) recompute(u tree.NodeID) {
	t := e.t
	for n := u; n != tree.Root; n = t.Parent(n) {
		x := 0.0
		for c := t.LastChild(n); c != tree.None; c = t.PrevSibling(c) {
			x += e.head[c]
		}
		e.head[n], e.r[n] = e.mech.Node(t.Contribution(n), x)
	}
}

// Reward implements Engine.
func (e *TDRMEngine) Reward(u tree.NodeID) float64 {
	if u <= tree.Root || int(u) >= len(e.r) {
		return 0
	}
	return e.r[u]
}

// Rewards implements Engine with a copy of Live.
func (e *TDRMEngine) Rewards() core.Rewards {
	return append(core.Rewards(nil), e.r...)
}

// Live implements ExactEngine.
func (e *TDRMEngine) Live() core.Rewards { return e.r }

// Mechanism implements Engine.
func (e *TDRMEngine) Mechanism() core.Mechanism { return e.mech }

// GeometricEngine incrementally maintains the (a,b)-Geometric mechanism.
type GeometricEngine struct {
	mech *geometric.Mechanism
	t    *tree.Tree
	s    []float64 // weighted subtree sums: R(u) = b * s[u]
}

// NewGeometricFromTree observes t, building the weighted subtree sums
// S(u) = C(u) + a*sum_children S in O(n). Valid trees have topological
// ids (parent < child), so one descending pass suffices.
func NewGeometricFromTree(m *geometric.Mechanism, t *tree.Tree) *GeometricEngine {
	e := &GeometricEngine{mech: m, t: t, s: make([]float64, t.Len())}
	for u := tree.NodeID(t.Len() - 1); u > tree.Root; u-- {
		e.s[u] += t.Contribution(u)
		e.s[t.Parent(u)] += m.A() * e.s[u]
	}
	return e
}

// Joined implements Engine in O(depth).
func (e *GeometricEngine) Joined(u tree.NodeID) {
	defer geoJoinOps.start().done()
	for len(e.s) <= int(u) {
		e.s = append(e.s, 0)
	}
	e.bubble(u, e.t.Contribution(u))
}

// Contributed implements Engine in O(depth).
func (e *GeometricEngine) Contributed(u tree.NodeID, delta float64) {
	defer geoContrib.start().done()
	e.bubble(u, delta)
}

// bubble adds delta to s[u] and a^dist*delta to every ancestor.
func (e *GeometricEngine) bubble(u tree.NodeID, delta float64) {
	factor := 1.0
	for n := u; n != tree.Root; n = e.t.Parent(n) {
		e.s[n] += factor * delta
		factor *= e.mech.A()
	}
}

// Reward implements Engine.
func (e *GeometricEngine) Reward(u tree.NodeID) float64 {
	if u <= tree.Root || int(u) >= len(e.s) {
		return 0
	}
	return e.mech.B() * e.s[u]
}

// Rewards implements Engine.
func (e *GeometricEngine) Rewards() core.Rewards {
	out := make(core.Rewards, len(e.s))
	for id := 1; id < len(e.s); id++ {
		out[id] = e.mech.B() * e.s[id]
	}
	return out
}

// Mechanism implements Engine.
func (e *GeometricEngine) Mechanism() core.Mechanism { return e.mech }

// CDRMEngine incrementally maintains any CDRM-family mechanism.
type CDRMEngine struct {
	mech *cdrm.Mechanism
	t    *tree.Tree
	desc []float64 // proper-descendant contribution sums y_u
}

// NewCDRMFromTree observes t, building the proper-descendant
// contribution sums y_u in O(n).
func NewCDRMFromTree(m *cdrm.Mechanism, t *tree.Tree) *CDRMEngine {
	e := &CDRMEngine{mech: m, t: t, desc: make([]float64, t.Len())}
	for u := tree.NodeID(t.Len() - 1); u > tree.Root; u-- {
		e.desc[t.Parent(u)] += e.desc[u] + t.Contribution(u)
	}
	return e
}

// Joined implements Engine in O(depth).
func (e *CDRMEngine) Joined(u tree.NodeID) {
	defer cdrmJoinOps.start().done()
	for len(e.desc) <= int(u) {
		e.desc = append(e.desc, 0)
	}
	e.propagate(u, e.t.Contribution(u))
}

// Contributed implements Engine in O(depth).
func (e *CDRMEngine) Contributed(u tree.NodeID, delta float64) {
	defer cdrmContrib.start().done()
	e.propagate(u, delta)
}

// propagate adds delta to every proper ancestor's descendant sum.
func (e *CDRMEngine) propagate(u tree.NodeID, delta float64) {
	for n := e.t.Parent(u); n != tree.Root && n != tree.None; n = e.t.Parent(n) {
		e.desc[n] += delta
	}
}

// Reward implements Engine.
func (e *CDRMEngine) Reward(u tree.NodeID) float64 {
	if u <= tree.Root || int(u) >= len(e.desc) {
		return 0
	}
	return e.mech.Func().Eval(e.t.Contribution(u), e.desc[u])
}

// Rewards implements Engine.
func (e *CDRMEngine) Rewards() core.Rewards {
	out := make(core.Rewards, len(e.desc))
	for id := 1; id < len(e.desc); id++ {
		out[id] = e.Reward(tree.NodeID(id))
	}
	return out
}

// Mechanism implements Engine.
func (e *CDRMEngine) Mechanism() core.Mechanism { return e.mech }
