// Package incremental maintains Incentive Tree rewards under a stream of
// joins and contribution updates without recomputing the whole tree.
//
// An engine is an observer: it reads a referral tree that someone else
// changes (the live service applies every write through journal.State)
// and is told after each change — Joined(u) once u is in the tree,
// Contributed(u, delta) once C(u) has grown by delta. Recomputing R(u)
// for all u is O(n) per read; the engines exploit the recursive
// structure of the mechanisms to keep per-node reward state that each
// notification updates in O(depth):
//
//   - Geometric: R(u) = b*S(u) with S(u) = C(u) + a*sum_children S, so a
//     contribution delta at v adds a^dist * delta to S along v's ancestor
//     path.
//   - CDRM: R(u) = f(C(u), Y(u)) with Y(u) the proper-descendant sum, so
//     a delta at v adds delta to Y along the ancestor path.
//
// Mechanisms whose rewards depend on global structure (L-Pachira) or on
// a non-local transformation (TDRM's reward computation tree) do not
// admit this decomposition and are served by full evaluation.
package incremental

import (
	"time"

	"incentivetree/internal/cdrm"
	"incentivetree/internal/core"
	"incentivetree/internal/geometric"
	"incentivetree/internal/obs"
	"incentivetree/internal/tree"
)

// Engine writes are recorded in the process-wide obs registry, split by
// engine kind and operation, so an operator can compare incremental
// O(depth) maintenance against full O(n) recomputation in production:
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

// done records one completed operation started at start.
func (r opRecorder) done(start time.Time) {
	r.ops.Inc()
	r.lat.Observe(time.Since(start).Seconds())
}

var (
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

// ForTree returns an engine observing t, with its per-node reward state
// built from t in O(n), when m's rewards admit O(depth) maintenance
// (Geometric, CDRM family), and (nil, false) otherwise. Mechanisms that
// need global structure (TDRM, L-Pachira) are better served by per-read
// full evaluation.
func ForTree(m core.Mechanism, t *tree.Tree) (Engine, bool) {
	switch mech := unwrap(m).(type) {
	case *geometric.Mechanism:
		return NewGeometricFromTree(mech, t), true
	case *cdrm.Mechanism:
		return NewCDRMFromTree(mech, t), true
	}
	return nil, false
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
	defer geoJoinOps.done(time.Now()) //itreevet:ignore floatorder wall clock feeds only the op-latency histogram, never reward state
	for len(e.s) <= int(u) {
		e.s = append(e.s, 0)
	}
	e.bubble(u, e.t.Contribution(u))
}

// Contributed implements Engine in O(depth).
func (e *GeometricEngine) Contributed(u tree.NodeID, delta float64) {
	defer geoContrib.done(time.Now()) //itreevet:ignore floatorder wall clock feeds only the op-latency histogram, never reward state
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
	defer cdrmJoinOps.done(time.Now()) //itreevet:ignore floatorder wall clock feeds only the op-latency histogram, never reward state
	for len(e.desc) <= int(u) {
		e.desc = append(e.desc, 0)
	}
	e.propagate(u, e.t.Contribution(u))
}

// Contributed implements Engine in O(depth).
func (e *CDRMEngine) Contributed(u tree.NodeID, delta float64) {
	defer cdrmContrib.done(time.Now()) //itreevet:ignore floatorder wall clock feeds only the op-latency histogram, never reward state
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
