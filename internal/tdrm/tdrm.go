package tdrm

import (
	"fmt"
	"math"

	"incentivetree/internal/core"
	"incentivetree/internal/tree"
)

// Mechanism is the TDRM mechanism of Algorithm 4. Construct with New.
type Mechanism struct {
	params core.Params
	lambda float64     // quadratic-term scale, lambda < Phi - phi
	mu     float64     // contribution cap simulated by the RCT
	a      float64     // geometric decay
	b      float64     // bubble fraction, a + b < 1
	scale  float64     // lambda*b/mu, the quadratic term's weight
	inv    float64     // 1/(1-a)
	pow    [64]float64 // pow[k] = a^k, for Node
}

// New validates the Theorem 4 parameter regime: 0 < lambda < Phi - phi,
// mu > 0, 0 < a < 1, b > 0 and a + b < 1 (the paper states b < 1 - a; the
// budget proof uses sum_i a^i * b < 1).
func New(p core.Params, lambda, mu, a, b float64) (*Mechanism, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !(lambda > 0 && lambda < p.Phi-p.FairShare) {
		return nil, fmt.Errorf("%w: lambda = %v, need 0 < lambda < Phi-phi = %v",
			core.ErrBadParams, lambda, p.Phi-p.FairShare)
	}
	if !(mu > 0) {
		return nil, fmt.Errorf("%w: mu = %v, need mu > 0", core.ErrBadParams, mu)
	}
	if !(a > 0 && a < 1) {
		return nil, fmt.Errorf("%w: a = %v, need 0 < a < 1", core.ErrBadParams, a)
	}
	if !(b > 0 && a+b < 1) {
		return nil, fmt.Errorf("%w: b = %v, need b > 0 and a+b < 1 (a = %v)",
			core.ErrBadParams, b, a)
	}
	m := &Mechanism{params: p, lambda: lambda, mu: mu, a: a, b: b,
		scale: lambda * b / mu, inv: 1 / (1 - a)}
	m.pow[0] = 1
	for k := 1; k < len(m.pow); k++ {
		m.pow[k] = m.pow[k-1] * a
	}
	return m, nil
}

// Default returns the TDRM instance used across the experiments:
// lambda at 80% of its admissible ceiling, unit contribution cap, and
// a = b = 1/3.
func Default(p core.Params) (*Mechanism, error) {
	return New(p, 0.8*(p.Phi-p.FairShare), 1, 1.0/3.0, 1.0/3.0)
}

// Name implements core.Mechanism.
func (m *Mechanism) Name() string {
	return fmt.Sprintf("TDRM(lambda=%.3g,mu=%.3g,a=%.3g,b=%.3g)", m.lambda, m.mu, m.a, m.b)
}

// Params implements core.Mechanism.
func (m *Mechanism) Params() core.Params { return m.params }

// Lambda returns the quadratic-term scale.
func (m *Mechanism) Lambda() float64 { return m.lambda }

// Mu returns the contribution cap simulated by the RCT.
func (m *Mechanism) Mu() float64 { return m.mu }

// A returns the geometric decay parameter.
func (m *Mechanism) A() float64 { return m.a }

// B returns the bubble fraction.
func (m *Mechanism) B() float64 { return m.b }

// NodeRewards computes R'(w) for every node w of an already-transformed
// reward computation tree:
//
//	R'(w) = (lambda/mu) * C'(w) * sum_{x in T'_w} a^dep_w(x) * b * C'(x)
//	        + phi * C'(w).
//
// The weighted subtree sum S(w) = C'(w) + a * sum_children S is computed
// bottom-up in O(n), as in the geometric mechanism.
func (m *Mechanism) NodeRewards(r *RCT) core.Rewards {
	t := r.T
	s := make([]float64, t.Len())
	for id := t.Len() - 1; id >= 1; id-- {
		w := tree.NodeID(id)
		s[w] += t.Contribution(w)
		s[t.Parent(w)] += m.a * s[w]
	}
	out := make(core.Rewards, t.Len())
	scale := m.lambda * m.b / m.mu
	for id := 1; id < t.Len(); id++ {
		w := tree.NodeID(id)
		c := t.Contribution(w)
		out[w] = scale*c*s[w] + m.params.FairShare*c
	}
	return out
}

// Rewards implements core.Mechanism: the rewards of the referral tree's
// RCT, each chain folded back onto its participant (see RewardsInto).
func (m *Mechanism) Rewards(t *tree.Tree) (core.Rewards, error) {
	return m.RewardsInto(t, nil)
}

// RewardsInto implements core.IntoMechanism. It computes what Transform
// + NodeRewards + the per-chain fold compute, without building the RCT:
// one Node fold per participant, children before parents, so an
// evaluation is O(n) whatever the contributions are, where the RCT has
// sum(N_u) nodes. Results equal the RCT evaluation up to floating-point
// summation order.
//
// X_u accumulates u's children in descending id order. An engine that
// recomputes one node's X in that same order (internal/incremental)
// reproduces this evaluation bit for bit.
func (m *Mechanism) RewardsInto(t *tree.Tree, buf core.Rewards) (core.Rewards, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	contribs, parents := t.Contributions(), t.Parents()
	out := core.ResizeRewards(buf, len(parents))
	// Referral-tree ids are topological, so a reverse scan finishes every
	// child before its parent: out[u] holds X_u when u is reached, and is
	// then overwritten with R(u).
	for id := len(parents) - 1; id >= 1; id-- {
		head, r := m.Node(contribs[id], out[id])
		out[id] = r
		out[parents[id]] += head
	}
	out[tree.Root] = 0
	return out, nil
}

// Node folds one participant's ε-chain in closed form. A participant
// with contribution c, chain length N = N_u, head contribution h and
//
//	x = X_u = sum over u's children v of S(head_v)
//
// has head = S(head_u) = h + mu*G + a^N*x and r = R(u) =
// scale*(h*S(head_u) + mu*sum_{k=2..N} S(m_k)) + phi*c, where G =
// sum_{i=1..N-1} a^i and the mu-nodes' sums form geometric series in
// a^(N-1) too. So R(u) = alpha(c) + beta(c)*x, and a change below u
// reaches R(u) only through x.
//
// Every product is rounded by an explicit conversion before it is
// added, so the compiler cannot fuse a multiply-add on one call path
// and not another: RewardsInto and the incremental engine get the same
// bits from the same (c, x).
func (m *Mechanism) Node(c, x float64) (head, r float64) {
	a, mu := m.a, m.mu
	n, h := chainShape(c, mu)
	pn := m.powA(n - 1)
	g := float64(a*(1-pn)) * m.inv
	head = h + float64(mu*g) + float64(float64(a*pn)*x)
	tail := float64(float64(mu*(n-1-g))*m.inv) + float64(g*x) // sum of S over the N-1 mu-nodes
	r = float64(m.scale*(float64(h*head)+float64(mu*tail))) + float64(m.params.FairShare*c)
	return head, r
}

// powA returns a^k for a whole k >= 0. Short chains, nearly every
// participant's, read a table: a data-dependent math.Pow or squaring
// loop per participant costs more than the rest of the fold.
func (m *Mechanism) powA(k float64) float64 {
	if k < float64(len(m.pow)) {
		return m.pow[int(k)]
	}
	return math.Pow(m.a, k)
}

// Preliminary is the budget-violating quadratic mechanism of Algorithm 3,
// kept for the Sect. 5 narrative and for tests demonstrating why the RCT
// construction is necessary:
//
//	R(u) = C(u) * sum_{v in T_u} a^dep_u(v) * b * C(v).
//
// It satisfies the USA-achieving quadratic structure but exceeds any
// linear budget once contributions grow, so it is NOT a core.Mechanism.
type Preliminary struct {
	// A is the geometric decay, B the bubble fraction.
	A, B float64
}

// Rewards evaluates Algorithm 3 on t.
func (p Preliminary) Rewards(t *tree.Tree) core.Rewards {
	s := make([]float64, t.Len())
	for id := t.Len() - 1; id >= 1; id-- {
		u := tree.NodeID(id)
		s[u] += t.Contribution(u)
		s[t.Parent(u)] += p.A * s[u]
	}
	out := make(core.Rewards, t.Len())
	for id := 1; id < t.Len(); id++ {
		u := tree.NodeID(id)
		out[u] = t.Contribution(u) * p.B * s[u]
	}
	return out
}
