package incremental

import (
	"math"
	"math/rand"
	"testing"

	"incentivetree/internal/core"
	"incentivetree/internal/tdrm"
	"incentivetree/internal/tree"
)

// tdrmOps applies the op stream encoded in ops to tr and e, two bytes
// per op, and calls check after each. The low two bits of the first
// byte pick the op:
//
//	0  join under a random participant (the second byte picks it)
//	1  join under participant 1, a hub whose fan-out every walk through
//	   it pays
//	2  join under the newest participant, growing deep chains
//	3  contribute to a participant the second byte picks
//
// The remaining bits pick the amount: a join's contribution is 0 or a
// small multiple of mu; a contribution is 0, an exact multiple of mu,
// 1e19 (a chain far past any integer length), near MaxFloat64/4 (its
// sums overflow to +Inf) or an arbitrary fraction. A contribution that
// would leave C(u) infinite is refused by the tree and not notified.
func tdrmOps(tr *tree.Tree, e *TDRMEngine, mu float64, ops []byte, check func(string)) {
	for i := 0; i+1 < len(ops); i += 2 {
		kind, amt, arg := ops[i]&3, ops[i]>>2, int(ops[i+1])
		if kind != 3 && tr.Len() > 96 {
			kind = 3
		}
		if kind == 3 && tr.Len() == 1 {
			kind = 0
		}
		switch kind {
		case 3:
			u := tree.NodeID(1 + arg%tr.NumParticipants())
			var delta float64
			switch amt % 5 {
			case 1:
				delta = float64(amt/5) * mu
			case 2:
				delta = 1e19
			case 3:
				delta = math.MaxFloat64 / 4
			case 4:
				delta = float64(arg) / 7
			}
			if tr.AddContribution(u, delta) != nil {
				continue
			}
			e.Contributed(u, delta)
		default:
			parent := tree.NodeID(arg % tr.Len())
			switch {
			case kind == 1 && tr.Len() > 1:
				parent = 1
			case kind == 2:
				parent = tree.NodeID(tr.Len() - 1)
			}
			c := 0.0
			if amt%2 == 1 {
				c = float64(amt/2) * mu
			}
			e.Joined(tr.MustAdd(parent, c))
		}
		check("op " + string(rune('0'+kind)))
	}
}

// requireExact fails t unless every reward e serves — through Reward
// and through Live — has the bits of a full evaluation of tr.
func requireExact(t *testing.T, m *tdrm.Mechanism, tr *tree.Tree, e *TDRMEngine, when string) {
	t.Helper()
	want, err := m.RewardsInto(tr, nil)
	if err != nil {
		t.Fatalf("%s: full eval: %v", when, err)
	}
	live := e.Live()
	if len(live) != len(want) {
		t.Fatalf("%s: live slice has %d rewards, want %d", when, len(live), len(want))
	}
	for id := range want {
		u := tree.NodeID(id)
		if wb, gb := math.Float64bits(want[id]), math.Float64bits(e.Reward(u)); gb != wb {
			t.Fatalf("%s: Reward(%d) = %v (%#x), full evaluation %v (%#x)", when, id, e.Reward(u), gb, want[id], wb)
		}
		if wb, lb := math.Float64bits(want[id]), math.Float64bits(live[id]); lb != wb {
			t.Fatalf("%s: Live()[%d] = %v, full evaluation %v", when, id, live[id], want[id])
		}
	}
}

// FuzzTDRMEngineExact drives a TDRMEngine with an op stream (see
// tdrmOps) and requires its rewards to be bitwise equal to
// tdrm.RewardsInto after every op. Halfway through, the tree goes
// through the binary snapshot codec and the engine is rebuilt from the
// decoded tree; the rebuilt rewards must keep the same bits, and the
// rest of the stream runs on the decoded tree, whose sibling chains
// every later walk reads.
func FuzzTDRMEngineExact(f *testing.F) {
	f.Add(uint16(1023), []byte{0, 0, 1, 0, 1, 0, 2, 0, 3, 1, 7, 2, 11, 3, 15, 4, 19, 5, 6, 0})
	f.Add(uint16(1023), []byte{0, 0, 8, 0, 11, 1, 15, 0, 3, 2, 2, 0, 2, 0, 2, 0, 3, 3, 43, 2})
	f.Add(uint16(511), []byte{0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 7, 0, 7, 3, 27, 1, 255, 5})
	rng := rand.New(rand.NewSource(1))
	long := make([]byte, 512)
	rng.Read(long)
	f.Add(uint16(1023), long)
	f.Fuzz(func(t *testing.T, muRaw uint16, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512] // each op checks the whole tree
		}
		mu := float64(muRaw%4096+1) / 1024 // (0, 4]
		p := core.DefaultParams()
		m, err := tdrm.New(p, 0.8*(p.Phi-p.FairShare), mu, 1.0/3.0, 1.0/3.0)
		if err != nil {
			t.Fatal(err)
		}
		tr := tree.New()
		e := NewTDRMFromTree(m, tr)
		check := func(when string) { requireExact(t, m, tr, e, when) }
		half := len(ops) / 4 * 2
		tdrmOps(tr, e, mu, ops[:half], check)

		dec, _, err := tree.DecodeBinary(tr.AppendBinary(nil))
		if err != nil {
			t.Fatal(err)
		}
		before := e.Live()
		tr, e = dec, NewTDRMFromTree(m, dec)
		for id, r := range e.Live() {
			if math.Float64bits(r) != math.Float64bits(before[id]) {
				t.Fatalf("rebuilt from decoded tree: R(%d) = %v, live engine had %v", id, r, before[id])
			}
		}
		check("after decode")
		tdrmOps(tr, e, mu, ops[half:], check)
	})
}
