package incremental

import (
	"math"
	"math/rand"
	"testing"

	"incentivetree/internal/cdrm"
	"incentivetree/internal/core"
	"incentivetree/internal/geometric"
	"incentivetree/internal/tdrm"
	"incentivetree/internal/tree"
)

// applyOps applies the op stream encoded in ops to tr in batches and
// calls e.Update once per batch, then check. Each batch starts with a
// byte b that sets its size to 1 + b%64 ops; each op takes two bytes.
// The low two bits of an op's first byte pick it:
//
//	0  join under a random participant (the second byte picks it)
//	1  join under participant 1, a hub whose fan-out every refold of
//	   it sums
//	2  join under the newest participant, growing deep chains
//	3  contribute to a participant the second byte picks, or to the
//	   newest one when its high bit is set, so a batch's join and a
//	   contribution to the joiner meet in one Update
//
// The remaining bits pick the amount: a join's contribution is 0 or a
// small multiple of unit; a contribution is 0, an exact multiple of
// unit, 1e19 (a TDRM chain far past any integer length), near
// MaxFloat64/4 (its sums overflow to +Inf) or an arbitrary fraction. A
// contribution that would leave C(u) infinite is refused by the tree
// and not touched.
func applyOps(tr *tree.Tree, e *Engine, unit float64, ops []byte, check func(string)) {
	for len(ops) > 0 {
		size := 1 + int(ops[0])%64
		ops = ops[1:]
		var touched []tree.NodeID
		for ; size > 0 && len(ops) >= 2; size-- {
			kind, amt, arg := ops[0]&3, ops[0]>>2, int(ops[1])
			ops = ops[2:]
			if kind != 3 && tr.Len() > 96 {
				kind = 3
			}
			if kind == 3 && tr.Len() == 1 {
				kind = 0
			}
			switch kind {
			case 3:
				u := tree.NodeID(1 + arg%tr.NumParticipants())
				if arg >= 128 {
					u = tree.NodeID(tr.Len() - 1)
				}
				var delta float64
				switch amt % 5 {
				case 1:
					delta = float64(amt/5) * unit
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
				touched = append(touched, u)
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
					c = float64(amt/2) * unit
				}
				touched = append(touched, tr.MustAdd(parent, c))
			}
		}
		e.Update(touched)
		check("batch")
	}
}

// requireExact fails t unless every reward e serves has the bits of a
// full evaluation of tr.
func requireExact(t *testing.T, m core.IntoMechanism, tr *tree.Tree, e *Engine, when string) {
	t.Helper()
	want, err := m.RewardsInto(tr, nil)
	if err != nil {
		t.Fatalf("%s: full eval: %v", when, err)
	}
	got := e.Rewards()
	if len(got) != len(want) {
		t.Fatalf("%s: engine has %d rewards, want %d", when, len(got), len(want))
	}
	for id := range want {
		if wb, gb := math.Float64bits(want[id]), math.Float64bits(got[id]); gb != wb {
			t.Fatalf("%s: R(%d) = %v (%#x), full evaluation %v (%#x)", when, id, got[id], gb, want[id], wb)
		}
	}
}

// fuzzExact drives an engine over m with an op stream (see applyOps)
// and requires its rewards to be bitwise equal to m.RewardsInto after
// every batch. Halfway through, the tree goes through the binary
// snapshot codec and the engine is rebuilt from the decoded tree; the
// rebuilt rewards must keep the same bits, and the rest of the stream
// runs on the decoded tree, whose sibling chains every later refold
// reads.
func fuzzExact(t *testing.T, m core.IntoMechanism, unit float64, ops []byte) {
	if len(ops) > 512 {
		ops = ops[:512] // each batch checks the whole tree
	}
	tr := tree.New()
	e, ok := ForTree(m, tr)
	if !ok {
		t.Fatalf("%s: no engine", m.Name())
	}
	check := func(when string) { requireExact(t, m, tr, e, m.Name()+" "+when) }
	half := len(ops) / 2
	applyOps(tr, e, unit, ops[:half], check)

	dec, _, err := tree.DecodeBinary(tr.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	before := e.Rewards()
	tr = dec
	if e, ok = ForTree(m, tr); !ok {
		t.Fatal("no engine for the decoded tree")
	}
	for id, r := range e.Rewards() {
		if math.Float64bits(r) != math.Float64bits(before[id]) {
			t.Fatalf("rebuilt from decoded tree: R(%d) = %v, live engine had %v", id, r, before[id])
		}
	}
	check("after decode")
	applyOps(tr, e, unit, ops[half:], check)
}

// fuzzSeeds adds the seed corpus both fuzzers share.
func fuzzSeeds(f *testing.F) {
	f.Add(uint16(1023), []byte{9, 0, 0, 1, 0, 1, 0, 2, 0, 3, 1, 7, 2, 11, 3, 15, 4, 19, 5, 6, 0})
	f.Add(uint16(1023), []byte{0, 0, 0, 3, 8, 0, 11, 1, 15, 0, 3, 2, 2, 0, 2, 0, 2, 0, 3, 3, 43, 2})
	f.Add(uint16(511), []byte{63, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 7, 0, 7, 3, 27, 1, 255, 5, 3, 200})
	rng := rand.New(rand.NewSource(1))
	long := make([]byte, 512)
	rng.Read(long)
	f.Add(uint16(1023), long)
}

// FuzzTDRMEngineExact checks TDRM's engine against tdrm.RewardsInto
// (see fuzzExact). mu is (0, 4], and amounts are multiples of it.
func FuzzTDRMEngineExact(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, muRaw uint16, ops []byte) {
		mu := float64(muRaw%4096+1) / 1024
		p := core.DefaultParams()
		m, err := tdrm.New(p, 0.8*(p.Phi-p.FairShare), mu, 1.0/3.0, 1.0/3.0)
		if err != nil {
			t.Fatal(err)
		}
		fuzzExact(t, m, mu, ops)
	})
}

// FuzzFoldEngineExact checks the engine of Geometric, CDRM-Reciprocal
// and CDRM-Log against each mechanism's RewardsInto (see fuzzExact),
// with amounts in multiples of unit, (0, 4].
func FuzzFoldEngineExact(f *testing.F) {
	fuzzSeeds(f)
	p := core.DefaultParams()
	geo, err := geometric.Default(p)
	if err != nil {
		f.Fatal(err)
	}
	rec, err := cdrm.DefaultReciprocal(p)
	if err != nil {
		f.Fatal(err)
	}
	lg, err := cdrm.DefaultLog(p)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, unitRaw uint16, ops []byte) {
		unit := float64(unitRaw%4096+1) / 1024
		for _, m := range []core.IntoMechanism{geo, rec, lg} {
			fuzzExact(t, m, unit, ops)
		}
	})
}
