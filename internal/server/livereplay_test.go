package server

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"incentivetree/internal/cdrm"
	"incentivetree/internal/core"
	"incentivetree/internal/geometric"
	"incentivetree/internal/ingest"
	"incentivetree/internal/journal"
	"incentivetree/internal/tdrm"
	"incentivetree/internal/treegen"
)

// FuzzLiveMatchesReplay guards the one-write-path contract: whatever a
// journaled server holds in memory after any mix of writes — batches,
// direct writes, quarantine flags, settles, claims, rejected ops, and
// a batch whose journal append fails — is exactly what recovering its
// journal bytes rebuilds, down to the bits of every served reward. Each
// mechanism runs served by its reward engine (incremental=true) and
// hidden behind fullEval, so the server evaluates it in full
// (incremental=false). The seed corpus runs under plain `go test`;
// `go test -fuzz=FuzzLiveMatchesReplay` explores further seeds.
func FuzzLiveMatchesReplay(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		for _, mc := range liveReplayMechanisms {
			for _, incremental := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/incremental=%v", mc.name, incremental), func(t *testing.T) {
					checkLiveMatchesReplay(t, mc, incremental, seed)
				})
			}
		}
	})
}

type liveReplayMechanism struct {
	name string
	new  func(core.Params) (core.Mechanism, error)
}

var liveReplayMechanisms = []liveReplayMechanism{
	{"tdrm", func(p core.Params) (core.Mechanism, error) { return tdrm.Default(p) }},
	{"cdrm-reciprocal", func(p core.Params) (core.Mechanism, error) { return cdrm.DefaultReciprocal(p) }},
	{"geometric", func(p core.Params) (core.Mechanism, error) { return geometric.Default(p) }},
}

// fullEval hides a mechanism's concrete type, so the server finds no
// reward engine for it and evaluates it in full at every version.
type fullEval struct{ core.Mechanism }

func checkLiveMatchesReplay(t *testing.T, mc liveReplayMechanism, incremental bool, seed int64) {
	newServer := func(opts ...Option) *Server {
		m, err := mc.new(core.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if !incremental {
			m = fullEval{m}
		}
		return New(m, opts...)
	}
	rng := rand.New(rand.NewSource(seed))
	mode := journal.ModeBinary
	if seed%2 == 0 {
		mode = journal.ModeJSON
	}
	var log bytes.Buffer
	fw := &failWriter{w: &log}
	live := newServer(WithJournal(journal.NewWriterMode(fw, 1, mode)))

	sc := treegen.Mix(rng, treegen.ScenarioConfig{Honest: 24, EpsilonChains: 1, Stars: 1, Prefix: "p"})
	ops := sc.Ops()
	var names []string
	pick := func() string {
		if len(names) == 0 || rng.Intn(8) == 0 {
			return fmt.Sprintf("ghost%d", rng.Intn(3))
		}
		return names[rng.Intn(len(names))]
	}
	reject := func() ingest.Op {
		switch rng.Intn(6) {
		case 0:
			return ingest.Op{Kind: ingest.OpJoin, Name: pick()} // duplicate (or a ghost joining)
		case 1:
			return ingest.Op{Kind: ingest.OpJoin, Name: "  " + pick() + "\t", Sponsor: pick()}
		case 2:
			return ingest.Op{Kind: ingest.OpJoin, Name: " "}
		case 3:
			return ingest.Op{Kind: ingest.OpJoin, Name: fmt.Sprintf("orphan%d", rng.Intn(1000)), Sponsor: "ghost"}
		case 4:
			bad := []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)}
			return ingest.Op{Kind: ingest.OpContribute, Name: pick(), Amount: bad[rng.Intn(len(bad))]}
		default:
			return ingest.Op{Kind: ingest.OpContribute, Name: pick(), Amount: 0.5}
		}
	}

	failBatch := rng.Intn(8)
	for i, batchNo := 0, 0; i < len(ops); batchNo++ {
		var batch []ingest.Op
		for n := 1 + rng.Intn(6); n > 0 && i < len(ops); n-- {
			op := ops[i]
			i++
			kind := ingest.OpJoin
			if op.Kind == treegen.OpContribute {
				kind = ingest.OpContribute
			}
			batch = append(batch, ingest.Op{Kind: kind, Name: op.Name, Sponsor: op.Sponsor, Amount: op.Amount})
			if rng.Intn(4) == 0 {
				batch = append(batch, reject())
			}
		}
		fw.fail = batchNo == failBatch
		seqBefore := live.LastSeq()
		results := live.ApplyBatch(batch)
		if fw.fail {
			for j, res := range results {
				if res.Err == nil {
					t.Fatalf("op %d of the failing batch succeeded", j)
				}
			}
			if got := live.LastSeq(); got != seqBefore {
				t.Fatalf("failed batch moved LastSeq from %d to %d", seqBefore, got)
			}
		}
		fw.fail = false
		for j, res := range results {
			if res.Err == nil && batch[j].Kind == ingest.OpJoin {
				names = append(names, res.Value.(Participant).Name)
			}
		}
		switch rng.Intn(8) {
		case 0:
			_ = live.Quarantine(pick())
		case 1:
			_ = live.Unquarantine(pick())
		case 2:
			_, _ = live.Settle()
		case 3:
			_, _ = live.Claim(pick(), uint64(rng.Intn(3)))
		case 4:
			_ = live.Join(" "+pick(), pick())
		case 5:
			_ = live.Contribute(pick(), rng.Float64()*3)
		}
	}
	// A near-MaxFloat64 contribution, and one whose sum would overflow.
	if err := live.Join("whale", ""); err != nil {
		t.Fatal(err)
	}
	if err := live.Contribute("whale", math.MaxFloat64/2); err != nil {
		t.Fatal(err)
	}
	if err := live.Contribute("whale", math.MaxFloat64); err == nil {
		t.Fatal("a contribution whose sum overflows was accepted")
	}
	_, _ = live.Settle()
	for _, name := range names {
		_, _ = live.Claim(name, 0)
	}

	events, err := journal.Read(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	rec := newServer()
	if err := Recover(rec, nil, events); err != nil {
		t.Fatalf("recover: %v", err)
	}

	if got, want := rec.LastSeq(), live.LastSeq(); got != want {
		t.Fatalf("recovered LastSeq %d, live %d", got, want)
	}
	liveSnap, recSnap := live.SnapshotState(), rec.SnapshotState()
	liveBytes, err := EncodeSnapshotBinary(&liveSnap)
	if err != nil {
		t.Fatal(err)
	}
	recBytes, err := EncodeSnapshotBinary(&recSnap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveBytes, recBytes) {
		t.Fatalf("recovered snapshot (%d bytes) differs from live (%d bytes)", len(recBytes), len(liveBytes))
	}
	if got, want := rec.QuarantinedNames(), live.QuarantinedNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered quarantine %v, live %v", got, want)
	}
	if !reflect.DeepEqual(recSnap.Epochs, liveSnap.Epochs) {
		t.Fatalf("recovered ledger %+v, live %+v", recSnap.Epochs, liveSnap.Epochs)
	}
	le, ls, lc, lcarry := live.LedgerView()
	re, rs, rc, rcarry := rec.LedgerView()
	if le != re || ls != rs || lc != rc || lcarry != rcarry {
		t.Fatalf("recovered ledger view (%d %v %v %v), live (%d %v %v %v)", re, rs, rc, rcarry, le, ls, lc, lcarry)
	}

	liveRewards, recRewards := servedTable(t, live), servedTable(t, rec)
	if len(liveRewards) != len(recRewards) {
		t.Fatalf("recovered %d rewards, live %d", len(recRewards), len(liveRewards))
	}
	for id, want := range liveRewards {
		if got := recRewards[id]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("node %d: recovered reward %v, live %v", id, got, want)
		}
	}
}

// servedTable returns the reward table s serves, indexed by node id.
func servedTable(t *testing.T, s *Server) core.Rewards {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	tb, _, err := s.tableLocked()
	if err != nil {
		t.Fatal(err)
	}
	return append(core.Rewards(nil), tb.rewards...)
}
