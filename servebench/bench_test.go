package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func small(name string, n int) workload {
	w, ok := workloadByName(name)
	if !ok {
		panic("unknown workload " + name)
	}
	w.n = n
	return w
}

func TestSeedIsDeterministic(t *testing.T) {
	for _, w := range workloads {
		w.n = 3000
		a, err := encodeSeed(w, generate(w, 7))
		if err != nil {
			t.Fatal(err)
		}
		b, err := encodeSeed(w, generate(w, 7))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.meta, b.meta) || !bytes.Equal(a.journal, b.journal) {
			t.Errorf("%s: same seed gave different seed files", w.name)
		}
		c, err := encodeSeed(w, generate(w, 8))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(a.journal, c.journal) {
			t.Errorf("%s: seeds 7 and 8 gave the same journal", w.name)
		}

		pop := generate(w, 7)
		s1, s2 := newStream(w, pop, 7, 1), newStream(w, pop, 7, 1)
		for i := 0; i < 2000; i++ {
			o1, o2 := s1.next(), s2.next()
			if o1 != o2 {
				t.Fatalf("%s: op %d differs: %+v vs %+v", w.name, i, o1, o2)
			}
			s1.ack(o1)
			s2.ack(o2)
		}
	}
}

func TestStreamKeepsThePopulationAndCTSteady(t *testing.T) {
	w := small("write-1k", 1000)
	pop := generate(w, 3)
	var seedC float64
	for _, c := range pop.contrib {
		seedC += c
	}
	s := newStream(w, pop, 3, 0)
	var added float64
	for i := 0; i < 100_000; i++ {
		o := s.next()
		if o.kind == opContribute {
			if k := o.amount * 1024; k != float64(int(k)) || k < 1 || k > 8 {
				t.Fatalf("amount %v is not k/1024 with k in [1, 8]", o.amount)
			}
			added += o.amount
		}
		s.ack(o)
	}
	if len(s.own) != maxJoins {
		t.Errorf("%d joins in 100000 ops, want the cap %d", len(s.own), maxJoins)
	}
	if added > 0.1*seedC {
		t.Errorf("100000 ops added %v to a seed C(T) of %v", added, seedC)
	}
}

func TestRecencyAttachmentIsDeeper(t *testing.T) {
	pa := generate(small("write-1k", 10_000), 1).maxDepth()
	rec := generate(small("readmix-10k", 10_000), 1).maxDepth()
	if rec <= 2*pa {
		t.Errorf("recency-biased depth %d, preferential depth %d: want a clearly deeper tree", rec, pa)
	}
}

func TestPercentileRule(t *testing.T) {
	samples := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(n-i) * time.Millisecond // descending, so sorting matters
		}
		return out
	}
	for _, tc := range []struct {
		q    float64
		n    int
		ok   bool
		want float64
	}{
		{0.99, 999, false, 0},
		{0.99, 1000, true, 990},
		{0.95, 199, false, 0},
		{0.95, 200, true, 190},
		{0.50, 19, false, 0},
		{0.50, 20, true, 10},
		{0.50, 0, false, 0},
	} {
		got, err := percentile(samples(tc.n), tc.q)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("p%g of %d samples = %v, %v; want %v, ok=%v", tc.q*100, tc.n, got, err, tc.want, tc.ok)
		}
	}
}

func TestGateRejectsWrongExpectations(t *testing.T) {
	// The recovered state of a real seed directory passes against the
	// generator's ledger and fails against a wrong one.
	w := small("write-1k", 200)
	pop := generate(w, 3)
	files, err := encodeSeed(w, pop)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := files.install(dir); err != nil {
		t.Fatal(err)
	}
	in, err := openInstance(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	got := in.campaign.Server().SnapshotState().Tree
	body, err := in.get("rewards")
	if err != nil {
		t.Fatal(err)
	}
	if err := in.close(); err != nil {
		t.Fatal(err)
	}
	good := mergeLedger(pop, nil)
	if err := checkLedger(got, good); err != nil {
		t.Fatalf("correct ledger rejected: %v", err)
	}
	wrong := mergeLedger(pop, nil)
	wrong.want[pop.names[17]] += 0.25
	if checkLedger(got, wrong) == nil {
		t.Error("a contribution off by 1/4 passed the gate")
	}
	extra := mergeLedger(pop, nil)
	extra.want["c0-1"] = 0
	if checkLedger(got, extra) == nil {
		t.Error("an acknowledged join missing from the store passed the gate")
	}
	short := mergeLedger(pop, nil)
	delete(short.want, pop.names[5])
	if checkLedger(got, short) == nil {
		t.Error("an unexpected participant passed the gate")
	}

	doc, err := parseRewards(body)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkBudget(doc, 0.5); err != nil {
		t.Fatalf("served table rejected: %v", err)
	}
	if checkBudget(doc, doc.TotalReward/doc.Total/2) == nil {
		t.Error("R(T) above Phi*C(T) passed the gate")
	}
	doc.Participants[3].Reward = -1e-12
	if checkBudget(doc, 0.5) == nil {
		t.Error("a negative reward passed the gate")
	}
	altered := bytes.Replace(body, []byte(`"reward":`), []byte(`"reward": `), 1)
	if checkIdentical(body, altered) == nil {
		t.Error("differing reward tables passed as identical")
	}
	ref := map[string]float64{"a": 1, "b": 2}
	if checkClose(map[string]float64{"a": 1, "b": 2 * (1 + 1e-10)}, ref, 1e-9) != nil {
		t.Error("a 1e-10 relative difference failed the 1e-9 check")
	}
	if checkClose(map[string]float64{"a": 1, "b": 2 * (1 + 1e-8)}, ref, 1e-9) == nil {
		t.Error("a 1e-8 relative difference passed the 1e-9 check")
	}
}

// benchmarkSpec is the part of BENCHMARK.json a run's output must
// match.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload at a tiny size, untraced and traced, so
// the benchmark cannot rot, and checks that each run reports exactly the
// metrics BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		w.n = 300
		for _, trace := range []bool{false, true} {
			var log strings.Builder
			rep, err := run(options{
				w: w, seed: 5, seconds: 500 * time.Millisecond, trace: trace,
				workDir: t.TempDir(), reps: 2, warmup: 100 * time.Millisecond,
				log: io.Writer(&log),
			})
			if err != nil || !rep.correct || rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("%s trace=%v: %v (report %+v)\n%s", w.name, trace, err, rep, log.String())
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			got := map[string]string{}
			for _, m := range rep.metrics {
				if !nameRE.MatchString(m.name) {
					t.Errorf("%s: metric name %q is not [A-Za-z0-9_.-]+", w.name, m.name)
				}
				if _, dup := got[m.name]; dup {
					t.Errorf("%s: metric %q reported twice", w.name, m.name)
				}
				got[m.name] = m.unit
			}
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: %d metrics reported, BENCHMARK.json lists %d", w.name, trace, len(got), len(want))
			}
			for _, m := range want {
				if unit, ok := got[m.Name]; !ok || unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s [%s] reported as %q (present %v)", w.name, trace, m.Name, m.Unit, unit, ok)
				}
			}
		}
	}
}
