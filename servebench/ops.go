package main

import (
	"math/rand/v2"
	"strconv"
)

// opKind is one request type of the traffic mix.
type opKind int

const (
	opContribute opKind = iota
	opJoin
	opParticipant
	opLeaderboard
	numKinds
)

var kindNames = [numKinds]string{"contribute", "join", "participant", "leaderboard"}

// op is one request a client sends. target indexes the client's view of
// the population (seed participants, then the client's own joins).
type op struct {
	kind    opKind
	target  int
	amount  float64
	name    string // join only
	sponsor string // join only
}

// stream is one client's deterministic operation sequence. A client
// only ever targets the seed population and its own acknowledged
// joins, so the k-th operation of client c depends on (seed, c, k)
// alone, never on how the two clients interleave; and each client
// keeps its own ledger of acknowledged contributions, merged after the
// run.
type stream struct {
	w      workload
	pop    *population
	rng    *rand.Rand
	client int
	joins  int       // joins issued so far (names are unique per client)
	own    []string  // acknowledged fresh joins, in order
	delta  []float64 // acknowledged contributions by target index
}

func newStream(w workload, pop *population, seed uint64, client int) *stream {
	return &stream{
		w:      w,
		pop:    pop,
		rng:    newRand(seed, uint64(1+client)),
		client: client,
		delta:  make([]float64, len(pop.names)),
	}
}

// size is the number of participants this client knows.
func (s *stream) size() int { return len(s.pop.names) + len(s.own) }

func (s *stream) name(i int) string {
	if i < len(s.pop.names) {
		return s.pop.names[i]
	}
	return s.own[i-len(s.pop.names)]
}

// churnTarget follows treegen's churn model: 70% of targets come from
// the most recent 10% of joiners, 30% are uniform.
func (s *stream) churnTarget() int {
	m := s.size()
	if s.rng.IntN(10) < 7 {
		return m - 1 - s.rng.IntN(max(1, m/10))
	}
	return s.rng.IntN(m)
}

// maxJoins caps the fresh joins of one client stream. Past it a join
// draw becomes a contribute, so the population a run ends with, and
// with it the heap and the cost of a TDRM evaluation, does not grow
// with the run's throughput.
const maxJoins = 50

// next draws the next operation of the workload's mix.
func (s *stream) next() op {
	r := s.rng.IntN(1000)
	mix := s.w.mix
	switch {
	case r < mix[opContribute] || r < mix[opContribute]+mix[opJoin] && s.joins == maxJoins:
		// Amounts of 1/1024 to 8/1024 add a few percent to the seed's
		// C(T) over a run, so TDRM, whose evaluation cost grows with
		// C(T), costs the same at the end of a run as at its start.
		return op{kind: opContribute, target: s.churnTarget(), amount: dyadic(s.rng, 8, 1024)}
	case r < mix[opContribute]+mix[opJoin]:
		s.joins++
		name := "c" + strconv.Itoa(s.client) + "-" + strconv.Itoa(s.joins)
		return op{kind: opJoin, name: name, sponsor: s.name(s.churnTarget())}
	case r < mix[opContribute]+mix[opJoin]+mix[opParticipant]:
		return op{kind: opParticipant, target: s.rng.IntN(s.size())}
	default:
		return op{kind: opLeaderboard}
	}
}

// ack records an acknowledged write in the client's ledger.
func (s *stream) ack(o op) {
	switch o.kind {
	case opContribute:
		s.delta[o.target] += o.amount
	case opJoin:
		s.own = append(s.own, o.name)
		s.delta = append(s.delta, 0)
	}
}

// ledger is the expected final state: every participant's exact
// contribution and the population size.
type ledger struct {
	want map[string]float64
}

// mergeLedger combines the seed contributions with every client's
// acknowledged writes.
func mergeLedger(pop *population, streams []*stream) ledger {
	want := make(map[string]float64, len(pop.names))
	for i, name := range pop.names {
		want[name] = pop.contrib[i]
	}
	for _, s := range streams {
		for i, d := range s.delta {
			want[s.name(i)] += d
		}
	}
	return ledger{want: want}
}
