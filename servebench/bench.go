package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"incentivetree/internal/core"
	"incentivetree/internal/obs"
)

// workload is one traffic mix against one seeded campaign.
type workload struct {
	name        string
	n           int    // seed population
	mechanism   string // experiments.ByName key
	incremental bool   // campaign Meta.Incremental
	recency     bool   // recency-biased attachment (deeper trees)
	mix         [numKinds]int
	// predicted names the part expected to carry most of the commit
	// time, as stated before measuring.
	predicted string
}

var workloads = []workload{
	{
		name: "write-1k", n: 1_000, mechanism: "tdrm",
		mix:       [numKinds]int{opContribute: 990, opJoin: 10},
		predicted: "journal write+fsync and the ingest handoff, not rewards",
	},
	{
		name: "write-100k", n: 100_000, mechanism: "tdrm",
		mix:       [numKinds]int{opContribute: 990, opJoin: 10},
		predicted: "rewards, a full TDRM evaluation per batch",
	},
	{
		name: "readmix-10k", n: 10_000, mechanism: "cdrm-reciprocal", incremental: true, recency: true,
		mix:       [numKinds]int{opContribute: 150, opParticipant: 800, opLeaderboard: 50},
		predicted: "rest: the write lock waits behind view rebuilds under the read lock",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options configures one benchmark run.
type options struct {
	w       workload
	seed    uint64
	seconds time.Duration // each measured phase
	trace   bool
	workDir string // parent of the run's data directory
	// reps is the least number of timed set-ups, and of timed restarts;
	// more are made, up to maxReps, while repBudget has not run out.
	reps      int
	repBudget time.Duration
	warmup    time.Duration
	log       io.Writer
}

// metric is one reported figure.
type metric struct {
	name, unit string
	value      float64
}

// report is the outcome of a run: its metrics, valid only when correct.
type report struct {
	correct           bool
	attempted, failed int
	metrics           []metric
}

// runner carries the state of one run.
type runner struct {
	o       options
	pop     *population
	files   seedFiles
	dir     string
	in      *instance
	streams []*stream
	clients []*client
	rep     report
}

func (r *runner) logf(format string, args ...any) { fmt.Fprintf(r.o.log, format+"\n", args...) }

func (r *runner) add(name, unit string, v float64) {
	r.rep.metrics = append(r.rep.metrics, metric{name, unit, v})
}

// count adds a phase's requests to the report; any failure ends the run.
func (r *runner) count(p *phaseStats, what string) error {
	r.rep.attempted += p.attempted
	r.rep.failed += p.failed
	if p.failed > 0 {
		return fmt.Errorf("%s: %d of %d requests failed (error_frac %.4g), first: %s",
			what, p.failed, p.attempted, float64(p.failed)/float64(p.attempted), p.errs[0])
	}
	return nil
}

// run executes one benchmark run: generate, set up, drive, check. The
// returned report is correct only if every check passed.
func run(o options) (*report, error) {
	r := &runner{o: o, dir: filepath.Join(o.workDir, fmt.Sprintf("%s-%d", o.w.name, os.Getpid()))}
	defer os.RemoveAll(r.dir)
	err := r.run()
	if r.in != nil {
		if cerr := r.in.close(); err == nil {
			err = cerr
		}
	}
	for _, c := range r.clients {
		c.close()
	}
	r.rep.correct = err == nil
	return &r.rep, err
}

func (r *runner) run() error {
	o := r.o
	r.pop = generate(o.w, o.seed)
	var err error
	if r.files, err = encodeSeed(o.w, r.pop); err != nil {
		return err
	}
	start := time.Now()
	setups, err := r.timedOpens(func() error { return r.files.install(r.dir) })
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r.logf("timing: %d set-ups took %.2fs", len(setups.cpu), time.Since(start).Seconds())
	if err := r.printShape(); err != nil {
		return err
	}
	r.startClients()
	var before, after map[string]tally
	phase, err := r.measure(func() func() {
		before = readTallies(r.in.reg)
		return func() { after = readTallies(r.in.reg) }
	})
	if err != nil {
		return err
	}
	if !o.trace {
		r.logf("group commit: %.0f batches for %d ops", diff(before, after, "itree_ingest_batches_total").value, phase.completed())
		r.endToEnd(phase, setups)
		return r.gate()
	}
	// Each measured phase is gated before its store is thrown away.
	if err := r.gate(); err != nil {
		return err
	}
	if err := r.traced(phase); err != nil {
		return err
	}
	return r.gate()
}

// startClients starts two fresh client streams from the workload seed
// against the running store.
func (r *runner) startClients() {
	for _, c := range r.clients {
		c.close()
	}
	r.streams, r.clients = nil, nil
	for c := 0; c < 2; c++ {
		s := newStream(r.o.w, r.pop, r.o.seed, c)
		r.streams = append(r.streams, s)
		r.clients = append(r.clients, newClient(r.in.base, s))
	}
}

// measure warms the store up, then drives it for the measured phase.
// around, when set, is called just before the phase starts and returns
// a function called just after it ends.
func (r *runner) measure(around func() func()) (*phaseStats, error) {
	if err := r.count(runFor(r.clients, r.o.warmup), "warm-up"); err != nil {
		return nil, err
	}
	engineBefore := readTallies(obs.Default())
	var after func()
	if around != nil {
		after = around()
	}
	phase := runFor(r.clients, r.o.seconds)
	if after != nil {
		after()
	}
	if err := r.count(phase, "measured phase"); err != nil {
		return nil, err
	}
	return phase, r.checkEngine(engineBefore)
}

// maxReps caps the timed set-ups and restarts of one run.
const maxReps = 101

// openTimes are the timings of repeated opens, in seconds.
type openTimes struct {
	cpu, wall []float64
}

// timedOpens opens the store repeatedly, each time after prepare,
// timing each open until its first request has been served, and leaves
// the last one running.
func (r *runner) timedOpens(prepare func() error) (openTimes, error) {
	var t openTimes
	start := time.Now()
	for i := 0; i < r.o.reps || i < maxReps && time.Since(start) < r.o.repBudget; i++ {
		if r.in != nil {
			in := r.in
			r.in = nil
			if err := in.close(); err != nil {
				return t, err
			}
		}
		if err := prepare(); err != nil {
			return t, err
		}
		// Collect the previous store's garbage first, so every timed
		// open starts from the same heap.
		runtime.GC()
		in, cpu, wall, err := openServed(r.dir, r.o.w.incremental, r.pop.names[0])
		if err != nil {
			return t, err
		}
		r.in = in
		t.cpu = append(t.cpu, cpu.Seconds())
		t.wall = append(t.wall, wall.Seconds())
	}
	return t, nil
}

// checkEngine fails an incremental workload whose engine did no work in
// the measured phase: the campaign would then be measuring the
// full-evaluation path instead.
func (r *runner) checkEngine(before map[string]tally) error {
	if !r.o.w.incremental {
		return nil
	}
	if ops := diff(before, readTallies(obs.Default()), "itree_incremental_ops_total").value; ops == 0 {
		return fmt.Errorf("incremental engine not attached: no engine operations in the measured phase")
	}
	return nil
}

// latency logs the p50 and the given upper percentile of one request
// kind, for the kinds the workload's mix sends. A percentile without
// enough samples beyond it is logged as not reported.
func (r *runner) latency(p *phaseStats, k opKind, upper float64) {
	if r.o.w.mix[k] == 0 {
		return
	}
	for _, q := range []float64{0.50, upper} {
		name := fmt.Sprintf("%s_p%d_ms", kindNames[k], int(q*100))
		v, err := percentile(p.lat[k], q)
		if err != nil {
			r.logf("latency %s not reported: %v", name, err)
			continue
		}
		r.logf("latency %s %.4f ms (%d samples)", name, v, len(p.lat[k]))
	}
}

// endToEnd reports the untraced run's metrics. Client-timed latencies
// and throughput are logged; the gated metrics are the ones that stay
// steady on a shared machine (see NOTES.md).
func (r *runner) endToEnd(phase *phaseStats, setups openTimes) {
	r.logf("ops per %s window: %v", window, phase.perWindow)
	r.latency(phase, opContribute, 0.99)
	r.latency(phase, opParticipant, 0.99)
	r.latency(phase, opLeaderboard, 0.95)
	r.logf("throughput ops_s %.1f ops/s (%d ops in %.2fs; %d joins)", phase.opsPerSec(), phase.completed(),
		phase.elapsed.Seconds(), len(phase.lat[opJoin]))
	r.logf("errors error_frac 0 (0 of %d requests failed)", r.rep.attempted)
	r.logf("wall: %.5f ms per op unstolen, %.5f ms per op raw; steal %.1f%% of %d CPUs",
		phase.unstolenMsPerOp(), float64(phase.elapsed)/1e6*float64(runtime.NumCPU())/float64(phase.completed()),
		100*float64(phase.steal)/float64(phase.elapsed)/float64(runtime.NumCPU()), runtime.NumCPU())

	// The latency samples are the benchmark's largest table and grow with
	// throughput; drop them so the heap reading is the store's. The
	// second GC empties the sync.Pool victim caches.
	phase.lat = [numKinds][]time.Duration{}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)

	r.add("cpu_ms_per_op", "ms", phase.cpuMsPerOp())
	r.add("setup_s", "s", median(setups.cpu))
	r.add("heap_mb", "MiB", heapMB)
	r.logf("metric cpu_ms_per_op %.5f ms (%.2f CPU-s over %d ops)", phase.cpuMsPerOp(), phase.cpu.Seconds(), phase.completed())
	r.logf("metric setup_s %.4f CPU-s (median of %d: %s); wall %.4f s (median)",
		median(setups.cpu), len(setups.cpu), fmtList(setups.cpu), median(setups.wall))
	r.logf("metric heap_mb %.3f MiB", heapMB)
}

// gate is the correctness check run after every measured phase: the
// served table is checked, the store is closed gracefully and reopened
// (each reopen timed, as the set-ups are), and the recovered state is
// checked against the ledger of acknowledged writes.
func (r *runner) gate() error {
	start := time.Now()
	defer func() { r.logf("timing: gate took %.2fs", time.Since(start).Seconds()) }()
	w := r.o.w
	phi := core.DefaultParams().Phi
	before, err := r.in.get("rewards")
	if err != nil {
		return err
	}
	docBefore, err := parseRewards(before)
	if err != nil {
		return err
	}
	if err := checkBudget(docBefore, phi); err != nil {
		return err
	}
	if w.incremental {
		if err := r.checkFresh(docBefore); err != nil {
			return err
		}
	}
	recovers, err := r.timedOpens(func() error { return nil })
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	after, err := r.in.get("rewards")
	if err != nil {
		return err
	}
	docAfter, err := parseRewards(after)
	if err != nil {
		return err
	}
	if err := checkBudget(docAfter, phi); err != nil {
		return err
	}
	if w.incremental {
		err = r.checkFresh(docAfter)
	} else {
		err = checkIdentical(before, after)
	}
	if err != nil {
		return err
	}
	if err := checkLedger(r.in.campaign.Server().SnapshotState().Tree, mergeLedger(r.pop, r.streams)); err != nil {
		return err
	}
	if !r.o.trace {
		r.logf("restart recover_s %.4f s (median of %d: %s); CPU %.4f s (median)",
			median(recovers.wall), len(recovers.wall), fmtList(recovers.wall), median(recovers.cpu))
	}
	r.logf("gate: ok (ledger exact for %d participants, budget and R(u) >= 0 hold, rewards %s across restart)",
		len(docAfter.Participants), map[bool]string{true: "within 1e-9 of a fresh evaluation", false: "byte-identical"}[w.incremental])
	return nil
}

// checkFresh compares a served table with a fresh full evaluation of the
// campaign's current tree.
func (r *runner) checkFresh(doc *rewardsDoc) error {
	mech, err := plainMechanisms(r.o.w.mechanism, core.DefaultParams())
	if err != nil {
		return err
	}
	fresh, err := freshRewards(mech, r.in.campaign.Server().SnapshotState().Tree)
	if err != nil {
		return err
	}
	return checkClose(doc.byName(), fresh, 1e-9)
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}
