package main

import (
	"fmt"
	"time"

	"incentivetree/internal/obs"
)

// traced runs the traced phase after the untraced one. The store is
// set up again from the same seed files and driven by the same client
// streams, so the two phases differ only in tracing. The layer
// counters, runtime statistics and ingest queue depth are recorded
// around the measured phase, and the per-layer metrics are reported
// with the tracing overhead.
func (r *runner) traced(untraced *phaseStats) error {
	o := r.o
	old := r.in
	r.in = nil
	if err := old.close(); err != nil {
		return err
	}
	if err := r.files.install(r.dir); err != nil {
		return err
	}
	in, err := openInstance(r.dir, o.w.incremental)
	if err != nil {
		return err
	}
	r.in = in
	r.startClients()
	reg := in.reg
	var before, after map[string]tally
	var mem0, mem1 memSample
	var queueMean float64
	phase, err := r.measure(func() func() {
		before = readTallies(reg, obs.Default())
		mem0 = readMem()
		queue := sampleQueue(in.campaign.Server(), 2*time.Millisecond)
		return func() {
			queueMean = queue.mean()
			mem1 = readMem()
			after = readTallies(reg, obs.Default())
		}
	})
	if err != nil {
		return err
	}

	d := func(name string) tally { return diff(before, after, name) }
	// The reward layer is the mechanism as itreed instruments it, which
	// counts every evaluation and times one in eight, or on an
	// incremental campaign the engine, whose updates time themselves.
	var evals, evalMs float64
	if o.w.incremental {
		engine := d("itree_incremental_op_seconds")
		evals, evalMs = engine.count, ratio(engine.sum*1e3, engine.count)
	} else {
		timed := d("itree_mechanism_rewards_seconds")
		evals, evalMs = d("itree_mechanism_rewards_total").value, ratio(timed.sum*1e3, timed.count)
	}
	evalSecs := evals * evalMs / 1e3
	batches := d("itree_ingest_batches_total").value
	size := d("itree_ingest_batch_size")
	commit := d("itree_ingest_commit_seconds")
	commitMs := ratio(commit.sum*1e3, commit.count)
	appends := d("itree_journal_appends_total").value
	hits, misses := d("itree_rewards_cache_hits_total").value, d("itree_rewards_cache_misses_total").value
	ops := float64(phase.completed())
	batchMean := ratio(size.sum, size.count)
	journalMs, err := probeJournal(r.dir, r.pop.names, int(batchMean+0.5), 50)
	if err != nil {
		return fmt.Errorf("journal probe: %w", err)
	}
	outsideMs := phase.meanMs(opContribute) - commitMs

	r.add("rewards.evals", "count", evals)
	r.add("rewards.eval_ms_mean", "ms", evalMs)
	r.add("rewards.evals_per_batch", "ratio", ratio(evals, batches))
	r.add("rewards.commit_share", "ratio", ratio(evalSecs, commit.sum))
	r.add("journal.appends", "count", appends)
	r.add("journal.syncs_per_batch", "ratio", ratio(d("itree_journal_syncs_total").value, batches))
	r.add("journal.bytes_per_op", "bytes", ratio(d("itree_journal_append_bytes_total").value, appends))
	r.add("journal.append_sync_ms", "ms", journalMs)
	r.add("ingest.batches", "count", batches)
	r.add("ingest.batch_size_mean", "ops", batchMean)
	r.add("ingest.commit_ms_mean", "ms", commitMs)
	r.add("ingest.shed", "count", d("itree_ingest_shed_total").value)
	r.add("ingest.queue_depth_mean", "ops", queueMean)
	r.add("server.write_outside_commit_ms", "ms", outsideMs)
	r.add("query.hits", "count", hits)
	r.add("query.misses", "count", misses)
	r.add("query.hit_ratio", "ratio", ratio(hits, hits+misses))
	r.add("runtime.alloc_bytes_per_op", "bytes", ratio(float64(mem1.totalAlloc-mem0.totalAlloc), ops))
	r.add("runtime.gc_cycles", "count", float64(mem1.numGC-mem0.numGC))
	r.add("runtime.gc_pause_ms", "ms", float64(mem1.pauseNs-mem0.pauseNs)/1e6)
	r.add("trace.overhead_frac", "ratio", 1-phase.opsPerSec()/untraced.opsPerSec())

	// Checkpoints are counted from the start of the phase through the
	// traced store's graceful close, which always checkpoints, so the
	// layer is never unobserved; the ones the size or interval trigger
	// made during the phase are logged apart.
	in = r.in
	r.in = nil
	if err := in.close(); err != nil {
		return err
	}
	closed := readTallies(reg, obs.Default())
	cp := diff(before, closed, "itree_checkpoint_seconds")
	r.add("store.checkpoints", "count", diff(before, closed, "itree_checkpoints_total").value)
	r.add("store.checkpoint_ms_mean", "ms", ratio(cp.sum*1e3, cp.count))
	r.logf("checkpoints: %.0f during the phase, %.0f at close",
		diff(before, after, "itree_checkpoints_total").value, diff(after, closed, "itree_checkpoints_total").value)
	if r.in, err = openInstance(r.dir, o.w.incremental); err != nil {
		return err
	}

	r.logf("traced: %.1f ops/s traced vs %.1f untraced", phase.opsPerSec(), untraced.opsPerSec())
	for _, m := range r.rep.metrics {
		r.logf("layer %-32s %14.4f %s", m.name, m.value, m.unit)
	}
	rewardsMs := ratio(evals, batches) * evalMs
	parts := []struct {
		name string
		ms   float64
	}{
		{"rewards (mechanism evaluation or engine updates)", rewardsMs},
		{"journal write+fsync (probe)", journalMs},
		{"rest (lock wait, apply, engine, views)", commitMs - rewardsMs - journalMs},
	}
	largest := parts[0]
	for _, p := range parts {
		r.logf("commit breakdown per batch: %-50s %9.4f ms", p.name, p.ms)
		if p.ms > largest.ms {
			largest = p
		}
	}
	r.logf("contribute latency: %.4f ms in the commit, %.4f ms outside it (HTTP, JSON, waiting in the ingest queue)",
		commitMs, outsideMs)
	r.logf("largest share of the commit: %s; predicted: %s", largest.name, o.w.predicted)
	return nil
}
