package main

import (
	"os"
	"path/filepath"
	"runtime"
	"time"

	"incentivetree/internal/journal"
	"incentivetree/internal/obs"
	"incentivetree/internal/server"
)

// tally is one metric family summed over its label series: the value of
// a counter or gauge, or the count and sum of a histogram.
type tally struct {
	value, count, sum float64
}

// readTallies reads every family of the given registries by exposition
// name. Families are summed over their label series and over
// registries, so a counter keeps its reading when it moves from the
// process-wide registry to the store's labelled one. Snapshot evaluates
// gauge functions, some of which run a full reward evaluation: call it
// outside timed windows.
func readTallies(regs ...*obs.Registry) map[string]tally {
	out := make(map[string]tally)
	for _, reg := range regs {
		for _, mv := range reg.Snapshot() {
			t := out[mv.Name]
			t.value += mv.Value
			t.count += float64(mv.Count)
			t.sum += mv.Sum
			out[mv.Name] = t
		}
	}
	return out
}

// diff returns after minus before for one family.
func diff(before, after map[string]tally, name string) tally {
	a, b := after[name], before[name]
	return tally{value: a.value - b.value, count: a.count - b.count, sum: a.sum - b.sum}
}

// ratio returns num/den, or 0 when den is 0 (no events to average).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// queueSampler samples a campaign's ingest queue depth until stopped.
type queueSampler struct {
	stop  chan struct{}
	done  chan struct{}
	sum   float64
	count int
}

func sampleQueue(srv *server.Server, every time.Duration) *queueSampler {
	q := &queueSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(q.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-q.stop:
				return
			case <-tick.C:
				q.sum += float64(srv.IngestQueueLen())
				q.count++
			}
		}
	}()
	return q
}

// mean stops the sampler and returns the mean sampled depth.
func (q *queueSampler) mean() float64 {
	close(q.stop)
	<-q.done
	return ratio(q.sum, float64(q.count))
}

// memSample holds the runtime.MemStats counters the traced run diffs.
type memSample struct {
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{totalAlloc: ms.TotalAlloc, numGC: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// probeJournal times the journal layer alone: batches of the given size
// appended through a binary journal writer to a file under dir with the
// sync-always policy, as the store's campaign journals are. It returns
// the mean milliseconds per batch (write + fsync).
func probeJournal(dir string, names []string, batch, rounds int) (float64, error) {
	path := filepath.Join(dir, "journal-probe.log")
	defer os.Remove(path)
	fw, err := journal.OpenFile(path, journal.SyncAlways, 0)
	if err != nil {
		return 0, err
	}
	defer fw.Close()
	jw := journal.NewWriterMode(fw, 1, journal.ModeBinary)
	events := make([]journal.Event, max(batch, 1))
	for i := range events {
		events[i] = journal.Event{Kind: journal.KindContribute, Name: names[i%len(names)], Amount: 0.25}
	}
	var total time.Duration
	for r := 0; r < rounds; r++ {
		start := time.Now()
		if _, err := jw.AppendBatch(events); err != nil {
			return 0, err
		}
		total += time.Since(start)
	}
	return float64(total) / float64(rounds) / 1e6, nil
}
