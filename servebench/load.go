package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// client is one closed-loop participant: it sends a request, waits for
// the reply, and only then sends the next, over one keep-alive
// connection of its own.
type client struct {
	hc   *http.Client
	base string // .../v1/campaigns/<id>/
	s    *stream
	body []byte
}

func newClient(base string, s *stream) *client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: time.Minute}, base: base, s: s}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// participantDoc and leaderboardDoc are the parts of the server's
// replies the clients check.
type participantDoc struct {
	Name   string  `json:"name"`
	Reward float64 `json:"reward"`
}

type leaderboardDoc struct {
	K            int              `json:"k"`
	Participants int              `json:"participants"`
	Leaders      []participantDoc `json:"leaders"`
}

// do sends o and returns its latency, timed from before the request is
// written until the reply body has been read. The reply is checked
// after timing; a non-2xx status or a wrong reply is an error.
func (c *client) do(o op) (time.Duration, error) {
	var req *http.Request
	var err error
	want := http.StatusOK
	switch o.kind {
	case opContribute:
		c.body = append(c.body[:0], `{"name":`...)
		c.body = strconv.AppendQuote(c.body, c.s.name(o.target))
		c.body = append(c.body, `,"amount":`...)
		c.body = strconv.AppendFloat(c.body, o.amount, 'g', -1, 64)
		c.body = append(c.body, '}')
		req, err = http.NewRequest(http.MethodPost, c.base+"contribute", bytes.NewReader(c.body))
	case opJoin:
		c.body = append(c.body[:0], `{"name":`...)
		c.body = strconv.AppendQuote(c.body, o.name)
		c.body = append(c.body, `,"sponsor":`...)
		c.body = strconv.AppendQuote(c.body, o.sponsor)
		c.body = append(c.body, '}')
		req, err = http.NewRequest(http.MethodPost, c.base+"join", bytes.NewReader(c.body))
		want = http.StatusCreated
	case opParticipant:
		req, err = http.NewRequest(http.MethodGet, c.base+"participants/"+c.s.name(o.target), nil)
	case opLeaderboard:
		req, err = http.NewRequest(http.MethodGet, c.base+"leaderboard?k=10", nil)
	}
	if err != nil {
		return 0, err
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	if resp.StatusCode != want {
		return d, fmt.Errorf("%s: status %d: %.200s", kindNames[o.kind], resp.StatusCode, body)
	}
	return d, c.checkReply(o, body)
}

// checkReply verifies that a reply describes what was asked for.
func (c *client) checkReply(o op, body []byte) error {
	switch o.kind {
	case opLeaderboard:
		var doc leaderboardDoc
		if err := json.Unmarshal(body, &doc); err != nil {
			return fmt.Errorf("leaderboard: %w", err)
		}
		if doc.K != len(doc.Leaders) || doc.K != min(10, doc.Participants) || doc.Participants < c.s.size() {
			return fmt.Errorf("leaderboard: k=%d with %d leaders of %d participants", doc.K, len(doc.Leaders), doc.Participants)
		}
		if !sort.SliceIsSorted(doc.Leaders, func(i, j int) bool { return doc.Leaders[i].Reward > doc.Leaders[j].Reward }) {
			return fmt.Errorf("leaderboard: leaders not ranked by reward")
		}
		return nil
	default:
		var doc participantDoc
		if err := json.Unmarshal(body, &doc); err != nil {
			return fmt.Errorf("%s: %w", kindNames[o.kind], err)
		}
		want := o.name
		if o.kind != opJoin {
			want = c.s.name(o.target)
		}
		if doc.Name != want || doc.Reward < 0 {
			return fmt.Errorf("%s: reply for %q, want %q (reward %v)", kindNames[o.kind], doc.Name, want, doc.Reward)
		}
		return nil
	}
}

// window is the length of the slices a phase's completions are
// counted in.
const window = time.Second

// phaseStats aggregates one phase of load over all clients.
type phaseStats struct {
	lat [numKinds][]time.Duration
	// perWindow counts the operations completed in each window of the
	// phase.
	perWindow []int
	attempted int
	failed    int
	errs      []string
	elapsed   time.Duration
	// cpu is the process CPU time (user + system) spent during the
	// phase, by the store and the clients together.
	cpu time.Duration
	// steal is the time the hypervisor took from the machine's CPUs
	// during the phase, summed over the CPUs.
	steal time.Duration
}

func (p *phaseStats) completed() int { return p.attempted - p.failed }

func (p *phaseStats) opsPerSec() float64 { return float64(p.completed()) / p.elapsed.Seconds() }

// cpuMsPerOp is the process CPU time per completed operation.
func (p *phaseStats) cpuMsPerOp() float64 { return float64(p.cpu) / 1e6 / float64(p.completed()) }

// processCPU returns the CPU time this process has used so far. Time
// the hypervisor steals from a virtual CPU is not charged to it, which
// makes CPU time per operation steadier than wall-clock figures on a
// shared machine.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTime returns the time the hypervisor has taken from this
// machine's CPUs so far, summed over the CPUs (the steal column of the
// cpu line of /proc/stat, in clock ticks of 10 ms), or 0 where it is not
// reported.
func stealTime() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// unstolenMsPerOp is the CPU capacity the phase had, its wall time on
// every CPU less the time the hypervisor stole, per completed operation.
// It counts waits (fsync, locks) that CPU time misses, without the steal
// that moves wall-clock figures on a shared machine.
func (p *phaseStats) unstolenMsPerOp() float64 {
	capacity := time.Duration(runtime.NumCPU())*p.elapsed - p.steal
	return float64(capacity) / 1e6 / float64(p.completed())
}

func (p *phaseStats) merge(q *phaseStats) {
	for k := range p.lat {
		p.lat[k] = append(p.lat[k], q.lat[k]...)
	}
	p.attempted += q.attempted
	p.failed += q.failed
	p.errs = append(p.errs, q.errs...)
	for i, n := range q.perWindow {
		for len(p.perWindow) <= i {
			p.perWindow = append(p.perWindow, 0)
		}
		p.perWindow[i] += n
	}
}

func (p *phaseStats) meanMs(k opKind) float64 {
	if len(p.lat[k]) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range p.lat[k] {
		sum += d
	}
	return float64(sum) / float64(len(p.lat[k])) / 1e6
}

// runFor drives the workload's mix from every client, each in its own
// goroutine, until d has elapsed, and waits for all of them. A client
// stops at its first failure, since a failed write leaves its ledger
// unknown.
func runFor(clients []*client, d time.Duration) *phaseStats {
	parts := make([]phaseStats, len(clients))
	var wg sync.WaitGroup
	cpu0, steal0 := processCPU(), stealTime()
	start := time.Now()
	deadline := start.Add(d)
	for ci, c := range clients {
		wg.Add(1)
		go func(st *phaseStats, c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				o := c.s.next()
				st.attempted++
				lat, err := c.do(o)
				if err != nil {
					st.failed++
					st.errs = append(st.errs, err.Error())
					return
				}
				st.lat[o.kind] = append(st.lat[o.kind], lat)
				w := int(time.Since(start) / window)
				for len(st.perWindow) <= w {
					st.perWindow = append(st.perWindow, 0)
				}
				st.perWindow[w]++
				c.s.ack(o)
			}
		}(&parts[ci], c)
	}
	wg.Wait()
	total := &phaseStats{elapsed: time.Since(start), cpu: processCPU() - cpu0, steal: stealTime() - steal0}
	for i := range parts {
		total.merge(&parts[i])
	}
	return total
}
