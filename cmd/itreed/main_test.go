package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"incentivetree/internal/core"
	"incentivetree/internal/experiments"
	"incentivetree/internal/journal"
	"incentivetree/internal/obs"
	"incentivetree/internal/server"
	"incentivetree/internal/store"
)

func TestSetupWithSeeds(t *testing.T) {
	var out bytes.Buffer
	d, err := setup([]string{"-seed", "alice, bob", "-mechanism", "geometric"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer d.cleanup()
	if d.addr != ":8080" {
		t.Fatalf("addr = %q", d.addr)
	}
	if err := d.server.Contribute("alice", 2); err != nil {
		t.Fatalf("seed participant missing: %v", err)
	}
	if !strings.Contains(out.String(), "Geometric") {
		t.Fatalf("banner = %q", out.String())
	}
	// The handler serves.
	ts := httptest.NewServer(d.handler)
	defer ts.Close()
}

// TestSeedRestart: -seed on a persisted data dir joins each name once;
// later starts with the same flag skip names recovered from disk.
func TestSeedRestart(t *testing.T) {
	args := []string{"-data-dir", t.TempDir(), "-seed", "alice"}
	var out bytes.Buffer
	d, err := setup(args, &out)
	if err != nil {
		t.Fatal(err)
	}
	d = restart(t, d, args...)
	d = restart(t, d, args...)
	defer d.cleanup()
	if n, seq := d.server.SnapshotState().Tree.NumParticipants(), d.server.LastSeq(); n != 1 || seq != 1 {
		t.Fatalf("after three starts: %d participants over %d journal events, want one alice join", n, seq)
	}
}

func TestSetupErrors(t *testing.T) {
	var out bytes.Buffer
	if _, err := setup([]string{"-mechanism", "nope"}, &out); err == nil {
		t.Fatal("unknown mechanism should fail")
	}
	if _, err := setup([]string{"-phi", "0"}, &out); err == nil {
		t.Fatal("invalid params should fail")
	}
	if _, err := setup([]string{"-seed", "dup,dup"}, &out); err == nil {
		t.Fatal("duplicate seeds should fail")
	}
	if _, err := setup([]string{"-epoch-budget", "1.5"}, &out); err == nil {
		t.Fatal("epoch budget above 1 should fail")
	}
	if _, err := setup([]string{"-epoch-budget", "-0.1"}, &out); err == nil {
		t.Fatal("negative epoch budget should fail")
	}
	if _, err := setup([]string{"-journal-sync", "sometimes"}, &out); err == nil {
		t.Fatal("bad sync policy should fail")
	}
	if _, err := setup([]string{"-batch-max", "-1"}, &out); err == nil {
		t.Fatal("negative -batch-max should fail")
	}
}

// restart stops d (checkpointing every campaign) and starts a fresh
// daemon with args, as a process restart would.
func restart(t *testing.T, d *daemon, args ...string) *daemon {
	t.Helper()
	d.cleanup()
	var out bytes.Buffer
	d2, err := setup(args, &out)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	return d2
}

func TestSetupJournalRecovery(t *testing.T) {
	args := []string{"-data-dir", t.TempDir()}

	// First run: write some state through the journal.
	var out bytes.Buffer
	d, err := setup(args, &out)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.server.Join("ada", ""); err != nil {
		t.Fatal(err)
	}
	if err := d.server.Join("bo", "ada"); err != nil {
		t.Fatal(err)
	}
	if err := d.server.Contribute("bo", 4); err != nil {
		t.Fatal(err)
	}

	// Second run: state must come back from disk.
	d = restart(t, d, args...)
	if got := d.server.LastSeq(); got != 3 {
		t.Fatalf("recovered last seq = %d, want 3", got)
	}
	if total := d.server.SnapshotState().Tree.Total(); total != 4 {
		t.Fatalf("recovered total = %v", total)
	}
	// New writes continue the sequence.
	if err := d.server.Contribute("ada", 1); err != nil {
		t.Fatal(err)
	}
	d = restart(t, d, args...)
	defer d.cleanup()
	if got, total := d.server.LastSeq(), d.server.SnapshotState().Tree.Total(); got != 4 || total != 5 {
		t.Fatalf("after append + restart: last seq %d total %v, want 4 and 5", got, total)
	}
}

// defaultJournal initialises a data dir (one start and stop, which
// provisions the default campaign), writes data as the default
// campaign's journal.log, and returns the daemon args and journal
// path. This is the documented migration of a flat -journal file from
// earlier releases.
func defaultJournal(t *testing.T, data []byte, flags ...string) ([]string, string) {
	t.Helper()
	args := append([]string{"-data-dir", t.TempDir()}, flags...)
	var out bytes.Buffer
	d, err := setup(args, &out)
	if err != nil {
		t.Fatal(err)
	}
	d.cleanup()
	path := filepath.Join(args[1], "campaigns", store.DefaultID, "journal.log")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	return args, path
}

func TestSetupRejectsMidLogCorruption(t *testing.T) {
	args, _ := defaultJournal(t, []byte("garbage\n"+`{"seq":1,"kind":"join","name":"ada"}`+"\n"))
	var out bytes.Buffer
	if _, err := setup(args, &out); err == nil {
		t.Fatal("mid-log corruption should fail startup")
	}
}

func TestSetupRepairsTornTail(t *testing.T) {
	good := `{"seq":1,"kind":"join","name":"ada"}` + "\n" +
		`{"seq":2,"kind":"contribute","name":"ada","amount":2}` + "\n"
	args, path := defaultJournal(t, []byte(good+`{"seq":3,"kind":"contrib`)) // crash mid-append

	torn := obs.Default().Counter("itree_journal_torn_tails_total", "").Value()
	var out bytes.Buffer
	d, err := setup(args, &out)
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	if got := obs.Default().Counter("itree_journal_torn_tails_total", "").Value(); got != torn+1 {
		t.Fatalf("torn tails counted %d, want 1", got-torn)
	}
	// The partial record is gone from disk, and appends continue the
	// sequence.
	if data, err := os.ReadFile(path); err != nil || string(data) != good {
		t.Fatalf("repaired log = %q (%v), want %q", data, err, good)
	}
	if err := d.server.Contribute("ada", 3); err != nil {
		t.Fatal(err)
	}
	if got := d.server.LastSeq(); got != 3 {
		t.Fatalf("appended seq = %d, want 3", got)
	}

	// Restart once more: fully clean recovery.
	d = restart(t, d, args...)
	defer d.cleanup()
	if snap := d.server.SnapshotState(); snap.Tree.Total() != 5 || snap.LastSeq != 3 {
		t.Fatalf("recovered total %v at seq %d, want 5 at 3", snap.Tree.Total(), snap.LastSeq)
	}
}

// TestMigrateLegacyJournal walks the documented migration of a flat
// JSON-lines journal (what earlier releases' -journal flag wrote, torn
// tail included) into a data dir: the recovered default campaign must
// match a direct server.Recover of the same events byte for byte.
func TestMigrateLegacyJournal(t *testing.T) {
	var buf bytes.Buffer
	w := journal.NewWriter(&buf, 1)
	events := []journal.Event{
		{Kind: journal.KindJoin, Name: "ada"},
		{Kind: journal.KindJoin, Name: "bo", Sponsor: "ada"},
		{Kind: journal.KindJoin, Name: "cy", Sponsor: "bo"},
		{Kind: journal.KindContribute, Name: "ada", Amount: 2},
		{Kind: journal.KindContribute, Name: "bo", Amount: 3.5},
		{Kind: journal.KindJoin, Name: "dee", Sponsor: "ada"},
		{Kind: journal.KindContribute, Name: "cy", Amount: 1.25},
		{Kind: journal.KindContribute, Name: "dee", Amount: 4},
	}
	if _, err := w.AppendBatch(events); err != nil {
		t.Fatal(err)
	}
	good := buf.Len()
	buf.WriteString(`{"seq":9,"kind":"contribute","na`) // torn final record
	flags := []string{"-mechanism", "geometric", "-phi", "0.4", "-fair", "0.04"}
	args, path := defaultJournal(t, buf.Bytes(), flags...)

	// The reference: the same events recovered straight into a server.
	recovered, err := journal.Read(bytes.NewReader(buf.Bytes()[:good]))
	if err != nil {
		t.Fatal(err)
	}
	m, err := experiments.ByName(core.Params{Phi: 0.4, FairShare: 0.04}, "geometric")
	if err != nil {
		t.Fatal(err)
	}
	ref := server.New(m)
	if err := server.Recover(ref, nil, recovered); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	d, err := setup(args, &out)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := d.server.LastSeq(), ref.LastSeq(); got != want || got != uint64(len(events)) {
		t.Fatalf("last seq = %d, want %d", got, want)
	}
	if got, want := d.server.SnapshotState().Tree.Total(), ref.SnapshotState().Tree.Total(); got != want {
		t.Fatalf("C(T) = %v, want %v", got, want)
	}
	if got, want := getBody(t, d.handler, "/v1/rewards"), getBody(t, ref.Handler(), "/v1/rewards"); !bytes.Equal(got, want) {
		t.Fatalf("/v1/rewards =\n%s\nwant\n%s", got, want)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(good) {
		t.Fatalf("journal not truncated to its %d complete bytes: %v %v", good, fi, err)
	}

	// New appends continue the sequence (as binary records) and survive
	// a restart.
	if err := d.server.Contribute("bo", 1); err != nil {
		t.Fatal(err)
	}
	d = restart(t, d, args...)
	defer d.cleanup()
	if got, total := d.server.LastSeq(), d.server.SnapshotState().Tree.Total(); got != 9 || total != 11.75 {
		t.Fatalf("after append + restart: last seq %d total %v, want 9 and 11.75", got, total)
	}
}

// getBody GETs path from h and returns the 200 response body.
func getBody(t *testing.T, h http.Handler, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

func TestMetricsEndpoint(t *testing.T) {
	var out bytes.Buffer
	d, err := setup([]string{"-mechanism", "geometric", "-data-dir", t.TempDir()}, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer d.cleanup()
	ts := httptest.NewServer(d.handler)
	defer ts.Close()

	// Generate traffic: a join, a contribution, a read, and a 4xx.
	post := func(path, body string) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	post("/v1/join", `{"name":"ada"}`)
	post("/v1/contribute", `{"name":"ada","amount":2}`)
	post("/v1/contribute", `{"name":"ghost","amount":1}`)
	resp, err := http.Get(ts.URL + "/v1/rewards")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	// The acceptance surface: per-route latency histograms, journal
	// counters, incremental-engine counters, and the budget gauge. The
	// registry is process-wide, so assert presence, not exact counts —
	// except for the default campaign's domain gauges, which this
	// daemon registered last.
	for _, want := range []string{
		`itree_http_requests_total{code="2xx",route="POST /v1/join"}`,
		`itree_http_requests_total{code="4xx",route="POST /v1/contribute"}`,
		`http_request_duration_seconds_bucket{route="GET /v1/rewards",le="+Inf"}`,
		"# TYPE itree_http_request_duration_seconds histogram",
		"itree_journal_appends_total",
		"itree_journal_append_bytes_total",
		"itree_journal_torn_tails_total",
		"# TYPE itree_incremental_ops_total counter",
		`itree_participants{campaign="default"} 1`,
		`itree_budget_utilization{campaign="default"}`,
		`itree_contribution_total{campaign="default"} 2`,
		"# TYPE itree_mechanism_rewards_seconds histogram",
		`mechanism_rewards_seconds_count{mechanism="Geometric(`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestRunServesAndDrainsOnSignal(t *testing.T) {
	dataDir := t.TempDir()
	var out bytes.Buffer
	d, err := setup([]string{"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0", "-data-dir", dataDir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer d.cleanup()

	addrs := make(map[string]string)
	var mu sync.Mutex
	ready := make(chan struct{}, 2)
	d.listening = func(name, addr string) {
		mu.Lock()
		addrs[name] = addr
		mu.Unlock()
		ready <- struct{}{}
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	var runOut bytes.Buffer
	go func() { done <- run(ctx, d, &runOut) }()
	for i := 0; i < 2; i++ {
		select {
		case <-ready:
		case <-time.After(5 * time.Second):
			t.Fatal("listeners not ready")
		}
	}
	mu.Lock()
	api, debug := addrs["api"], addrs["debug"]
	mu.Unlock()

	// The daemon serves API writes and the debug endpoints.
	resp, err := http.Post("http://"+api+"/v1/join", "application/json", strings.NewReader(`{"name":"ada"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("join status = %d", resp.StatusCode)
	}
	resp, err = http.Get("http://" + debug + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars status = %d", resp.StatusCode)
	}
	resp, err = http.Get("http://" + debug + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status = %d", resp.StatusCode)
	}

	// Graceful shutdown: run returns cleanly, and the join survives into
	// the next start (the close checkpoints, so the journal itself is
	// compacted away).
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not drain in time")
	}
	if !strings.Contains(runOut.String(), "drained") {
		t.Fatalf("run output = %q", runOut.String())
	}
	d = restart(t, d, "-data-dir", dataDir)
	defer d.cleanup()
	if !d.server.Has("ada") || d.server.LastSeq() != 1 {
		t.Fatalf("restart lost the join: last seq %d", d.server.LastSeq())
	}
}

func TestDebugHandlerRoutes(t *testing.T) {
	ts := httptest.NewServer(debugHandler())
	defer ts.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/vars"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d", path, resp.StatusCode)
		}
	}
}

func TestSetupDataDirMultiCampaign(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-data-dir", dir, "-checkpoint-interval", "-1s", "-checkpoint-bytes", "-1",
		"-journal-sync", "always"}

	// First run: create a campaign beside the default one and write to both.
	var out bytes.Buffer
	d, err := setup(args, &out)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.handler)
	post := func(path, body string, want int) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("POST %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
	post("/v1/campaigns", `{"id":"acme","mechanism":"geometric"}`, http.StatusCreated)
	post("/v1/campaigns/acme/join", `{"name":"ada"}`, http.StatusCreated)
	post("/v1/campaigns/acme/contribute", `{"name":"ada","amount":3}`, http.StatusOK)
	post("/v1/join", `{"name":"zed"}`, http.StatusCreated) // legacy alias -> default campaign
	post("/v1/campaigns/acme/checkpoint", "", http.StatusOK)
	ts.Close()
	d.cleanup()
	if !strings.Contains(out.String(), "campaign(s) under "+dir) {
		t.Fatalf("banner = %q", out.String())
	}

	// Second run: both campaigns come back from disk.
	out.Reset()
	d2, err := setup(args, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.cleanup()
	if !strings.Contains(out.String(), "2 campaign(s)") {
		t.Fatalf("banner = %q", out.String())
	}
	acme, ok := d2.store.Get("acme")
	if !ok {
		t.Fatal("acme not recovered")
	}
	if total := acme.Server().SnapshotState().Tree.Total(); total != 3 {
		t.Fatalf("acme total = %v, want 3", total)
	}
	if snap := d2.server.SnapshotState(); snap.Tree.NumParticipants() != 1 {
		t.Fatalf("default campaign participants = %d, want 1", snap.Tree.NumParticipants())
	}
	// The store's own metrics are exposed.
	ts2 := httptest.NewServer(d2.handler)
	defer ts2.Close()
	resp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"itree_campaigns 2",
		`itree_participants{campaign="acme"} 1`,
		"itree_checkpoints_total",
		"itree_journal_syncs_total",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestSetupFollowerFlagValidation(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-role", "follower"}, // no -primary
		{"-role", "follower", "-primary", "http://x", "-data-dir", "d"},        // no disk state
		{"-role", "follower", "-primary", "http://x", "-seed", "a"},            // read-only
		{"-role", "follower", "-primary", "http://x", "-epoch-interval", "1s"}, // followers do not settle
		{"-role", "chief"},       // unknown role
		{"-primary", "http://x"}, // follower-only flag
	} {
		if _, err := setup(args, &out); err == nil {
			t.Errorf("setup(%v) should fail", args)
		}
	}
}

// startDaemon boots a full daemon (setup + run) on a loopback port and
// returns its API address plus a stopper.
func startDaemon(t *testing.T, args ...string) (string, func()) {
	t.Helper()
	var out bytes.Buffer
	d, err := setup(append([]string{"-addr", "127.0.0.1:0"}, args...), &out)
	if err != nil {
		t.Fatal(err)
	}
	ready := make(chan string, 1)
	d.listening = func(name, addr string) {
		if name == "api" {
			ready <- addr
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, d, &out) }()
	var api string
	select {
	case api = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatalf("api listener not ready; output: %s", out.String())
	}
	return api, func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("run: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("daemon did not stop")
		}
		d.cleanup()
	}
}

func TestFollowerDaemonReplicatesPrimary(t *testing.T) {
	papi, pstop := startDaemon(t, "-data-dir", t.TempDir())
	defer pstop()
	fapi, fstop := startDaemon(t, "-role", "follower", "-primary", "http://"+papi)
	defer fstop()

	for _, body := range []string{
		`{"name":"ada"}`, `{"name":"bo","sponsor":"ada"}`,
	} {
		resp, err := http.Post("http://"+papi+"/v1/join", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("join: HTTP %d", resp.StatusCode)
		}
	}

	fetch := func(url string) (int, http.Header, []byte) {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, resp.Header, buf.Bytes()
	}

	// The follower converges to byte-identical rewards, stamped with a
	// staleness header.
	_, _, want := fetch("http://" + papi + "/v1/rewards")
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, hdr, got := fetch("http://" + fapi + "/v1/rewards")
		if status == http.StatusOK && bytes.Equal(got, want) {
			if s := hdr.Get("X-Itree-Staleness"); !strings.HasPrefix(s, "records=") {
				t.Fatalf("staleness header %q", s)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never converged: HTTP %d, got %s want %s", status, got, want)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Writes are redirected to the primary, not applied locally.
	noRedirect := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := noRedirect.Post("http://"+fapi+"/v1/join", "application/json", strings.NewReader(`{"name":"cy"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("follower write: HTTP %d, want 307", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "http://"+papi+"/v1/join" {
		t.Fatalf("Location %q", loc)
	}

	// The replica metric family is on the follower's /metrics surface.
	_, _, metrics := fetch("http://" + fapi + "/metrics")
	for _, want := range []string{
		"itree_replica_lag_records", "itree_replica_lag_seconds",
		"itree_replica_applied_total", "itree_replica_resyncs_total",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("follower /metrics missing %s", want)
		}
	}
}

// TestIncrementalCampaignUsesEngine: a CDRM campaign gets its reward
// engine, with no option asked for, even though itreed wraps every
// mechanism in experiments.Instrumented; each committed write is one
// engine update.
func TestIncrementalCampaignUsesEngine(t *testing.T) {
	var out bytes.Buffer
	d, err := setup([]string{"-data-dir", t.TempDir()}, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer d.cleanup()
	updates := obs.Default().Counter("itree_incremental_ops_total", "", "engine", "cdrm")
	before := updates.Value()
	for _, req := range []struct{ path, body string }{
		{"/v1/campaigns", `{"id":"zeta","mechanism":"cdrm-reciprocal"}`},
		// The retired "incremental" field is ignored, not refused.
		{"/v1/campaigns", `{"id":"eta","mechanism":"geometric","incremental":true}`},
		{"/v1/campaigns/zeta/join", `{"name":"ada"}`},
		{"/v1/campaigns/zeta/join", `{"name":"bo","sponsor":"ada"}`},
		{"/v1/campaigns/zeta/contribute", `{"name":"bo","amount":2}`},
	} {
		rec := httptest.NewRecorder()
		d.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, req.path, strings.NewReader(req.body)))
		if rec.Code >= 300 {
			t.Fatalf("POST %s = %d: %s", req.path, rec.Code, rec.Body)
		}
	}
	if got := updates.Value() - before; got != 3 {
		t.Fatalf("engine updates = %d, want 3 (2 joins + 1 contribute)", got)
	}
}
