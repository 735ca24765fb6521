// Package server exposes an Incentive Tree deployment as an in-memory
// JSON-over-HTTP referral service: participants join (optionally naming
// their solicitor), record contributions, and query their reward under
// the configured mechanism. This is the shape of the web campaign
// deployments the paper's introduction describes (sign-up links,
// referral codes, reward dashboards).
//
// Endpoints:
//
//	POST /v1/join        {"name": "...", "sponsor": "..."}   -> participant
//	POST /v1/contribute  {"name": "...", "amount": 1.5}      -> participant
//	GET  /v1/participants/{name}                             -> participant
//	GET  /v1/rewards                                         -> reward table
//	GET  /v1/leaderboard?k=N                                 -> top-K by reward
//	GET  /v1/tree                                            -> referral tree (nested JSON)
//	GET  /v1/stats                                           -> tree statistics
//	GET  /v1/epochs[/{n}]                                    -> settled payout epochs
//	POST /v1/epochs/settle                                   -> settle the next epoch
//	POST /v1/claims      {"name": "...", "epoch": N}         -> claim a settled share
//	GET  /v1/claims[?name=...]                               -> claims accounting
//	GET  /v1/healthz                                         -> 200 ok
//
// Join and contribute bodies are capped at 1 MiB (413 beyond), well
// inside what one journal record may hold.
//
// All state lives in memory behind a single RWMutex, in one
// journal.State: every write applies through State.Apply, the code
// recovery and replication replay the journal with. With WithBatching,
// writes flow through a group-commit ingest pipeline (one lock
// acquisition, journal sync, and reward recompute per batch; full
// queues shed with 429).
//
// Rewards are served from one reward table per commit version
// (readpath.go) that the batch producing the version, participant
// reads, /v1/rewards, /v1/leaderboard, /v1/stats and the metrics gauges
// all share, O(1) per participant read. Under TDRM, Geometric and the
// CDRM family the table is the exact engine's reward slice
// (internal/incremental): each committed batch refolds the union of
// its participants' root paths once, so a version costs O(dirty nodes
// and their fan-out), and O(n) only on a rebuild (open, restore) or
// while a quarantine mask is applied. Other mechanisms pay one O(n)
// evaluation per version.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"incentivetree/internal/audit"
	"incentivetree/internal/core"
	"incentivetree/internal/incremental"
	"incentivetree/internal/ingest"
	"incentivetree/internal/journal"
	"incentivetree/internal/obs"
	"incentivetree/internal/tree"
)

// Server is the shared state behind the HTTP handler.
type Server struct {
	mech      core.Mechanism
	journal   *journal.Writer
	metrics   *obs.Registry // nil = uninstrumented
	labels    []string      // metric labels from WithMetrics
	batching  *ingest.Options
	committer *ingest.Committer // non-nil iff WithBatching
	// table holds the reward table of the newest version read or
	// committed; tableHits/tableMisses count API reads against it
	// (nil = uninstrumented).
	table                  tableSlot
	tableHits, tableMisses *obs.Counter

	mu sync.RWMutex
	// state is the campaign state — tree, names, last seq, quarantine
	// flags and ledger. Every change to it goes through state.Apply,
	// the same code recovery and replication replay the journal with.
	state *journal.State
	// commitHook, when set, observes committed batches and restores; it
	// runs under the write lock (see SetCommitObserver).
	commitHook func(version uint64, touched []string)
	// auditor, when set, backs the audit report/scan endpoints (see
	// audit_http.go and SetAuditor).
	auditor *audit.Auditor
	// epochBudget, when non-zero, overrides the mechanism's Phi as the
	// epoch pool accrual fraction (WithEpochBudget).
	epochBudget float64
	// settleObs, when metrics are attached, counts settle/claim
	// operations (see settle_http.go).
	settleObs *settleCounters
	// version counts committed batches, quarantine flags, state
	// restores and replicated batches; it keys the reward table and,
	// unlike LastSeq, never moves backwards in-process.
	version uint64
	// engine, when non-nil, observes state's tree and maintains its
	// rewards; every commit that changes the tree calls Update once.
	engine *incremental.Engine
}

// New creates an empty deployment under the mechanism.
func New(m core.Mechanism, opts ...Option) *Server {
	s := &Server{mech: m, state: journal.NewState()}
	for _, opt := range opts {
		opt(s)
	}
	s.attachEngine()
	if s.batching != nil {
		// Deferred past option application so the pipeline inherits the
		// final registry/labels regardless of option order.
		o := *s.batching
		if o.Registry == nil {
			o.Registry = s.metrics
			o.Labels = s.labels
		}
		s.committer = ingest.New(s, o)
	}
	return s
}

// attachEngine rebuilds the reward engine over the current tree in
// O(n), when the mechanism admits one (incremental.ForTree). Callers
// hold the write lock or own s exclusively.
func (s *Server) attachEngine() {
	s.engine, _ = incremental.ForTree(s.mech, s.state.Tree)
}

// refoldLocked brings the engine, if any, up to date with the tree
// nodes one commit changed. Callers hold the write lock.
func (s *Server) refoldLocked(touched []tree.NodeID) {
	if s.engine != nil {
		s.engine.Update(touched)
	}
}

// Participant is the wire representation of one participant's state.
type Participant struct {
	Name         string  `json:"name"`
	Sponsor      string  `json:"sponsor,omitempty"`
	Contribution float64 `json:"contribution"`
	Reward       float64 `json:"reward"`
	Profit       float64 `json:"profit"`
	Recruits     int     `json:"recruits"`
	// Quarantined marks a participant whose payout is withheld because
	// it (or an ancestor) carries a quarantine flag; the contribution
	// stays as recorded.
	Quarantined bool `json:"quarantined,omitempty"`
}

type joinRequest struct {
	Name    string `json:"name"`
	Sponsor string `json:"sponsor"`
}

type contributeRequest struct {
	Name   string  `json:"name"`
	Amount float64 `json:"amount"`
}

type rewardsResponse struct {
	Mechanism    string        `json:"mechanism"`
	Total        float64       `json:"total_contribution"`
	TotalReward  float64       `json:"total_reward"`
	Budget       float64       `json:"budget"`
	Participants []Participant `json:"participants"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the HTTP API. With WithMetrics configured, every
// route is wrapped in obs.Middleware, recording request counts, status
// classes, and latency histograms keyed by route pattern.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/join", s.handleJoin)
	mux.HandleFunc("POST /v1/contribute", s.handleContribute)
	mux.HandleFunc("GET /v1/participants/{name}", s.handleParticipant)
	mux.HandleFunc("GET /v1/rewards", s.handleRewards)
	mux.HandleFunc("GET /v1/leaderboard", s.handleLeaderboard)
	mux.HandleFunc("GET /v1/tree", s.handleTree)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("POST /v1/restore", s.handleRestore)
	mux.HandleFunc("GET /v1/epochs", s.handleEpochs)
	mux.HandleFunc("GET /v1/epochs/{n}", s.handleEpoch)
	mux.HandleFunc("POST /v1/epochs/settle", s.handleSettle)
	mux.HandleFunc("POST /v1/claims", s.handleClaim)
	mux.HandleFunc("GET /v1/claims", s.handleClaims)
	mux.HandleFunc("GET /v1/audit", s.handleAudit)
	mux.HandleFunc("POST /v1/audit/scan", s.handleAuditScan)
	mux.HandleFunc("POST /v1/audit/quarantine", s.handleQuarantine)
	mux.HandleFunc("DELETE /v1/audit/quarantine/{name}", s.handleUnquarantine)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	if s.metrics == nil {
		return mux
	}
	return obs.Middleware(s.metrics, mux)
}

// maxWriteBody bounds the JSON body of a join or contribute request.
// Names this long are far past any real use, and the bound keeps every
// accepted write well inside what one journal record may hold.
const maxWriteBody = 1 << 20

// decodeWriteBody decodes a bounded write request body into v. On
// failure it returns the status to answer with — 400, or 413 past
// maxWriteBody — and the error to report.
func decodeWriteBody(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxWriteBody)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return http.StatusOK, nil
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", tooBig.Limit)
	default:
		return http.StatusBadRequest, errors.New("malformed JSON: " + err.Error())
	}
}

func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if status, err := decodeWriteBody(w, r, &req); err != nil {
		writeJSON(w, status, errorResponse{err.Error()})
		return
	}
	p, err := s.SubmitJoin(r.Context(), req.Name, req.Sponsor)
	if err != nil {
		writeOpError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, p)
}

func (s *Server) handleContribute(w http.ResponseWriter, r *http.Request) {
	var req contributeRequest
	if status, err := decodeWriteBody(w, r, &req); err != nil {
		writeJSON(w, status, errorResponse{err.Error()})
		return
	}
	p, err := s.SubmitContribute(r.Context(), req.Name, req.Amount)
	if err != nil {
		writeOpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, p)
}

// writeOpError maps a write-path failure to its HTTP shape: a full
// ingest queue is admission control (429 with a Retry-After hint), a
// closed pipeline or abandoned request is a 503, and anything else is
// the op's own validation error (400).
func writeOpError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ingest.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorResponse{err.Error()})
	case errors.Is(err, ingest.ErrClosed), errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
	}
}

func (s *Server) handleParticipant(w http.ResponseWriter, r *http.Request) {
	p, err := s.participant(r.PathValue("name"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorResponse{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, p)
}

// Has reports whether a participant with the given name has joined.
func (s *Server) Has(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.state.ByName[name]
	return ok
}

// participant returns one participant's view from the version's
// reward table.
func (s *Server) participant(name string) (Participant, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	id, ok := s.state.ByName[name]
	if !ok {
		return Participant{}, fmt.Errorf("unknown participant %q", name)
	}
	t, err := s.readTableLocked()
	if err != nil {
		return Participant{}, err
	}
	return t.participant(s.state.Tree, id), nil
}

func (s *Server) handleTree(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	writeJSON(w, http.StatusOK, s.state.Tree)
}

// statsResponse is the enriched /v1/stats payload: tree shape plus the
// paper-level budget view (R(T), Phi*C(T), and their ratio) and, when
// metrics are attached, a structured snapshot of every recorded metric.
type statsResponse struct {
	Mechanism         string      `json:"mechanism"`
	Params            core.Params `json:"params"`
	Tree              tree.Stats  `json:"tree"`
	TotalReward       float64     `json:"total_reward"`
	Budget            float64     `json:"budget"`
	BudgetUtilization float64     `json:"budget_utilization"`
	LastSeq           uint64      `json:"last_seq"`
	// Quarantined counts the quarantine flags currently set. TotalReward
	// above stays the mechanism-level R(T): budget accounting is about
	// what the mechanism allocates, not what payout withholds.
	Quarantined int               `json:"quarantined,omitempty"`
	Metrics     []obs.MetricValue `json:"metrics,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	t, err := s.readTableLocked()
	if err != nil {
		s.mu.RUnlock()
		writeJSON(w, http.StatusInternalServerError, errorResponse{err.Error()})
		return
	}
	resp := statsResponse{
		Mechanism:   s.mech.Name(),
		Params:      s.mech.Params(),
		Tree:        s.state.Tree.ComputeStats(),
		TotalReward: t.total(),
		Budget:      s.mech.Params().Phi * s.state.Tree.Total(),
		LastSeq:     s.state.LastSeq,
		Quarantined: len(s.state.Quarantined),
	}
	s.mu.RUnlock()
	if resp.Budget > 0 {
		resp.BudgetUtilization = resp.TotalReward / resp.Budget
	}
	if s.metrics != nil {
		resp.Metrics = s.metrics.Snapshot()
	}
	writeJSON(w, http.StatusOK, resp)
}

// writeJSON answers with v as JSON. v is encoded before the header
// goes out, so a value JSON cannot hold — a +Inf reward after an
// overflowing contribution — answers 500 with a JSON error instead of
// a 200 with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(v); err != nil {
		status = http.StatusInternalServerError
		body.Reset()
		// An errorResponse always encodes.
		_ = json.NewEncoder(&body).Encode(errorResponse{"encode response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// A failed write means the client is gone; there is no one to tell.
	_, _ = w.Write(body.Bytes())
}
