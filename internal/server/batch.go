package server

import (
	"context"
	"fmt"
	"strings"

	"incentivetree/internal/ingest"
	"incentivetree/internal/journal"
	"incentivetree/internal/tree"
)

// WithBatching routes HTTP writes through a group-commit ingest
// pipeline (see internal/ingest): requests enqueue onto a bounded
// queue, a committer goroutine drains them into batches, and each
// batch applies under one lock acquisition with one journal write
// (one fsync under journal.SyncAlways) and one reward recompute.
// A full queue sheds writes with 429 + Retry-After. When the options'
// Registry is unset, the pipeline inherits the server's metrics
// registry and labels. Callers owning the server's lifecycle must
// call CloseIngest before closing the journal beneath it.
func WithBatching(o ingest.Options) Option {
	return func(s *Server) { opt := o; s.batching = &opt }
}

// CloseIngest stops the ingest committer, draining queued writes into
// a final commit. Idempotent; a no-op for servers without batching.
func (s *Server) CloseIngest() {
	if s.committer != nil {
		s.committer.Close()
	}
}

// IngestQueueLen reports the ingest queue's current depth (0 without
// batching) — used by tests and operational probes.
func (s *Server) IngestQueueLen() int {
	if s.committer == nil {
		return 0
	}
	return s.committer.QueueLen()
}

// Join registers a participant programmatically (used by the daemon's
// seeding flag and by tests). It applies directly — a batch of one —
// without passing through the ingest queue.
func (s *Server) Join(name, sponsor string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyLocked([]ingest.Op{{Kind: ingest.OpJoin, Name: name, Sponsor: sponsor}})[0]
}

// Contribute records work done by an existing participant, applied
// directly as a batch of one.
func (s *Server) Contribute(name string, amount float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyLocked([]ingest.Op{{Kind: ingest.OpContribute, Name: name, Amount: amount}})[0]
}

// SubmitJoin routes a join through the ingest pipeline when one is
// attached — blocking until its batch commits — and applies it as a
// direct batch of one otherwise. The returned view is built from the
// batch's single reward recompute.
func (s *Server) SubmitJoin(ctx context.Context, name, sponsor string) (Participant, error) {
	return s.submit(ctx, ingest.Op{Kind: ingest.OpJoin, Name: name, Sponsor: sponsor})
}

// SubmitContribute is SubmitJoin for contributions.
func (s *Server) SubmitContribute(ctx context.Context, name string, amount float64) (Participant, error) {
	return s.submit(ctx, ingest.Op{Kind: ingest.OpContribute, Name: name, Amount: amount})
}

func (s *Server) submit(ctx context.Context, op ingest.Op) (Participant, error) {
	if s.committer == nil {
		res := s.ApplyBatch([]ingest.Op{op})[0]
		if res.Err != nil {
			return Participant{}, res.Err
		}
		return res.Value.(Participant), nil
	}
	v, err := s.committer.Submit(ctx, op)
	if err != nil {
		return Participant{}, err
	}
	return v.(Participant), nil
}

// ApplyBatch implements ingest.Applier: the whole batch applies under
// one write-lock acquisition, journals with a single write, and pays
// one reward recompute to build every success's post-commit view.
// Per-op validation errors are reported individually and never fail
// the rest of the batch.
func (s *Server) ApplyBatch(ops []ingest.Op) []ingest.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	errs := s.applyLocked(ops)
	results := make([]ingest.Result, len(ops))
	committed := false
	for i, err := range errs {
		if err != nil {
			results[i].Err = err
		} else {
			committed = true
		}
	}
	if !committed {
		return results
	}
	// The version's table, built here under the write lock, also serves
	// the reads that follow until the next commit.
	t, _, rerr := s.tableLocked()
	for i, op := range ops {
		if errs[i] != nil {
			continue
		}
		if rerr != nil {
			results[i].Err = rerr
			continue
		}
		e, _ := opEvent(op) // op applied, so it converted
		results[i].Value = t.participant(s.state.Tree, s.state.ByName[e.Name])
	}
	return results
}

// applyLocked applies ops in order under the held write lock, then
// journals every success as one batch append. errs[i] is op i's
// individual outcome. If the journal rejects the batch, every
// in-memory change is rolled back so memory never diverges from what
// a restart would replay, and the append error is reported on each op
// that had applied.
func (s *Server) applyLocked(ops []ingest.Op) []error {
	errs := make([]error, len(ops))
	events := make([]journal.Event, 0, len(ops))
	eventOps := make([]int, 0, len(ops))
	undo := batchUndo{mark: s.state.Tree.Mark(), lastSeq: s.state.LastSeq}
	for i, op := range ops {
		e, err := opEvent(op)
		var prior float64
		if err == nil {
			e.Seq = s.state.LastSeq + 1
			// A join's name is not indexed yet, so it reads the root's 0.
			prior = s.state.Tree.Contribution(s.state.ByName[e.Name])
			err = s.state.Apply(e)
		}
		if err != nil {
			errs[i] = err
			continue
		}
		events = append(events, e)
		eventOps = append(eventOps, i)
		undo.prior = append(undo.prior, prior)
	}
	if len(events) == 0 {
		return errs
	}
	if s.journal != nil {
		persisted, err := s.journal.AppendBatch(events)
		if err != nil {
			s.rollbackLocked(undo, events)
			err = fmt.Errorf("server: journal append: %w", err)
			for _, oi := range eventOps {
				errs[oi] = err
			}
			return errs
		}
		s.state.LastSeq = persisted[len(persisted)-1].Seq
	}
	s.refoldLocked(s.touched(events))
	s.version++
	if s.commitHook != nil {
		touched := make([]string, len(events))
		for i, e := range events {
			touched[i] = e.Name
		}
		s.commitHook(s.version, touched)
	}
	return errs
}

// opEvent is the journal event an ingest op asks for. Join names are
// whitespace-trimmed; everything else is checked by journal.State.
func opEvent(op ingest.Op) (journal.Event, error) {
	switch op.Kind {
	case ingest.OpJoin:
		return journal.Event{Kind: journal.KindJoin, Name: strings.TrimSpace(op.Name), Sponsor: op.Sponsor}, nil
	case ingest.OpContribute:
		return journal.Event{Kind: journal.KindContribute, Name: op.Name, Amount: op.Amount}, nil
	}
	return journal.Event{}, fmt.Errorf("server: unknown op kind %d", op.Kind)
}

// touched returns the tree nodes events joined or contributed to, the
// nodes whose root paths the engine must refold.
func (s *Server) touched(events []journal.Event) []tree.NodeID {
	ids := make([]tree.NodeID, 0, len(events))
	for _, e := range events {
		if e.Kind == journal.KindJoin || e.Kind == journal.KindContribute {
			ids = append(ids, s.state.ByName[e.Name])
		}
	}
	return ids
}

// commitLocked commits one event journal-first: Check, append, then
// apply. Nothing changes until the record is durable, so a failed
// append leaves memory and log in agreement. It returns the persisted
// event. It serves the events that leave the tree as it is
// (quarantine flags, settles, claims), so the engine has nothing to
// refold.
func (s *Server) commitLocked(e journal.Event) (journal.Event, error) {
	if err := s.state.Check(e); err != nil {
		return journal.Event{}, err
	}
	if s.journal != nil {
		pe, err := s.journal.Append(e)
		if err != nil {
			return journal.Event{}, fmt.Errorf("server: journal append: %w", err)
		}
		e = pe
	} else {
		e.Seq = s.state.LastSeq + 1
	}
	if err := s.state.Apply(e); err != nil {
		// Check passed under the same lock, so a refusal here is a bug,
		// surfaced loudly rather than leaving the durable record
		// unapplied.
		return journal.Event{}, fmt.Errorf("server: apply: %w", err)
	}
	return e, nil
}

// batchUndo records what a batch changed, so a failed journal append
// can restore the exact prior state.
type batchUndo struct {
	mark    tree.Mark
	lastSeq uint64
	// prior holds, per applied event, its participant's contribution
	// before the event (0 for a join), so a restore has no
	// floating-point drift.
	prior []float64
}

// rollbackLocked undoes the applied-but-unjournaled events of a batch,
// newest first: restore contribution values (so repeated contributions
// to one participant land back on the first-recorded value), drop the
// name index entries of batch joins, and truncate their tree nodes.
// The engine is refolded only after a successful append, so it never
// saw these events.
func (s *Server) rollbackLocked(undo batchUndo, events []journal.Event) {
	for i := len(events) - 1; i >= 0; i-- {
		switch e := events[i]; e.Kind {
		case journal.KindContribute:
			// Restoring a recorded prior value of an existing node cannot fail.
			_ = s.state.Tree.SetContribution(s.state.ByName[e.Name], undo.prior[i])
		case journal.KindJoin:
			delete(s.state.ByName, e.Name)
		}
	}
	// The tree always holds at least the imaginary root, so the mark is
	// valid by construction.
	_ = s.state.Tree.ResetTo(undo.mark)
	s.state.LastSeq = undo.lastSeq
}
