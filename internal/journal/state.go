package journal

import (
	"errors"
	"fmt"

	"incentivetree/internal/tree"
)

// Precondition sentinels, matched with errors.Is by the HTTP layer to
// pick a status code. The messages around them are the ones the API
// serves.
var (
	// ErrUnknownParticipant reports an event naming nobody.
	ErrUnknownParticipant = errors.New("unknown participant")
	// ErrAlreadyQuarantined reports a redundant quarantine.
	ErrAlreadyQuarantined = errors.New("already quarantined")
	// ErrNotQuarantined reports an unquarantine of an unflagged name.
	ErrNotQuarantined = errors.New("not quarantined")
	// ErrEpochNotSettled reports a claim against an epoch that has not
	// been settled.
	ErrEpochNotSettled = errors.New("epoch not settled")
	// ErrNoShare reports a claim by a participant with no share in the
	// epoch.
	ErrNoShare = errors.New("no share in epoch")
	// ErrAlreadyClaimed reports a duplicate claim — the idempotency
	// conflict.
	ErrAlreadyClaimed = errors.New("already claimed")
)

func unknownParticipant(name string) error {
	return fmt.Errorf("%w %q", ErrUnknownParticipant, name)
}

// State is the campaign state a journal describes: the referral tree,
// the payout-quarantine flags and the settle/claim ledger, as of
// LastSeq. It is the one place campaign state changes. Live writes,
// replicated batches and crash recovery all go through Apply, so
// memory holds exactly what replaying the journal rebuilds.
//
// State is not safe for concurrent use; the server guards it with its
// state lock.
type State struct {
	// Tree is the referral tree (labels carry names).
	Tree *tree.Tree
	// ByName maps participant names to node ids.
	ByName map[string]tree.NodeID
	// LastSeq is the sequence number of the last applied event (0 for an
	// empty journal).
	LastSeq uint64
	// Quarantined holds the names whose subtrees are currently withheld
	// from payout.
	Quarantined map[string]bool
	// Ledger holds the settled epochs and claims.
	Ledger *Ledger
}

// NewState returns the empty campaign state.
func NewState() *State {
	return &State{Tree: tree.New(), ByName: make(map[string]tree.NodeID), Quarantined: make(map[string]bool), Ledger: NewLedger()}
}

// StateFromTree rebuilds the state of an existing labelled tree (e.g. a
// decoded snapshot), assigning it the given last sequence number.
// Labels must be unique.
func StateFromTree(t *tree.Tree, lastSeq uint64) (*State, error) {
	st := &State{Tree: t, ByName: make(map[string]tree.NodeID, t.NumParticipants()), LastSeq: lastSeq, Quarantined: make(map[string]bool), Ledger: NewLedger()}
	for _, u := range t.Nodes() {
		name := t.Label(u)
		if _, dup := st.ByName[name]; dup {
			return nil, fmt.Errorf("journal: duplicate participant name %q in snapshot", name)
		}
		st.ByName[name] = u
	}
	return st, nil
}

// lookup resolves a participant name.
func (st *State) lookup(name string) (tree.NodeID, error) {
	id, ok := st.ByName[name]
	if !ok {
		return tree.None, unknownParticipant(name)
	}
	return id, nil
}

// Check reports whether e may be applied to the current state, and
// changes nothing. It holds every rule of every event kind: the
// record's own shape (Validate) and its preconditions on the state.
// Sequence order is the caller's concern (see Replay). The tree's own
// limits — a full arena, a contribution sum that overflows — are
// enforced by Apply, which then leaves the state unchanged.
func (st *State) Check(e Event) error {
	_, err := st.check(&e)
	return err
}

// check is Check; it also returns the node e acts on, so apply need
// not resolve it again: the sponsor of a join (the root when it has
// none), the named participant of a contribute.
func (st *State) check(e *Event) (tree.NodeID, error) {
	if e.Kind == KindClaim {
		// A claim's state rules subsume its shape rules and come first,
		// so a caller learns the name or epoch is wrong, not that the
		// record built from it is malformed.
		if _, err := st.lookup(e.Name); err != nil {
			return tree.None, err
		}
		if err := st.Ledger.checkClaim(*e); err != nil {
			return tree.None, err
		}
		return tree.None, e.Validate()
	}
	if err := e.Validate(); err != nil {
		return tree.None, err
	}
	switch e.Kind {
	case KindJoin:
		if _, dup := st.ByName[e.Name]; dup {
			return tree.None, fmt.Errorf("participant %q already exists", e.Name)
		}
		if e.Sponsor == "" {
			return tree.Root, nil
		}
		if sponsor, ok := st.ByName[e.Sponsor]; ok {
			return sponsor, nil
		}
		return tree.None, fmt.Errorf("unknown sponsor %q", e.Sponsor)
	case KindContribute:
		return st.lookup(e.Name)
	case KindQuarantine:
		if _, err := st.lookup(e.Name); err != nil {
			return tree.None, err
		}
		if st.Quarantined[e.Name] {
			return tree.None, fmt.Errorf("participant %q is %w", e.Name, ErrAlreadyQuarantined)
		}
	case KindUnquarantine:
		if _, err := st.lookup(e.Name); err != nil {
			return tree.None, err
		}
		if !st.Quarantined[e.Name] {
			return tree.None, fmt.Errorf("participant %q is %w", e.Name, ErrNotQuarantined)
		}
	case KindSettle:
		for _, r := range e.Rewards {
			if _, ok := st.ByName[r.Name]; !ok {
				return tree.None, fmt.Errorf("journal: settle share for unknown %q", r.Name)
			}
		}
		return tree.None, st.Ledger.checkSettle(*e)
	}
	return tree.None, nil
}

// Apply checks e and applies it, advancing LastSeq to e.Seq. On error
// the state is unchanged.
func (st *State) Apply(e Event) error { return st.apply(&e) }

func (st *State) apply(e *Event) error {
	id, err := st.check(e)
	if err != nil {
		return err
	}
	switch e.Kind {
	case KindJoin:
		child, err := st.Tree.Add(id, 0)
		if err != nil {
			return err
		}
		// child was just added, so labelling it cannot fail.
		_ = st.Tree.SetLabel(child, e.Name)
		st.ByName[e.Name] = child
	case KindContribute:
		if err := st.Tree.AddContribution(id, e.Amount); err != nil {
			return err
		}
	case KindQuarantine:
		st.Quarantined[e.Name] = true
	case KindUnquarantine:
		delete(st.Quarantined, e.Name)
	case KindSettle:
		st.Ledger.applySettle(*e)
	case KindClaim:
		st.Ledger.applyClaim(*e)
	}
	st.LastSeq = e.Seq
	return nil
}

// Replay applies events in order on top of an optional base state,
// which it advances in place. Pass nil to start from the empty state.
// Each event must carry a sequence number above the last applied one.
func Replay(base *State, events []Event) (*State, error) {
	st := base
	if st == nil {
		st = NewState()
	}
	for i := range events {
		e := &events[i]
		if e.Seq <= st.LastSeq {
			return nil, fmt.Errorf("journal: event %d replayed out of order (last %d)", e.Seq, st.LastSeq)
		}
		if err := st.apply(e); err != nil {
			return nil, fmt.Errorf("journal: seq %d: %w", e.Seq, err)
		}
		metricReplays.Inc()
	}
	return st, nil
}
