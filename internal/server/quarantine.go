package server

import (
	"sort"

	"incentivetree/internal/core"
	"incentivetree/internal/journal"
	"incentivetree/internal/tree"
)

// Quarantine error sentinels, matched with errors.Is by the HTTP layer.
// journal.State reports them; they are re-exported here for callers of
// the server API.
var (
	// ErrUnknownParticipant reports a quarantine op naming nobody.
	ErrUnknownParticipant = journal.ErrUnknownParticipant
	// ErrAlreadyQuarantined reports a redundant quarantine.
	ErrAlreadyQuarantined = journal.ErrAlreadyQuarantined
	// ErrNotQuarantined reports an unquarantine of an unflagged name.
	ErrNotQuarantined = journal.ErrNotQuarantined
)

// Quarantine withholds the subtree rooted at name from payout: rewards
// for the node and all its descendants are served as zero in
// /v1/rewards, /v1/leaderboard, and participant views, while raw
// contributions — and hence every other participant's reward — stay
// exactly as recorded. The flag is journaled (crash-recoverable,
// replicated) and bumps the commit version so the reward table
// rebuilds on the next read.
func (s *Server) Quarantine(name string) error { return s.setQuarantine(name, true) }

// Unquarantine clears a quarantine flag set by Quarantine.
func (s *Server) Unquarantine(name string) error { return s.setQuarantine(name, false) }

func (s *Server) setQuarantine(name string, on bool) error {
	kind := journal.KindQuarantine
	if !on {
		kind = journal.KindUnquarantine
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.commitLocked(journal.Event{Kind: kind, Name: name}); err != nil {
		return err
	}
	// The reward table is keyed by the commit version, so this bump
	// guarantees no pre-quarantine table is ever served again.
	s.version++
	return nil
}

// QuarantinedNames returns the currently flagged names, sorted.
func (s *Server) QuarantinedNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.quarantinedNamesLocked()
}

func (s *Server) quarantinedNamesLocked() []string {
	if len(s.state.Quarantined) == 0 {
		return nil
	}
	names := make([]string, 0, len(s.state.Quarantined))
	for n := range s.state.Quarantined {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// QuarantineCount reports how many quarantine flags are set.
func (s *Server) QuarantineCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.state.Quarantined)
}

// IsQuarantined reports whether name itself carries a quarantine flag
// (not whether an ancestor masks it).
func (s *Server) IsQuarantined(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.state.Quarantined[name]
}

// maskLocked zeroes, in place, the reward of every node whose payout is
// withheld — a node carrying a quarantine flag and its whole subtree —
// and returns the mask of those nodes by id. It returns nil when
// nothing is quarantined, so the common case costs one map-length
// check.
func (s *Server) maskLocked(rewards core.Rewards) []bool {
	if len(s.state.Quarantined) == 0 {
		return nil
	}
	mask := make([]bool, s.state.Tree.Len())
	for name := range s.state.Quarantined {
		id, ok := s.state.ByName[name]
		if !ok {
			continue
		}
		s.state.Tree.Walk(id, func(v tree.NodeID) bool {
			mask[v] = true
			if int(v) < len(rewards) {
				rewards[v] = 0
			}
			return true
		})
	}
	return mask
}

// SetCommitObserver installs fn to be called after every committed
// write batch, with the new commit version and the participant names
// the batch touched, and after every state restore, with nil ("anything
// may have changed"). Replicated batches (ApplyReplicated) do not call
// it: followers never attach an auditor, its one user. fn runs while
// the write lock is held: it must be fast and must not call back into
// the server. The background auditor uses this to maintain its dirty
// set.
func (s *Server) SetCommitObserver(fn func(version uint64, touched []string)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.commitHook = fn
}

// Mechanism returns the deployment's reward mechanism (immutable).
func (s *Server) Mechanism() core.Mechanism { return s.mech }

// AuditSnapshot clones the current state for the background auditor:
// an owned copy of the tree, the sorted quarantine list, and the commit
// version they correspond to.
func (s *Server) AuditSnapshot() (*tree.Tree, []string, uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.state.Tree.Clone(), s.quarantinedNamesLocked(), s.version
}
