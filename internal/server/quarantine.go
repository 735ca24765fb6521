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
// replicated) and bumps the commit version so cached reward tables
// rebuild immediately.
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
	// The versioned read cache keys on the commit version, so this bump
	// guarantees no pre-quarantine reward table is ever served again.
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

// quarantineMaskLocked computes, per node id, whether the node's payout
// is withheld — true when the node or any ancestor carries a flag. It
// returns nil when nothing is quarantined, so the common case costs one
// map-length check.
func (s *Server) quarantineMaskLocked() []bool {
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
			return true
		})
	}
	return mask
}

// maskRewards returns a copy of rewards with masked entries zeroed.
// The input is never mutated (it may be the incremental engine's
// internal buffer).
func maskRewards(rewards core.Rewards, mask []bool) core.Rewards {
	out := make(core.Rewards, len(rewards))
	copy(out, rewards)
	for id, hit := range mask {
		if hit && id < len(out) {
			out[id] = 0
		}
	}
	return out
}

// servedRewardsLocked returns the reward table as the API serves it:
// the mechanism's table with quarantined subtrees zeroed, plus the
// mask used (nil when no quarantine is active).
func (s *Server) servedRewardsLocked() (core.Rewards, []bool, error) {
	rewards, err := s.rewardsLocked()
	if err != nil {
		return nil, nil, err
	}
	mask := s.quarantineMaskLocked()
	if mask != nil {
		rewards = maskRewards(rewards, mask)
	}
	return rewards, mask, nil
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
