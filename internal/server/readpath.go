package server

import (
	"container/heap"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"incentivetree/internal/core"
	"incentivetree/internal/tree"
)

// rewardTable is the served reward state of one commit version, which
// the batch producing the version, every read at it, the gauges and
// settlement all share. The commit version — bumped per applied batch,
// quarantine flag, restore and replicated batch — is its only
// invalidation. A table never changes once built, except for R(T)
// and its name-sorted view, both computed on first use.
type rewardTable struct {
	version uint64
	// rewards is the table as served: quarantined subtrees zeroed. With
	// an engine and nothing quarantined it is the engine's own slice,
	// which the next commit changes in place — after the version has
	// moved past this table.
	rewards core.Rewards
	// mask flags, per node id, a withheld payout; nil when nothing is
	// quarantined.
	mask []bool

	totalOnce sync.Once
	totalR    float64 // see total

	byNameOnce sync.Once
	byName     []Participant // GET /v1/rewards
}

// total returns R(T) before masking, summed in id order on first use:
// budget accounting is about what the mechanism allocates, not what
// payout withholds. A masked table computes it before masking.
func (t *rewardTable) total() float64 {
	t.totalOnce.Do(func() { t.totalR = t.rewards.Total() })
	return t.totalR
}

// servedTotal returns the sum of the served rewards: R(T), less any
// withheld payouts.
func (t *rewardTable) servedTotal() float64 {
	if t.mask == nil {
		return t.total()
	}
	return t.rewards.Total()
}

// tableSlot holds the newest reward table. Readers sharing the server's
// read lock all see one version, so get collapses their misses into a
// single build; a failed build is not stored, so the next get retries.
type tableSlot struct {
	mu  sync.Mutex // serializes builds
	cur atomic.Pointer[rewardTable]
}

// get returns the stored table when it is at version and otherwise the
// one build returns, reporting whether this call built.
func (c *tableSlot) get(version uint64, build func() (*rewardTable, error)) (*rewardTable, bool, error) {
	if t := c.cur.Load(); t != nil && t.version == version {
		return t, false, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if t := c.cur.Load(); t != nil && t.version == version {
		return t, false, nil
	}
	t, err := build()
	if err != nil {
		return nil, true, err
	}
	c.cur.Store(t)
	return t, true, nil
}

// tableLocked returns the reward table of the current commit version,
// building it at most once per version. Callers hold s.mu, read or
// write, so the version cannot move under them.
func (s *Server) tableLocked() (*rewardTable, bool, error) {
	return s.table.get(s.version, s.buildTableLocked)
}

// readTableLocked is tableLocked for an API read, which the cache
// counters count: a hit when the table existed, a miss when this read
// built (or failed to build) it.
func (s *Server) readTableLocked() (*rewardTable, error) {
	t, built, err := s.tableLocked()
	c := s.tableHits
	if built {
		c = s.tableMisses
	}
	if c != nil {
		c.Inc()
	}
	return t, err
}

// buildTableLocked builds the current version's table. The engine's
// reward slice is served in place, costing nothing, unless a mask must
// be applied; then it is copied first. Without an engine the table is
// a full evaluation, a fresh slice masked in place.
func (s *Server) buildTableLocked() (*rewardTable, error) {
	t := &rewardTable{version: s.version}
	switch {
	case s.engine == nil:
		rewards, err := s.mech.Rewards(s.state.Tree)
		if err != nil {
			return nil, err
		}
		t.rewards = rewards
	case len(s.state.Quarantined) == 0:
		// Readers see a table only under s.mu at its own version, and
		// every write bumps the version before it releases the lock, so
		// no reader sees the slice change.
		t.rewards = s.engine.Rewards()
		return t, nil
	default:
		t.rewards = slices.Clone(s.engine.Rewards())
	}
	if len(s.state.Quarantined) > 0 {
		t.total() // before masking
		t.mask = s.maskLocked(t.rewards)
	}
	return t, nil
}

// participant builds one participant's wire view. tr is the tree at the
// table's version: callers hold the server's lock.
func (t *rewardTable) participant(tr *tree.Tree, id tree.NodeID) Participant {
	sponsor := ""
	if p := tr.Parent(id); p != tree.Root {
		sponsor = tr.Label(p)
	}
	return Participant{
		Name:         tr.Label(id),
		Sponsor:      sponsor,
		Contribution: tr.Contribution(id),
		Reward:       t.rewards.Of(id),
		Profit:       core.Profit(tr, t.rewards, id),
		Recruits:     tr.NumChildren(id),
		Quarantined:  t.mask != nil && int(id) < len(t.mask) && t.mask[id],
	}
}

// participants returns every participant sorted by name, built on the
// first call. tr is the tree at the table's version: callers hold the
// server's lock.
func (t *rewardTable) participants(tr *tree.Tree) []Participant {
	t.byNameOnce.Do(func() {
		byName := make([]Participant, 0, tr.NumParticipants())
		for _, u := range tr.Nodes() {
			byName = append(byName, t.participant(tr, u))
		}
		// Sorted by name so the table is deterministic even across snapshot
		// restores, which renumber node ids in DFS preorder.
		sort.Slice(byName, func(i, j int) bool { return byName[i].Name < byName[j].Name })
		t.byName = byName
	})
	return t.byName
}

// leaders returns the k participants ranked first by reward (desc, name
// asc on ties), selected through a k-bounded min-heap: O(n log k) per
// read, and nothing the size of the population outlives the read. tr is
// the tree at the table's version: callers hold the server's lock.
func (t *rewardTable) leaders(tr *tree.Tree, k int) []Participant {
	h := &rankHeap{t: t, tr: tr, ids: make([]tree.NodeID, 0, min(k, tr.NumParticipants()))}
	for id := 1; id < tr.Len(); id++ {
		u := tree.NodeID(id)
		switch {
		case len(h.ids) < k:
			heap.Push(h, u)
		case h.above(u, h.ids[0]):
			h.ids[0] = u
			heap.Fix(h, 0)
		}
	}
	sort.Slice(h.ids, func(i, j int) bool { return h.above(h.ids[i], h.ids[j]) })
	out := make([]Participant, len(h.ids))
	for i, u := range h.ids {
		out[i] = t.participant(tr, u)
	}
	return out
}

// rankHeap is a min-heap of node ids by leaderboard rank: its root is
// the lowest-ranked participant selected so far.
type rankHeap struct {
	t   *rewardTable
	tr  *tree.Tree
	ids []tree.NodeID
}

// above reports whether u ranks before v: more reward, or the same
// reward and an earlier name.
func (h *rankHeap) above(u, v tree.NodeID) bool {
	ru, rv := h.t.rewards.Of(u), h.t.rewards.Of(v)
	if ru != rv {
		return ru > rv
	}
	return h.tr.Label(u) < h.tr.Label(v)
}

func (h *rankHeap) Len() int           { return len(h.ids) }
func (h *rankHeap) Less(i, j int) bool { return h.above(h.ids[j], h.ids[i]) }
func (h *rankHeap) Swap(i, j int)      { h.ids[i], h.ids[j] = h.ids[j], h.ids[i] }
func (h *rankHeap) Push(x any)         { h.ids = append(h.ids, x.(tree.NodeID)) }
func (h *rankHeap) Pop() any {
	u := h.ids[len(h.ids)-1]
	h.ids = h.ids[:len(h.ids)-1]
	return u
}

func (s *Server) handleRewards(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	t, err := s.readTableLocked()
	if err != nil {
		s.mu.RUnlock()
		writeJSON(w, http.StatusInternalServerError, errorResponse{err.Error()})
		return
	}
	// TotalReward sums the served table, so it reflects withheld payouts
	// while Total (raw contribution) stays as recorded.
	resp := rewardsResponse{
		Mechanism:   s.mech.Name(),
		Total:       s.state.Tree.Total(),
		TotalReward: t.servedTotal(),
		Budget:      s.mech.Params().Phi * s.state.Tree.Total(),
	}
	resp.Participants = t.participants(s.state.Tree)
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, resp)
}

// leaderboardResponse is the wire format of GET /v1/leaderboard.
type leaderboardResponse struct {
	Mechanism    string        `json:"mechanism"`
	K            int           `json:"k"`
	Participants int           `json:"participants"`
	Leaders      []Participant `json:"leaders"`
}

// handleLeaderboard serves the top-K participants by reward from the
// version's table. ?k=N defaults to 10 and is clamped to the
// participant count; a malformed or non-positive k is a 400.
func (s *Server) handleLeaderboard(w http.ResponseWriter, r *http.Request) {
	k := 10
	if q := r.URL.Query().Get("k"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 {
			writeJSON(w, http.StatusBadRequest, errorResponse{"k must be a positive integer, got " + strconv.Quote(q)})
			return
		}
		k = n
	}
	s.mu.RLock()
	t, err := s.readTableLocked()
	if err != nil {
		s.mu.RUnlock()
		writeJSON(w, http.StatusInternalServerError, errorResponse{err.Error()})
		return
	}
	leaders := t.leaders(s.state.Tree, k)
	n := s.state.Tree.NumParticipants()
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, leaderboardResponse{
		Mechanism:    s.mech.Name(),
		K:            len(leaders),
		Participants: n,
		Leaders:      leaders,
	})
}
