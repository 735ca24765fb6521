package server

import (
	"incentivetree/internal/obs"
)

// WithMetrics attaches an observability registry: Handler() wraps the
// API in obs.Middleware (per-route request counts, status classes,
// latency histograms) and the deployment's domain gauges are registered
// for scraping:
//
//	itree_participants         current number of participants
//	itree_tree_depth_max       deepest participant
//	itree_contribution_total   C(T), total contribution
//	itree_reward_total         R(T) under the configured mechanism
//	itree_budget_utilization   R(T) / (Phi * C(T)), the spent fraction
//	                           of the paper's budget constraint
//	itree_journal_last_seq     last persisted journal sequence number
//
// Gauges are computed at scrape time under the server's read lock; the
// reward gauges read the current version's reward table and its R(T),
// so a scrape costs at most one O(n) table build (none under the
// TDRM, Geometric or CDRM engine) and one O(n) sum per commit version, and neither when a
// read already paid them. The table's reads are
// counted on itree_rewards_cache_hits_total and
// itree_rewards_cache_misses_total (scrapes are not). labels
// (key/value pairs, e.g. "campaign", id) are stamped on every domain
// gauge and ingest metric, so many deployments — the store's campaigns
// — can share one registry without clobbering each other's series.
// Without labels, servers sharing a registry overwrite each other's
// gauges: the last one registered wins.
func WithMetrics(reg *obs.Registry, labels ...string) Option {
	return func(s *Server) {
		s.metrics = reg
		s.labels = labels
		s.registerGauges(reg, labels...)
	}
}

// domainGauges lists every gauge family registerGauges creates, so
// UnregisterMetrics can remove a deployment's series when it is torn
// down.
var domainGauges = []string{
	"itree_participants",
	"itree_tree_depth_max",
	"itree_contribution_total",
	"itree_reward_total",
	"itree_budget_utilization",
	"itree_journal_last_seq",
	"itree_rewards_cache_hits_total",
	"itree_rewards_cache_misses_total",
	"itree_settle_epochs",
	"itree_settle_carry",
	"itree_settle_amount",
	"itree_claims_amount",
	"itree_claims_unclaimed",
	"itree_settle_commits_total",
	"itree_settle_capped_total",
	"itree_claims_commits_total",
	"itree_claims_conflicts_total",
}

// UnregisterMetrics removes the domain-gauge series registered under
// the given label set — the inverse of WithMetrics, used when a
// campaign is deleted.
func UnregisterMetrics(reg *obs.Registry, labels ...string) {
	for _, name := range domainGauges {
		reg.Unregister(name, labels...)
	}
}

func (s *Server) registerGauges(reg *obs.Registry, labels ...string) {
	reg.GaugeFunc("itree_participants",
		"Number of participants in the referral tree.", func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return float64(s.state.Tree.NumParticipants())
		}, labels...)
	reg.GaugeFunc("itree_tree_depth_max",
		"Depth of the deepest participant (root children are depth 1).", func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return float64(s.state.Tree.ComputeStats().MaxDepth)
		}, labels...)
	reg.GaugeFunc("itree_contribution_total",
		"Total contribution C(T).", func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return s.state.Tree.Total()
		}, labels...)
	// The reward gauges read 0 when the evaluation fails: gauges have no
	// error channel.
	reg.GaugeFunc("itree_reward_total",
		"Total reward R(T) under the configured mechanism.", func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			t, _, err := s.tableLocked()
			if err != nil {
				return 0
			}
			return t.total()
		}, labels...)
	reg.GaugeFunc("itree_budget_utilization",
		"Budget utilization R(T)/(Phi*C(T)); the paper's budget constraint holds iff <= 1.", func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			t, _, err := s.tableLocked()
			budget := s.mech.Params().Phi * s.state.Tree.Total()
			if err != nil || !(budget > 0) {
				return 0
			}
			return t.total() / budget
		}, labels...)
	reg.GaugeFunc("itree_journal_last_seq",
		"Sequence number of the last journal event applied.", func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return float64(s.state.LastSeq)
		}, labels...)
	reg.GaugeFunc("itree_settle_epochs",
		"Number of settled payout epochs.", func() float64 {
			epochs, _, _, _ := s.LedgerView()
			return float64(epochs)
		}, labels...)
	reg.GaugeFunc("itree_settle_carry",
		"Unallocated budget carried into the next epoch.", func() float64 {
			_, _, _, carry := s.LedgerView()
			return carry
		}, labels...)
	reg.GaugeFunc("itree_settle_amount",
		"Cumulative reward settled across all epochs.", func() float64 {
			_, settled, _, _ := s.LedgerView()
			return settled
		}, labels...)
	reg.GaugeFunc("itree_claims_amount",
		"Cumulative reward claimed across all epochs.", func() float64 {
			_, _, claimed, _ := s.LedgerView()
			return claimed
		}, labels...)
	reg.GaugeFunc("itree_claims_unclaimed",
		"Settled but not yet claimed reward.", func() float64 {
			_, settled, claimed, _ := s.LedgerView()
			return settled - claimed
		}, labels...)
	s.tableHits = reg.Counter("itree_rewards_cache_hits_total",
		"Reward reads served by the commit version's existing reward table.", labels...)
	s.tableMisses = reg.Counter("itree_rewards_cache_misses_total",
		"Reward reads that built the commit version's reward table (a full mechanism evaluation each, except for TDRM, Geometric and CDRM, whose engine's table costs nothing to build with nothing quarantined).", labels...)
	s.settleObs = newSettleCounters(reg, labels...)
}
