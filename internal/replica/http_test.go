package replica_test

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"incentivetree/internal/journal"
	"incentivetree/internal/replica"
	"incentivetree/internal/server"
	"incentivetree/internal/tree"
)

// TestSnapshotInfiniteValueIs500: a snapshot holding a value JSON
// cannot encode — here a settled epoch's C(T) of +Inf — answers 500
// with a JSON error, not a 200 with an empty body.
func TestSnapshotInfiniteValueIs500(t *testing.T) {
	c := replica.PrimaryCampaign{
		Meta: replica.Meta{ID: "default", Mechanism: "tdrm"},
		Snapshot: func() server.Snapshot {
			return server.Snapshot{Tree: tree.New(), Epochs: []journal.SettledEpoch{{Epoch: 1, CTotal: math.Inf(1)}}}
		},
		LastSeq: func() uint64 { return 0 },
	}
	rec := httptest.NewRecorder()
	replica.NewPublisher(nil).ServeSnapshot(rec, httptest.NewRequest(http.MethodGet, "/v1/campaigns/default/replica/snapshot", nil), c)
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
		t.Fatalf("snapshot = %d %q: want a JSON error (%v)", rec.Code, rec.Body.String(), err)
	}
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("snapshot = %d, want 500", rec.Code)
	}
}
