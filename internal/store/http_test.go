package store

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestListCampaignsInfiniteTotalIs500: two contributions of 1.7e308
// overflow C(T) to +Inf, which JSON cannot hold. The campaign list
// answers 500 with a JSON error, not a 200 with an empty body.
func TestListCampaignsInfiniteTotalIs500(t *testing.T) {
	st := openStore(t, testConfig(t.TempDir()))
	c, _ := st.Get(DefaultID)
	for _, name := range []string{"ada", "bo"} {
		if err := c.Server().Join(name, ""); err != nil {
			t.Fatal(err)
		}
		if err := c.Server().Contribute(name, 1.7e308); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	st.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/campaigns", nil))
	var body errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
		t.Fatalf("GET /v1/campaigns = %d %q: want a JSON error (%v)", rec.Code, rec.Body.String(), err)
	}
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("GET /v1/campaigns = %d, want 500", rec.Code)
	}
}
