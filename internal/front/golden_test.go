package front

import (
	"encoding/json"
	"testing"
)

// TestStatuszFieldsInUse pins the front's /statusz fields that CI's
// smoke steps grep and bench/ decodes.
func TestStatuszFieldsInUse(t *testing.T) {
	f, err := New(Config{Shards: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(f.StatusSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"hedges", "failovers", "coalesced", "program_hits"} {
		if _, ok := doc[field]; !ok {
			t.Errorf("/statusz lacks %s:\n%s", field, raw)
		}
	}
}
