package load

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

// TestStreamGolden pins the SHA-256 of every profile's NDJSON request
// stream at seed 1. TestScheduleDeterministic only compares two runs
// of one build; this catches a build whose seeded generator changed.
func TestStreamGolden(t *testing.T) {
	c := testCorpus(t)
	var got []string
	for _, p := range Profiles() {
		arr, err := Schedule(ScheduleConfig{Profile: p, Seed: 1, Corpus: c})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		if err := WriteStream(h, arr); err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprintf("%s %x", p, h.Sum(nil)))
	}
	if g := strings.Join(got, "\n"); g != goldenLoadStreams {
		t.Fatalf("load streams drifted:\ngot:\n%s\nwant:\n%s", g, goldenLoadStreams)
	}
}

const goldenLoadStreams = `steady 4c91bb08996791341cce1b61049a5c9da217216f4155d6633a034538c88dc163
bursty 2343adcb0a0f817605f87bc3b67396119873ae58a2216ca149b0b8e335173328
diurnal ae7991647e66b583e458144329e3488c076c38c7fd88a84e4fcd757269d0d84a
adversarial 17716cc0bcb8f52baa7b44f5de547be2b457b2f6c99b0f13decfe095882033fc
hotkey 61915846f5c91d2499260122a4b684c35ba5ca28d1e0a1dcf9f85309221d64a1`
