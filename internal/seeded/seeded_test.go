package seeded

import "testing"

// TestReferenceVectors checks the primitives against published
// reference outputs: splitmix64 seeded with 0 (Vigna's reference
// implementation) and the FNV-1a 64 test vectors.
func TestReferenceVectors(t *testing.T) {
	s := Stream(0)
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := s.Next(); got != want {
			t.Fatalf("splitmix64 word %d = %#x, want %#x", i, got, want)
		}
	}
	if got := Mix(0); got != 0xe220a8397b1dcdaf {
		t.Fatalf("Mix(0) = %#x", got)
	}
	for in, want := range map[string]uint64{
		"":       0xcbf29ce484222325,
		"a":      0xaf63dc4c8601ec8c,
		"foobar": 0x85944171f73967e8,
	} {
		if got := Hash(in); got != want {
			t.Fatalf("Hash(%q) = %#x, want %#x", in, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = Hash("main.loop") }); n != 0 {
		t.Fatalf("Hash allocates %v per call", n)
	}
}

func TestFloatRange(t *testing.T) {
	s := Stream(42)
	for i := 0; i < 10000; i++ {
		if f := s.Float(); f < 0 || f >= 1 {
			t.Fatalf("Float() = %v outside [0,1)", f)
		}
	}
}
