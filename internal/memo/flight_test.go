package memo

import (
	"context"
	"testing"
	"time"
)

// TestFlightsLastCallerCancels: a caller that leaves does not stop a
// flight another caller waits on; the last one to leave cancels the
// flight's context and retires it before its Do returns.
func TestFlightsLastCallerCancels(t *testing.T) {
	fl := NewFlights[string, int]()
	fctx := make(chan context.Context, 1)
	fn := func(ctx context.Context) int {
		fctx <- ctx
		<-ctx.Done()
		return -1
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	ctx2, cancel2 := context.WithCancel(context.Background())
	res := make(chan bool, 2)
	go func() { _, _, ok := fl.Do(ctx1, "k", nil, fn); res <- ok }()
	run := <-fctx
	go func() { _, _, ok := fl.Do(ctx2, "k", nil, fn); res <- ok }()
	for fl.Stats().Coalesced < 1 {
		time.Sleep(time.Millisecond)
	}
	cancel1()
	if <-res {
		t.Fatal("a canceled caller reported an outcome")
	}
	if run.Err() != nil || fl.Len() != 1 {
		t.Fatalf("one caller left: flight ctx err %v, %d flights; want it running", run.Err(), fl.Len())
	}
	cancel2()
	if <-res {
		t.Fatal("a canceled caller reported an outcome")
	}
	if run.Err() == nil || fl.Len() != 0 {
		t.Fatalf("last caller left: flight ctx err %v, %d flights; want it canceled and retired", run.Err(), fl.Len())
	}
	for fl.Stats().Inflight != 0 {
		time.Sleep(time.Millisecond)
	}
}
