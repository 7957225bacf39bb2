package netchaos

import (
	"context"
	"fmt"

	"repro/internal/store"
)

// faultyStore injects disk-level faults in front of a real store.
type faultyStore struct {
	in    *Injector
	inner store.Store
}

// Store wraps a store.Store with the injector's disk faults: writes
// fail with alternating ENOSPC/EIO-shaped errors, reads fail
// environmentally (the entry survives; this read just did not see
// it). Corruption is deliberately NOT injected here — the Store
// interface trades in already-verified payloads, so flipping bits at
// this layer would bypass the envelope oracle and serve wrong data
// that no invariant could catch. On-disk corruption is exercised by
// the transport's artifact-payload faults and the scrub tests
// instead.
func (in *Injector) Store(inner store.Store) store.Store {
	return &faultyStore{in: in, inner: inner}
}

func (f *faultyStore) Get(ctx context.Context, key string) ([]byte, bool, error) {
	in := f.in
	if in.armed.Load() && in.plan.DiskReadErrRate > 0 {
		if hit(in.plan.roll(saltDiskRead, key, in.seq("dr\x00"+key)), in.plan.DiskReadErrRate) {
			in.diskRead.Add(1)
			return nil, false, fmt.Errorf("netchaos: injected I/O error reading %.16s…", key)
		}
	}
	return f.inner.Get(ctx, key)
}

func (f *faultyStore) Put(ctx context.Context, key string, payload []byte) error {
	in := f.in
	if in.armed.Load() && in.plan.DiskWriteErrRate > 0 {
		h := in.plan.roll(saltDiskWrite, key, in.seq("dw\x00"+key))
		if hit(h, in.plan.DiskWriteErrRate) {
			in.diskWrite.Add(1)
			if h&(1<<20) != 0 {
				return fmt.Errorf("netchaos: injected ENOSPC writing %.16s…: no space left on device", key)
			}
			return fmt.Errorf("netchaos: injected EIO writing %.16s…: input/output error", key)
		}
	}
	return f.inner.Put(ctx, key, payload)
}

func (f *faultyStore) Stat(ctx context.Context) (store.Stats, error) {
	return f.inner.Stat(ctx)
}

func (f *faultyStore) Close() error { return f.inner.Close() }
