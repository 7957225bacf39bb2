package store

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Artifact-protocol wire details, shared by the peer client and the
// handler.
const (
	// SchemaHeader carries the sender's key schema on every request
	// and response; a node that sees a different schema refuses the
	// exchange (412 on the server, a miss on the client) so
	// mixed-version clusters never trade stale entries.
	SchemaHeader = "X-Hb-Key-Schema"
	// ArtifactPath is the prefix every node mounts its store under.
	ArtifactPath = "/artifact/"
	// maxArtifactBytes bounds a fetched envelope: engine metrics are
	// a few KB; anything near this limit is garbage, not an artifact.
	maxArtifactBytes = 16 << 20
)

// Peer is the HTTP client side of the artifact protocol: a read
// (-through) and write (-back) view of one or more remote stores.
// Reads try peers in rendezvous order for the key and stop at the
// first verified hit; a write goes to the key's top-ranked peer only.
// Every fetched envelope is re-verified locally — schema, key, and
// recomputed payload SHA-256 — so a byzantine or bit-rotted peer
// degrades to a miss, never a poisoned cache.
type Peer struct {
	name      string
	bases     []string
	schema    int
	client    *http.Client
	opTimeout time.Duration
	counters
}

// NewPeer builds a peer-store client over the given base URLs
// (scheme://host:port, no trailing slash needed). name labels the
// tier in Stats. opTimeout bounds each single peer round trip,
// derived from — never exceeding — the caller's context; 0 leaves
// attempts bounded only by the caller's deadline and the client
// timeout. A per-op bound keeps one hung peer from eating the whole
// budget that the next peer in rank order could have served within.
func NewPeer(name string, schema int, bases []string, client *http.Client, opTimeout time.Duration) *Peer {
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	if name == "" {
		name = "peer"
	}
	return &Peer{name: name, bases: cleanBases(bases), schema: schema, client: client, opTimeout: opTimeout}
}

func cleanBases(bases []string) []string {
	cleaned := make([]string, 0, len(bases))
	for _, b := range bases {
		for len(b) > 0 && b[len(b)-1] == '/' {
			b = b[:len(b)-1]
		}
		if b != "" {
			cleaned = append(cleaned, b)
		}
	}
	return cleaned
}

// opCtx derives the per-attempt context: the caller's context, capped
// at the op timeout when one is configured.
func (p *Peer) opCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if p.opTimeout > 0 {
		return context.WithTimeout(ctx, p.opTimeout)
	}
	return context.WithCancel(ctx)
}

// Get fetches and verifies key from the peers in rendezvous order.
// Transport failures, 404s, schema refusals, and verification
// failures all continue to the next peer; exhausting the list is a
// miss.
func (p *Peer) Get(ctx context.Context, key string) ([]byte, bool, error) {
	p.gets.Add(1)
	if !ValidKey(key) || len(p.bases) == 0 {
		p.misses.Add(1)
		return nil, false, nil
	}
	var lastErr error
	for _, base := range Rank(key, p.bases) {
		payload, err := p.getAt(ctx, base, key)
		if err == nil && payload != nil {
			p.hits.Add(1)
			return payload, true, nil
		}
		if err != nil {
			lastErr = err
		}
		if ctx.Err() != nil {
			break // the caller is gone; stop probing peers
		}
	}
	p.misses.Add(1)
	return nil, false, lastErr
}

// getAt fetches and verifies key from one peer. A (nil, nil) return
// is a clean miss (404, schema refusal, failed verification — all
// already counted); an error is environmental.
func (p *Peer) getAt(ctx context.Context, base, key string) ([]byte, error) {
	octx, cancel := p.opCtx(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(octx, http.MethodGet, base+ArtifactPath+key, nil)
	if err != nil {
		p.errs.Add(1)
		return nil, err
	}
	req.Header.Set(SchemaHeader, strconv.Itoa(p.schema))
	resp, err := p.client.Do(req)
	if err != nil {
		p.errs.Add(1)
		return nil, err
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxArtifactBytes))
	resp.Body.Close()
	switch {
	case err != nil:
		p.errs.Add(1)
		return nil, err
	case resp.StatusCode == http.StatusNotFound:
		return nil, nil
	case resp.StatusCode == http.StatusPreconditionFailed:
		p.schemaRej.Add(1)
		return nil, nil
	case resp.StatusCode != http.StatusOK:
		p.errs.Add(1)
		return nil, fmt.Errorf("store: peer %s: status %d", base, resp.StatusCode)
	}
	payload, err := Open(p.schema, key, raw)
	if err != nil {
		// A peer that serves bytes failing verification is worse
		// than a miss — record which way it failed and move on.
		p.counters.classify(err)
		return nil, nil
	}
	return payload, nil
}

// Put seals the payload and PUTs it to the key's top-ranked peer.
// Because rendezvous ranking is stable under removing a node, for a
// key that this shard ranks first that peer is the key's next global
// rank: the shard the front fails over to. Callers in write-back
// tiers treat failures as best-effort.
func (p *Peer) Put(ctx context.Context, key string, payload []byte) error {
	if !ValidKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	if len(p.bases) == 0 {
		return nil
	}
	raw, err := Seal(p.schema, key, payload)
	if err != nil {
		p.errs.Add(1)
		return err
	}
	base := Rank(key, p.bases)[0]
	octx, cancel := p.opCtx(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(octx, http.MethodPut, base+ArtifactPath+key, bytes.NewReader(raw))
	if err != nil {
		p.errs.Add(1)
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(SchemaHeader, strconv.Itoa(p.schema))
	resp, err := p.client.Do(req)
	if err != nil {
		p.errs.Add(1)
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		p.errs.Add(1)
		return fmt.Errorf("store: peer %s: put status %d", base, resp.StatusCode)
	}
	p.puts.Add(1)
	return nil
}

// Stat snapshots the counters.
func (p *Peer) Stat(ctx context.Context) (Stats, error) {
	return p.counters.snapshot(p.name), nil
}

// Close closes idle transport connections.
func (p *Peer) Close() error {
	p.client.CloseIdleConnections()
	return nil
}
