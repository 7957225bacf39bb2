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

// PeerOpts tunes the peer-store client beyond the NewPeer defaults.
type PeerOpts struct {
	// Replicas is R, the number of peers (in rendezvous order) that
	// should hold each key: Put fans out to the top R, and when R > 1
	// Get pushes a hit found past the first rank back onto the missed
	// replicas ahead of it (read repair). 0 or 1 means single-copy.
	Replicas int
	// OpTimeout bounds each single peer round-trip, derived from —
	// never exceeding — the caller's context. 0 leaves attempts
	// bounded only by the caller's deadline and the client timeout. A
	// per-op bound keeps one hung peer from eating the whole budget
	// that the remaining replicas could have served within.
	OpTimeout time.Duration
}

// Peer is the HTTP client side of the artifact protocol: a read
// (-through) and write (-back) view of one or more remote stores.
// Reads try peers in rendezvous order for the key and stop at the
// first verified hit, repairing earlier-ranked replicas that missed
// when R > 1; writes fan out to the key's top-R rendezvous replicas
// and succeed if any copy lands. Every fetched envelope is
// re-verified locally — schema, key, and recomputed payload SHA-256 —
// so a byzantine or bit-rotted peer degrades to a miss, never a
// poisoned cache.
type Peer struct {
	name   string
	bases  []string
	schema int
	client *http.Client
	opts   PeerOpts
	counters
}

// NewPeer builds a single-copy peer-store client over the given base
// URLs (scheme://host:port, no trailing slash needed). name labels
// the tier in Stats.
func NewPeer(name string, schema int, bases []string, client *http.Client) *Peer {
	return NewPeerWith(name, schema, bases, client, PeerOpts{})
}

// NewPeerWith builds a peer-store client with explicit replication
// options.
func NewPeerWith(name string, schema int, bases []string, client *http.Client, opts PeerOpts) *Peer {
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	cleaned := cleanBases(bases)
	if name == "" {
		name = "peer"
	}
	if opts.Replicas < 1 {
		opts.Replicas = 1
	}
	return &Peer{name: name, bases: cleaned, schema: schema, client: client, opts: opts}
}

// Bases returns the configured peer base URLs (cleaned). The
// anti-entropy sweeper ranks these to place repairs.
func (p *Peer) Bases() []string {
	out := make([]string, len(p.bases))
	copy(out, p.bases)
	return out
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

// Replicas returns the configured replication factor R.
func (p *Peer) Replicas() int { return p.opts.Replicas }

// opCtx derives the per-attempt context: the caller's context, capped
// at OpTimeout when one is configured.
func (p *Peer) opCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if p.opts.OpTimeout > 0 {
		return context.WithTimeout(ctx, p.opts.OpTimeout)
	}
	return context.WithCancel(ctx)
}

// Get fetches and verifies key from the peers in rendezvous order.
// Transport failures, 404s, schema refusals, and verification
// failures all continue to the next peer; exhausting the list is a
// miss. With R > 1, a verified hit found past replicas that missed is
// pushed back onto them (read repair).
func (p *Peer) Get(ctx context.Context, key string) ([]byte, bool, error) {
	p.gets.Add(1)
	if !ValidKey(key) || len(p.bases) == 0 {
		p.misses.Add(1)
		return nil, false, nil
	}
	ranked := Rank(key, p.bases)
	var lastErr error
	for i, base := range ranked {
		payload, err := p.getAt(ctx, base, key)
		if err == nil && payload != nil {
			p.hits.Add(1)
			if p.opts.Replicas > 1 && i > 0 {
				p.repair(ctx, ranked[:min(i, p.opts.Replicas)], key, payload)
			}
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

// repair pushes a verified payload back onto the higher-ranked
// replicas that missed it. Best-effort and synchronous: the caller
// already paid a deep read; one PUT per healed replica is the price
// of not paying it again, and failures just leave the key for the
// anti-entropy sweep.
func (p *Peer) repair(ctx context.Context, targets []string, key string, payload []byte) {
	for _, base := range targets {
		if ctx.Err() != nil {
			return
		}
		if err := p.PutAt(ctx, base, key, payload); err == nil {
			p.readRepairs.Add(1)
		}
	}
}

// Put seals the payload and PUTs it to the key's top-R rendezvous
// replicas. The write succeeds if any copy lands; the error reports
// the last failure only when every replica refused. Callers in
// write-back tiers treat failures as best-effort.
func (p *Peer) Put(ctx context.Context, key string, payload []byte) error {
	if !ValidKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	if len(p.bases) == 0 {
		return nil
	}
	ranked := Rank(key, p.bases)
	if len(ranked) > p.opts.Replicas {
		ranked = ranked[:p.opts.Replicas]
	}
	var lastErr error
	landed := 0
	for _, base := range ranked {
		if err := p.PutAt(ctx, base, key, payload); err != nil {
			lastErr = err
			if ctx.Err() != nil {
				break
			}
			continue
		}
		landed++
	}
	if landed == 0 {
		return lastErr
	}
	p.puts.Add(1)
	return nil
}

// PutAt seals and PUTs the payload to one specific peer. The
// anti-entropy sweeper uses it to place repairs on exactly the
// replica that is missing a copy.
func (p *Peer) PutAt(ctx context.Context, base, key string, payload []byte) error {
	if !ValidKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	raw, err := Seal(p.schema, key, payload)
	if err != nil {
		p.errs.Add(1)
		return err
	}
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
	return nil
}

// HasAt reports whether one specific peer holds key, via a HEAD
// probe. Environmental failures return an error so the sweeper can
// tell "replica is missing the key" from "replica is unreachable"
// (repairing onto an unreachable node is wasted work; counting it
// as missing would distort the replication histogram).
func (p *Peer) HasAt(ctx context.Context, base, key string) (bool, error) {
	if !ValidKey(key) {
		return false, fmt.Errorf("store: invalid key %q", key)
	}
	octx, cancel := p.opCtx(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(octx, http.MethodHead, base+ArtifactPath+key, nil)
	if err != nil {
		return false, err
	}
	req.Header.Set(SchemaHeader, strconv.Itoa(p.schema))
	resp, err := p.client.Do(req)
	if err != nil {
		return false, err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusNoContent:
		return true, nil
	case http.StatusNotFound, http.StatusPreconditionFailed:
		return false, nil
	default:
		return false, fmt.Errorf("store: peer %s: head status %d", base, resp.StatusCode)
	}
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
