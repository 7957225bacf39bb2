package netchaos

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/store"
)

// maxFaultableBody bounds how much of a response the transport will
// buffer in order to corrupt it; artifact envelopes are a few KB.
const maxFaultableBody = 16 << 20

// transport is the fault-injecting http.RoundTripper.
type transport struct {
	in    *Injector
	inner http.RoundTripper
}

// Transport wraps an http.RoundTripper with the injector's connection
// and payload faults. A nil inner uses http.DefaultTransport. While
// the injector is disarmed the wrapper forwards verbatim.
func (in *Injector) Transport(inner http.RoundTripper) http.RoundTripper {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &transport{in: in, inner: inner}
}

// dropError is the synthetic transport failure for drops, hangs, and
// partitions; it unwraps to the request context's error for hangs so
// callers' ctx.Err() checks behave as they would for a real stall.
type dropError struct{ msg string }

func (e *dropError) Error() string { return e.msg }

// RoundTrip applies, in order: partition, drop, hang, latency on the
// request side; 5xx substitution, truncation, and bit flips on the
// response side. Corruption faults apply only to artifact-protocol
// responses (see the package comment).
func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	in := t.in
	if !in.armed.Load() {
		return t.inner.RoundTrip(req)
	}
	p := in.plan
	from, to := in.names.of(in.from), in.names.of(req.URL.Host)
	if p.Partitioned(from, to) {
		in.partitions.Add(1)
		return nil, &dropError{fmt.Sprintf("netchaos: partition %s -/-> %s", from, to)}
	}
	site := to + req.URL.Path
	seq := in.seq(site)
	if hit(p.roll(saltDrop, site, seq), p.DropRate) {
		in.drops.Add(1)
		return nil, &dropError{"netchaos: connection dropped to " + site}
	}
	if hit(p.roll(saltHang, site, seq), p.HangRate) {
		in.hangs.Add(1)
		<-req.Context().Done()
		return nil, &dropError{"netchaos: hung connection to " + site + ": " + req.Context().Err().Error()}
	}
	if h := p.roll(saltLatency, site, seq); hit(h, p.LatencyRate) && p.MaxLatencyMS > 0 {
		in.latency.Add(1)
		d := time.Duration(1+int64((h>>10)%uint64(p.MaxLatencyMS))) * time.Millisecond
		select {
		case <-time.After(d):
		case <-req.Context().Done():
			return nil, &dropError{"netchaos: canceled during injected latency: " + req.Context().Err().Error()}
		}
	}
	if hit(p.roll(salt5xx, site, seq), p.Err5xxRate) {
		in.err5xx.Add(1)
		body := "netchaos: injected 503\n"
		return &http.Response{
			Status:        "503 Service Unavailable",
			StatusCode:    http.StatusServiceUnavailable,
			Proto:         req.Proto,
			ProtoMajor:    req.ProtoMajor,
			ProtoMinor:    req.ProtoMinor,
			Header:        http.Header{"Content-Type": []string{"text/plain"}},
			Body:          io.NopCloser(bytes.NewReader([]byte(body))),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	}
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	// Payload corruption: artifact GET responses only — the reader's
	// envelope verification is the oracle that must catch these.
	if req.Method == http.MethodGet &&
		len(req.URL.Path) > len(store.ArtifactPath) &&
		req.URL.Path[:len(store.ArtifactPath)] == store.ArtifactPath &&
		resp.StatusCode == http.StatusOK {
		truncate := hit(p.roll(saltTruncate, site, seq), p.TruncateRate)
		flip := p.roll(saltBitFlip, site, seq)
		if truncate || hit(flip, p.BitFlipRate) {
			raw, rerr := io.ReadAll(io.LimitReader(resp.Body, maxFaultableBody))
			resp.Body.Close()
			if rerr != nil {
				return nil, rerr
			}
			if truncate {
				in.truncates.Add(1)
				raw = raw[:len(raw)/2]
			} else if len(raw) > 0 {
				in.bitflips.Add(1)
				i := int((flip >> 10) % uint64(len(raw)))
				raw[i] ^= 1 << ((flip >> 40) % 8)
			}
			resp.Body = io.NopCloser(bytes.NewReader(raw))
			resp.ContentLength = int64(len(raw))
			resp.Header.Set("Content-Length", strconv.Itoa(len(raw)))
		}
	}
	return resp, nil
}
