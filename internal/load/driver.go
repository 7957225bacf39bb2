package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/workloads/corpus"
)

// RunConfig parameterizes Run.
type RunConfig struct {
	// BaseURL is the hbserved or hbfront endpoint (no trailing slash);
	// requests POST to BaseURL+"/v1/jobs".
	BaseURL string
	// Client issues the requests (nil: a dedicated client with no
	// client-side timeout — the request deadline travels in the body
	// and the server enforces it; a transport timeout would turn shed
	// responses into losses).
	Client *http.Client
	// Arrivals is the schedule to replay (from Schedule or a recorded
	// stream).
	Arrivals []Arrival
	// Resolve maps an arrival to the request to post. Nil: Requests
	// over the corpus the schedule was built from must be supplied
	// instead. Tests substitute resolvers to pin per-request cost.
	Resolve func(Arrival) server.Request
	// TimeScale multiplies every arrival offset at replay time (<= 0:
	// 1.0). It compresses or stretches pacing without touching the
	// recorded stream, so a test can replay a 10s schedule in 1s.
	TimeScale float64
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// Requests returns the standard resolver: regenerate the arrival's
// program from the corpus and post it as inline source with the
// cluster ID as the workload class, running the timing simulator.
func Requests(c *corpus.Corpus) func(Arrival) server.Request {
	return func(a Arrival) server.Request {
		req := server.Request{
			Class:     a.Class,
			Ordering:  a.Ordering,
			Sim:       "timing",
			Args:      a.Args,
			TimeoutMS: a.TimeoutMS,
		}
		if a.ProgramIdx >= 0 && a.ProgramIdx < len(c.Programs) {
			req.Source = c.Programs[a.ProgramIdx].Source
		}
		return req
	}
}

// Run replays the schedule open-loop against the endpoint: every
// arrival fires at its scheduled offset whether or not earlier
// requests have completed — the generator never slows down because
// the server is struggling, which is exactly what makes overload
// overload. Outcomes come back indexed by arrival Seq.
func Run(ctx context.Context, cfg RunConfig) ([]Outcome, time.Duration, error) {
	if len(cfg.Arrivals) == 0 {
		return nil, 0, fmt.Errorf("load: RunConfig.Arrivals is empty")
	}
	if cfg.Resolve == nil {
		return nil, 0, fmt.Errorf("load: RunConfig.Resolve is required (use Requests(corpus))")
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	scale := cfg.TimeScale
	if scale <= 0 {
		scale = 1.0
	}
	outcomes := make([]Outcome, len(cfg.Arrivals))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range cfg.Arrivals {
		a := cfg.Arrivals[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			at := time.Duration(float64(a.AtUS) * scale * float64(time.Microsecond))
			if d := time.Until(start.Add(at)); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					outcomes[a.Seq] = Outcome{Seq: a.Seq, Class: a.Class, TimeoutMS: a.TimeoutMS, Err: "canceled before send"}
					return
				}
			}
			outcomes[a.Seq] = post(ctx, client, cfg.BaseURL, a, cfg.Resolve(a))
		}()
	}
	wg.Wait()
	return outcomes, time.Since(start), nil
}

// post issues one request and records its outcome. A transport-level
// failure records ErrClass "" (lost): the server invariant is exactly
// one terminal response per admitted request, so losses are always
// report-level violations, never folded into shed.
func post(ctx context.Context, client *http.Client, baseURL string, a Arrival, req server.Request) Outcome {
	out := Outcome{Seq: a.Seq, Class: a.Class, TimeoutMS: a.TimeoutMS}
	body, err := json.Marshal(req)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	t0 := time.Now()
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		out.Err = err.Error()
		return out
	}
	httpReq.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(httpReq)
	out.LatencyMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		out.Err = err.Error()
		return out
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	out.LatencyMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		out.Err = err.Error()
		return out
	}
	var sr server.Response
	if err := json.Unmarshal(raw, &sr); err != nil || sr.Class == "" {
		out.Err = fmt.Sprintf("unparseable response (status %d): %.120s", resp.StatusCode, raw)
		return out
	}
	out.ErrClass = string(sr.Class)
	out.RetryAfterMS = sr.RetryAfterMS
	out.CacheHit = sr.CacheHit
	out.ProgramHit = sr.ProgramHit
	out.SkeletonHit = sr.SkeletonHit
	out.SkeletonFallbacks = sr.SkeletonFallbacks
	return out
}

// WriteStream encodes the arrival schedule as NDJSON — one integer-
// only JSON object per line. Byte-identical across runs of the same
// (profile, seed): the CI replayability gate diffs two of these.
func WriteStream(w io.Writer, arrivals []Arrival) error {
	enc := json.NewEncoder(w)
	for i := range arrivals {
		if err := enc.Encode(&arrivals[i]); err != nil {
			return err
		}
	}
	return nil
}

// ReadStream decodes an NDJSON arrival stream written by WriteStream.
func ReadStream(r io.Reader) ([]Arrival, error) {
	dec := json.NewDecoder(r)
	var out []Arrival
	for {
		var a Arrival
		if err := dec.Decode(&a); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
}
