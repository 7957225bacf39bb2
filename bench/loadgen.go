package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// call is one request's timeline and reply.
type call struct {
	// due is when the request was scheduled; dispatched when the
	// generator released it (their difference is generator lateness);
	// conn when it got a connection; replied when the reply body was
	// read; done once the reply was decoded.
	due, dispatched, conn, replied, done time.Time
	resp                                 server.Response
	err                                  error
}

// latency is the client-observed latency, timed from the due time.
func (c *call) latency() time.Duration { return c.replied.Sub(c.due) }

// loadClient sends requests to one endpoint over at most conns
// keep-alive connections. It replaces internal/load.Run, which opens
// one goroutine and one connection per in-flight arrival and does not
// report lateness.
type loadClient struct {
	url    string
	client *http.Client
	conns  int
}

func newLoadClient(baseURL string, conns int) *loadClient {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &loadClient{url: baseURL + "/v1/jobs", client: &http.Client{Transport: tr}, conns: conns}
}

func (lc *loadClient) close() { lc.client.CloseIdleConnections() }

// do sends one pre-encoded request and fills c's timeline and reply.
// limit bounds the wait for a reply, so a dead target costs a lost
// request rather than a stuck benchmark.
func (lc *loadClient) do(ctx context.Context, body []byte, limit time.Duration, c *call) {
	ctx, cancel := context.WithTimeout(ctx, limit)
	defer cancel()
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { c.conn = time.Now() },
	})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, lc.url, bytes.NewReader(body))
	if err != nil {
		c.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := lc.client.Do(req)
	if c.conn.IsZero() {
		c.conn = time.Now()
	}
	if err != nil {
		c.err = err
		c.replied = time.Now()
		c.done = c.replied
		return
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.replied = time.Now()
	if err == nil {
		err = json.Unmarshal(raw, &c.resp)
	}
	c.done = time.Now()
	c.err = err
}

// openLoop sends bodies[i] at its due offset whether or not earlier
// requests have finished. Workers own the connections: a request due
// while all of them are busy waits for one, and that wait counts in
// its latency because latency is timed from the due time.
func (lc *loadClient) openLoop(ctx context.Context, bodies [][]byte, due []time.Duration, limit time.Duration) []call {
	calls := make([]call, len(bodies))
	queue := make(chan int, len(bodies)) // one slot per send: the generator never blocks
	origin := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < lc.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				lc.do(ctx, bodies[i], limit, &calls[i])
			}
		}()
	}
	for i := range bodies {
		time.Sleep(time.Until(origin.Add(due[i])))
		calls[i].due = origin.Add(due[i])
		calls[i].dispatched = time.Now()
		queue <- i
	}
	close(queue)
	wg.Wait()
	return calls
}

// closedLoop sends n requests, cycling through bodies, from lc.conns
// clients that each send their next request once the previous reply
// is in. It returns the calls and the phase's wall time.
func (lc *loadClient) closedLoop(ctx context.Context, bodies [][]byte, n int, limit time.Duration) ([]call, time.Duration) {
	calls := make([]call, n)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < lc.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				c := &calls[i]
				c.due = time.Now()
				c.dispatched = c.due
				lc.do(ctx, bodies[i%len(bodies)], limit, c)
			}
		}()
	}
	wg.Wait()
	return calls, time.Since(start)
}
