package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/seeded"
)

// Config configures a membership Node.
type Config struct {
	// Self is this node's advertised base URL. Empty only for
	// observers.
	Self string
	// Seeds are peers contacted at startup to join the ring. They
	// are also pre-seeded into the table as alive@0 so probing can
	// begin before the first join round-trip completes.
	Seeds []string
	// Observer nodes (the front tier) maintain a view by probing but
	// never announce themselves as members.
	Observer bool

	// ProbeInterval is the gossip tick (default 1s). Each tick
	// probes one member, round-robin over a seeded shuffle.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one direct or indirect probe attempt
	// (default ProbeInterval/3).
	ProbeTimeout time.Duration
	// IndirectProbes is the number of relays asked to ping-req a
	// member whose direct probe failed (default 2).
	IndirectProbes int
	// SuspicionTimeout is how long a member stays suspected before
	// being declared dead (default 5×ProbeInterval). Within this
	// window the accused node can refute by bumping its incarnation.
	SuspicionTimeout time.Duration
	// JoinWarmup > 0 makes the node announce itself as joining and
	// self-promote to alive after the warmup elapses, giving the
	// existing Sweepers a window to push replicas at it before it
	// starts counting toward the replication factor.
	JoinWarmup time.Duration

	// Client performs all gossip HTTP. Defaults to a dedicated
	// client; tests inject fault-wrapped transports here.
	Client *http.Client
	// Seed drives the probe-order shuffle.
	Seed int64
	// Logf, if set, receives one line per membership transition.
	Logf func(format string, args ...any)
}

func (c *Config) setDefaults() {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = c.ProbeInterval / 3
	}
	if c.IndirectProbes <= 0 {
		c.IndirectProbes = 2
	}
	if c.SuspicionTimeout <= 0 {
		c.SuspicionTimeout = 5 * c.ProbeInterval
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
}

// bcastBudget is how many more probes/acks an enqueued delta rides on
// before it ages out of the retransmit queue. Generous relative to
// SWIM's 3·log(n) because observers only hear deltas second-hand (a
// revived member never probes an observer directly, so its alive
// claim must survive in peers' queues until the observer's next
// probe lands on one of them).
const bcastBudget = 16

// maxPiggyback bounds the deltas attached to one probe or ack.
const maxPiggyback = 12

type memberState struct {
	Member
	suspectAt time.Time // when the current suspicion began
}

type bcastItem struct {
	u    Update
	left int
}

// Node is one participant in the gossip ring. Start launches a single
// probe-loop goroutine; Stop halts it and closes all subscriptions.
type Node struct {
	cfg Config

	mu       sync.Mutex
	members  map[string]*memberState // keyed by Addr, never contains Self
	inc      uint64                  // self incarnation
	selfSt   State                   // alive or joining
	bornAt   time.Time               // for JoinWarmup self-promotion
	version  uint64
	bcast    []bcastItem
	order    []string // shuffled probe round-robin
	orderIdx int
	subs     map[int]chan View
	subSeq   int
	started  bool
	stopped  bool

	cur atomic.Pointer[View]
	rng seeded.Stream // probe-order shuffle

	stop chan struct{}
	done chan struct{}

	// counters
	probes      atomic.Int64
	acks        atomic.Int64
	indirects   atomic.Int64
	indirectOK  atomic.Int64
	suspicions  atomic.Int64
	refutations atomic.Int64
	deaths      atomic.Int64
	joins       atomic.Int64
	revivals    atomic.Int64
}

// New builds a Node. The returned node is inert until Start.
func New(cfg Config) (*Node, error) {
	cfg.setDefaults()
	if !cfg.Observer && cfg.Self == "" {
		return nil, fmt.Errorf("cluster: non-observer node needs Self")
	}
	n := &Node{
		cfg:     cfg,
		members: map[string]*memberState{},
		selfSt:  StateAlive,
		bornAt:  time.Now(),
		subs:    map[int]chan View{},
		rng:     seeded.Stream(uint64(cfg.Seed)*seeded.Gamma + 0x2545f4914f6cdd1d),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	n.cfg.Self = strings.TrimRight(n.cfg.Self, "/")
	if cfg.JoinWarmup > 0 && !cfg.Observer {
		n.selfSt = StateJoining
	}
	for _, s := range cfg.Seeds {
		s = strings.TrimRight(s, "/")
		if s == "" || s == n.cfg.Self {
			continue
		}
		n.members[s] = &memberState{Member: Member{Addr: s, State: StateAlive}}
	}
	n.mu.Lock()
	n.publishLocked()
	n.mu.Unlock()
	return n, nil
}

// Start launches the probe loop and an async join against the seeds.
func (n *Node) Start() {
	n.mu.Lock()
	if n.started || n.stopped {
		n.mu.Unlock()
		return
	}
	n.started = true
	n.bornAt = time.Now()
	n.mu.Unlock()
	go n.loop()
}

// Stop halts the probe loop, waits for it to exit, and closes every
// subscriber channel. Safe to call more than once.
func (n *Node) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	started := n.started
	n.mu.Unlock()
	close(n.stop)
	if started {
		<-n.done
	}
	n.mu.Lock()
	for id, ch := range n.subs {
		close(ch)
		delete(n.subs, id)
	}
	n.mu.Unlock()
}

// View returns the current membership snapshot.
func (n *Node) View() View { return *n.cur.Load() }

// Self returns the node's advertised address ("" for observers).
func (n *Node) Self() string { return n.cfg.Self }

// Subscribe returns a channel receiving each new View (coalescing:
// capacity 1, stale views are replaced, never blocks the publisher)
// and a cancel func. The channel is closed on cancel or Stop.
func (n *Node) Subscribe() (<-chan View, func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	id := n.subSeq
	n.subSeq++
	ch := make(chan View, 1)
	if n.stopped {
		close(ch)
		return ch, func() {}
	}
	n.subs[id] = ch
	ch <- *n.cur.Load()
	return ch, func() {
		n.mu.Lock()
		if c, ok := n.subs[id]; ok {
			delete(n.subs, id)
			close(c)
		}
		n.mu.Unlock()
	}
}

// OnChange invokes fn (from a dedicated goroutine) with the current
// View and every subsequent one, until the returned cancel is called
// or the node stops.
func (n *Node) OnChange(fn func(View)) (cancel func()) {
	ch, cancel := n.Subscribe()
	go func() {
		for v := range ch {
			fn(v)
		}
	}()
	return cancel
}

// publishLocked bumps the version, rebuilds the snapshot, and fans it
// out to subscribers without ever blocking.
func (n *Node) publishLocked() {
	n.version++
	ms := make([]Member, 0, len(n.members)+1)
	for _, m := range n.members {
		ms = append(ms, m.Member)
	}
	if !n.cfg.Observer {
		ms = append(ms, Member{Addr: n.cfg.Self, State: n.selfSt, Inc: n.inc})
	}
	sortMembers(ms)
	v := View{Version: n.version, Self: n.cfg.Self, Members: ms}
	n.cur.Store(&v)
	for _, ch := range n.subs {
		select {
		case ch <- v:
		default:
			select { // drop the stale view, then retry once
			case <-ch:
			default:
			}
			select {
			case ch <- v:
			default:
			}
		}
	}
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf("cluster %s: "+format, append([]any{n.cfg.Self}, args...)...)
	}
}

// enqueueLocked adds a delta to the retransmit queue, replacing any
// queued delta for the same address.
func (n *Node) enqueueLocked(u Update) {
	for i := range n.bcast {
		if n.bcast[i].u.Addr == u.Addr {
			n.bcast[i] = bcastItem{u: u, left: bcastBudget}
			return
		}
	}
	n.bcast = append(n.bcast, bcastItem{u: u, left: bcastBudget})
}

// takeBcastLocked pops up to max deltas, decrementing retransmit
// budgets and dropping exhausted entries.
func (n *Node) takeBcastLocked(max int) []Update {
	var out []Update
	kept := n.bcast[:0]
	for _, it := range n.bcast {
		if len(out) < max {
			out = append(out, it.u)
			it.left--
		}
		if it.left > 0 {
			kept = append(kept, it)
		}
	}
	n.bcast = kept
	return out
}

// selfUpdateLocked is the node's own current claim.
func (n *Node) selfUpdateLocked() (Update, bool) {
	if n.cfg.Observer {
		return Update{}, false
	}
	return Update{Addr: n.cfg.Self, State: n.selfSt, Inc: n.inc}, true
}

// apply merges incoming updates into the table, returning whether
// anything changed. Refutation lives here: a claim that Self is
// suspect or dead makes the node bump its incarnation past the claim
// and re-announce itself.
func (n *Node) apply(us []Update) {
	if len(us) == 0 {
		return
	}
	now := time.Now()
	n.mu.Lock()
	changed := false
	for _, u := range us {
		u.Addr = strings.TrimRight(u.Addr, "/")
		if u.Addr == "" || stateRank(u.State) < 0 {
			continue
		}
		if !n.cfg.Observer && u.Addr == n.cfg.Self {
			if u.Inc > n.inc || (u.Inc == n.inc && stateRank(u.State) > stateRank(n.selfSt)) {
				// Someone believes something about us we did not
				// say. Jump past their incarnation and re-announce;
				// alive@inc' supersedes suspect/dead@inc for inc'>inc.
				n.inc = u.Inc + 1
				n.refutations.Add(1)
				n.logf("refuting %s@%d, now inc %d", u.State, u.Inc, n.inc)
				if su, ok := n.selfUpdateLocked(); ok {
					n.enqueueLocked(su)
				}
				changed = true
			}
			continue
		}
		cur, known := n.members[u.Addr]
		if !known {
			n.members[u.Addr] = &memberState{Member: u}
			if u.State == StateSuspect {
				n.members[u.Addr].suspectAt = now
			}
			if u.State != StateDead {
				n.joins.Add(1)
				n.logf("learned of %s (%s@%d)", u.Addr, u.State, u.Inc)
			}
			n.enqueueLocked(u)
			changed = true
			continue
		}
		if !Supersedes(u.State, u.Inc, cur.State, cur.Inc) {
			continue
		}
		wasDead := cur.State == StateDead
		if u.State == StateSuspect && cur.State != StateSuspect {
			cur.suspectAt = now
		}
		cur.State, cur.Inc = u.State, u.Inc
		switch {
		case u.State == StateDead:
			n.deaths.Add(1)
			n.logf("%s confirmed dead@%d", u.Addr, u.Inc)
		case wasDead:
			n.revivals.Add(1)
			n.logf("%s revived (%s@%d)", u.Addr, u.State, u.Inc)
		}
		n.enqueueLocked(u)
		changed = true
	}
	if changed {
		n.publishLocked()
	}
	n.mu.Unlock()
}

// ---- probe loop ----

func (n *Node) loop() {
	defer close(n.done)
	go n.joinSeeds()
	t := time.NewTicker(n.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
		}
		n.tick()
	}
}

// joinSeeds announces this node to the ring via any seed, retrying
// until one join succeeds or the node stops.
func (n *Node) joinSeeds() {
	if len(n.cfg.Seeds) == 0 {
		return
	}
	backoff := n.cfg.ProbeInterval / 2
	for {
		for _, s := range n.cfg.Seeds {
			s = strings.TrimRight(s, "/")
			if s == "" || s == n.cfg.Self {
				continue
			}
			if n.join(s) {
				return
			}
		}
		select {
		case <-n.stop:
			return
		case <-time.After(backoff):
		}
		if backoff < 4*n.cfg.ProbeInterval {
			backoff *= 2
		}
	}
}

func (n *Node) tick() {
	now := time.Now()
	n.mu.Lock()
	changed := false
	// Expire suspicions into confirmed deaths.
	for _, m := range n.members {
		if m.State == StateSuspect && now.Sub(m.suspectAt) >= n.cfg.SuspicionTimeout {
			m.State = StateDead
			n.deaths.Add(1)
			n.logf("%s suspicion expired, confirmed dead@%d", m.Addr, m.Inc)
			n.enqueueLocked(m.Member)
			changed = true
		}
	}
	// Self-promote out of joining once the warmup has elapsed.
	if !n.cfg.Observer && n.selfSt == StateJoining && now.Sub(n.bornAt) >= n.cfg.JoinWarmup {
		n.selfSt = StateAlive
		n.logf("warmup complete, joining -> alive")
		if su, ok := n.selfUpdateLocked(); ok {
			n.enqueueLocked(su)
		}
		changed = true
	}
	target := n.pickTargetLocked()
	if changed {
		n.publishLocked()
	}
	n.mu.Unlock()
	if target == "" {
		return
	}
	n.probe(target)
}

// pickTargetLocked round-robins over a seeded shuffle of the non-dead
// members, reshuffling when the candidate set changes or a pass ends.
func (n *Node) pickTargetLocked() string {
	var cand []string
	for _, m := range n.members {
		if m.State != StateDead {
			cand = append(cand, m.Addr)
		}
	}
	if len(cand) == 0 {
		return ""
	}
	if n.orderIdx >= len(n.order) || !sameSet(n.order, cand) {
		n.order = append([]string(nil), cand...)
		// Deterministic order before the seeded shuffle.
		sortStrings(n.order)
		for i := len(n.order) - 1; i > 0; i-- {
			j := int(n.rng.Next() % uint64(i+1))
			n.order[i], n.order[j] = n.order[j], n.order[i]
		}
		n.orderIdx = 0
	}
	t := n.order[n.orderIdx]
	n.orderIdx++
	return t
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	m := make(map[string]struct{}, len(a))
	for _, x := range a {
		m[x] = struct{}{}
	}
	for _, x := range b {
		if _, ok := m[x]; !ok {
			return false
		}
	}
	return true
}

// probe runs one SWIM round against target: direct ping, then — on
// failure — IndirectProbes parallel ping-reqs through other members.
// Only when the target is unreachable both directly and by proxy does
// suspicion begin; this is what keeps a one-way partition between the
// prober and the target from escalating into a false death.
func (n *Node) probe(target string) {
	n.probes.Add(1)
	if n.ping(target) {
		n.acks.Add(1)
		return
	}
	// Direct probe failed; ask relays to try on our behalf.
	n.mu.Lock()
	var relays []string
	for _, m := range n.members {
		if m.Addr != target && m.State != StateDead {
			relays = append(relays, m.Addr)
		}
	}
	sortStrings(relays)
	for i := len(relays) - 1; i > 0; i-- {
		j := int(n.rng.Next() % uint64(i+1))
		relays[i], relays[j] = relays[j], relays[i]
	}
	if len(relays) > n.cfg.IndirectProbes {
		relays = relays[:n.cfg.IndirectProbes]
	}
	n.mu.Unlock()

	okc := make(chan bool, len(relays))
	for _, r := range relays {
		r := r
		go func() { okc <- n.pingReq(r, target) }()
	}
	reached := false
	for range relays {
		if <-okc {
			reached = true
		}
	}
	if reached {
		n.indirectOK.Add(1)
		return
	}
	// Unreachable directly and by proxy: suspect (at its current
	// incarnation, so the member itself can refute with a bump).
	n.mu.Lock()
	m, ok := n.members[target]
	if ok && (m.State == StateAlive || m.State == StateJoining) {
		m.State = StateSuspect
		m.suspectAt = time.Now()
		n.suspicions.Add(1)
		n.logf("suspecting %s@%d", target, m.Inc)
		n.enqueueLocked(m.Member)
		n.publishLocked()
	}
	n.mu.Unlock()
}

// ---- wire ----

type wireMsg struct {
	From     string   `json:"from,omitempty"`
	Observer bool     `json:"observer,omitempty"`
	Target   string   `json:"target,omitempty"`
	Updates  []Update `json:"updates,omitempty"`
}

type wireAck struct {
	Ok      bool     `json:"ok"`
	Updates []Update `json:"updates,omitempty"`
}

// pingUpdatesFor assembles the piggyback for a probe of target: our
// own claim, our current belief about the target (so a suspected node
// learns of its suspicion and can refute in the ack), plus queued
// deltas.
func (n *Node) pingUpdatesFor(target string) []Update {
	n.mu.Lock()
	defer n.mu.Unlock()
	var us []Update
	if su, ok := n.selfUpdateLocked(); ok {
		us = append(us, su)
	}
	if target != "" {
		if m, ok := n.members[target]; ok {
			us = append(us, m.Member)
		}
	}
	return append(us, n.takeBcastLocked(maxPiggyback)...)
}

func (n *Node) ping(target string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.ProbeTimeout)
	defer cancel()
	ack, err := n.post(ctx, target+PathPrefix+"ping", wireMsg{
		From:     n.cfg.Self,
		Observer: n.cfg.Observer,
		Updates:  n.pingUpdatesFor(target),
	})
	if err != nil || !ack.Ok {
		return false
	}
	n.apply(ack.Updates)
	return true
}

func (n *Node) pingReq(relay, target string) bool {
	n.indirects.Add(1)
	// The relay needs one ProbeTimeout of its own to reach the
	// target, so allow two end to end.
	ctx, cancel := context.WithTimeout(context.Background(), 2*n.cfg.ProbeTimeout)
	defer cancel()
	ack, err := n.post(ctx, relay+PathPrefix+"ping-req", wireMsg{
		From:     n.cfg.Self,
		Observer: n.cfg.Observer,
		Target:   target,
		Updates:  n.pingUpdatesFor(target),
	})
	if err != nil {
		return false
	}
	n.apply(ack.Updates)
	return ack.Ok
}

func (n *Node) join(seed string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), 2*n.cfg.ProbeTimeout)
	defer cancel()
	ack, err := n.post(ctx, seed+PathPrefix+"join", wireMsg{
		From:     n.cfg.Self,
		Observer: n.cfg.Observer,
		Updates:  n.pingUpdatesFor(""),
	})
	if err != nil || !ack.Ok {
		return false
	}
	n.apply(ack.Updates)
	n.logf("joined via %s", seed)
	return true
}

func (n *Node) post(ctx context.Context, url string, msg wireMsg) (wireAck, error) {
	body, err := json.Marshal(msg)
	if err != nil {
		return wireAck{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return wireAck{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := n.cfg.Client.Do(req)
	if err != nil {
		return wireAck{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return wireAck{}, fmt.Errorf("cluster: %s -> %d", url, resp.StatusCode)
	}
	var ack wireAck
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&ack); err != nil {
		return wireAck{}, err
	}
	return ack, nil
}
