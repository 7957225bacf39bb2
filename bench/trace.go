package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// rootLayer marks the span that covers one whole job or request; its
// self time is the time no layer claims.
const rootLayer = "unclaimed"

// span is one traced interval. Spans of one job or request share Req;
// Parent is 0 for the root. Start and End are nanoseconds since the
// recorder's origin.
type span struct {
	Req    string `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. Safe for
// concurrent use; the zero value is not usable, call newRecorder.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	nextID int
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// id reserves a span ID, for a parent whose extent is known only after
// its children (add it later with addID).
func (r *recorder) id() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

// add records a span and returns its ID.
func (r *recorder) add(req string, parent int, layer, name string, start, end time.Time) int {
	id := r.id()
	r.addID(id, req, parent, layer, name, start, end)
	return id
}

// addID records a span under a reserved ID.
func (r *recorder) addID(id int, req string, parent int, layer, name string, start, end time.Time) {
	s := span{Req: req, ID: id, Parent: parent, Layer: layer, Name: name,
		Start: start.Sub(r.origin).Nanoseconds(), End: end.Sub(r.origin).Nanoseconds()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns the spans in ID order.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// writeNDJSON writes spans one JSON object per line.
func writeNDJSON(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return nil
}

// selfTimes returns each layer's self time in seconds — the duration
// of its spans minus the part of each interval its child spans cover —
// plus the summed duration of the root spans. The root layer's self
// time is the unclaimed time.
func selfTimes(spans []span) (self map[string]float64, rootS float64) {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self = map[string]float64{}
	for _, s := range spans {
		d := s.End - s.Start - covered(s, children[s.ID])
		self[s.Layer] += float64(d) / 1e9
		if s.Parent == 0 {
			rootS += float64(s.End-s.Start) / 1e9
		}
	}
	return self, rootS
}

// covered returns how much of parent's interval the union of the
// children's intervals covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// spanTotals sums span durations by "layer.name", in seconds.
func spanTotals(spans []span) map[string]float64 {
	out := map[string]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			out[s.Layer+"."+s.Name] += float64(s.End-s.Start) / 1e9
		}
	}
	return out
}
