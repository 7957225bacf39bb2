package store

import (
	"errors"
	"sync/atomic"
)

// counters is the shared atomic counter block embedded by every
// implementation.
type counters struct {
	gets, hits, misses, puts atomic.Int64
	errs                     atomic.Int64
	integrityRej, schemaRej  atomic.Int64
	corrupt                  atomic.Int64
	promotes, wbDrops        atomic.Int64
	quarantined, tmpSwept    atomic.Int64
}

// snapshot fills a Stats with the current counter values.
func (c *counters) snapshot(name string) Stats {
	return Stats{
		Name:             name,
		Gets:             c.gets.Load(),
		Hits:             c.hits.Load(),
		Misses:           c.misses.Load(),
		Puts:             c.puts.Load(),
		Errors:           c.errs.Load(),
		IntegrityRejects: c.integrityRej.Load(),
		SchemaRejects:    c.schemaRej.Load(),
		Corrupt:          c.corrupt.Load(),
		Promotes:         c.promotes.Load(),
		WritebackDrops:   c.wbDrops.Load(),
		ScrubQuarantined: c.quarantined.Load(),
		TmpSwept:         c.tmpSwept.Load(),
	}
}

// classify bumps the counter matching an envelope-verification
// failure. It does not count the miss — callers decide whether the
// failed entry ends the lookup (disk) or the search continues (peer).
func (c *counters) classify(err error) {
	switch {
	case err == nil:
	case errors.Is(err, ErrSchema):
		c.schemaRej.Add(1)
	case errors.Is(err, ErrIntegrity):
		c.integrityRej.Add(1)
	case errors.Is(err, ErrCorrupt):
		c.corrupt.Add(1)
	default:
		c.errs.Add(1)
	}
}
