package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// QuarantineDir is the subdirectory a scrub moves corrupt entries
// into, preserving the evidence for a postmortem instead of deleting
// it. Entries inside it are invisible to Get.
const QuarantineDir = "quarantine"

// Disk is the local-filesystem store: one enveloped JSON file per
// key. Writes are atomic (temp file in the same directory + rename),
// so a killed process or a concurrent node sharing the directory can
// never publish a torn entry; reads verify the envelope, so whatever
// does end up torn — or written by a different key schema — is a
// miss, not an error. Opening the store sweeps temp files orphaned by
// a crash between CreateTemp and Rename; Scrub additionally verifies
// every entry and quarantines the ones that fail.
type Disk struct {
	dir    string
	schema int
	counters
}

// NewDisk opens (creating if needed) a disk store rooted at dir whose
// entries are written under the given key schema, sweeping any
// orphaned temp files a previous crash left behind.
func NewDisk(dir string, schema int) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: disk dir: %w", err)
	}
	d := &Disk{dir: dir, schema: schema}
	d.sweepTmp()
	return d, nil
}

// sweepTmp removes `<key>.tmp*` files orphaned by a crash between
// CreateTemp and Rename. Safe at open: this process has no writes in
// flight yet, and a concurrent process's live temp file is recreated
// by its retry (Put treats a failed rename as a failed write).
func (d *Disk) sweepTmp() {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		d.errs.Add(1)
		return
	}
	for _, e := range entries {
		if e.IsDir() || !strings.Contains(e.Name(), ".tmp") {
			continue
		}
		if os.Remove(filepath.Join(d.dir, e.Name())) == nil {
			d.tmpSwept.Add(1)
		}
	}
}

// ScrubReport summarizes one Scrub pass.
type ScrubReport struct {
	// Scanned counts entries examined; Quarantined counts entries
	// moved to the quarantine directory (unparseable envelopes, sum or
	// key mismatches); SchemaSkipped counts entries left in place
	// because they belong to a different key schema (another build's
	// valid data is not this build's to destroy).
	Scanned       int `json:"scanned"`
	Quarantined   int `json:"quarantined"`
	SchemaSkipped int `json:"schema_skipped"`
	// TmpSwept counts orphaned temp files removed since open
	// (including the open-time sweep).
	TmpSwept int64 `json:"tmp_swept"`
}

// Scrub verifies every entry on disk: each envelope is re-opened
// (schema, key, recomputed payload SHA-256) and entries that fail —
// torn writes that slipped past rename, bit rot, tampering — are
// moved into QuarantineDir and counted, so a corrupt entry is
// discovered at startup instead of at first read, and the capacity it
// occupied is visibly lost rather than silently unreadable. Entries
// from other key schemas are skipped, not destroyed.
func (d *Disk) Scrub() (ScrubReport, error) {
	var rep ScrubReport
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		d.errs.Add(1)
		return rep, fmt.Errorf("store: scrub: %w", err)
	}
	qdir := filepath.Join(d.dir, QuarantineDir)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		rep.Scanned++
		key := strings.TrimSuffix(name, ".json")
		raw, rerr := os.ReadFile(filepath.Join(d.dir, name))
		verr := rerr
		if verr == nil {
			if !ValidKey(key) {
				verr = fmt.Errorf("%w: invalid key filename %q", ErrCorrupt, name)
			} else {
				_, verr = Open(d.schema, key, raw)
			}
		}
		if verr == nil {
			continue
		}
		if errors.Is(verr, ErrSchema) {
			rep.SchemaSkipped++
			continue
		}
		if err := os.MkdirAll(qdir, 0o755); err != nil {
			d.errs.Add(1)
			return rep, fmt.Errorf("store: scrub: quarantine dir: %w", err)
		}
		if err := os.Rename(filepath.Join(d.dir, name), filepath.Join(qdir, name)); err != nil {
			d.errs.Add(1)
			continue
		}
		d.classify(verr)
		d.quarantined.Add(1)
		rep.Quarantined++
	}
	rep.TmpSwept = d.tmpSwept.Load()
	return rep, nil
}

// Get reads and verifies the entry. Missing files, unreadable files,
// truncated or garbage envelopes, wrong-schema entries, and sum
// mismatches are all misses.
func (d *Disk) Get(ctx context.Context, key string) ([]byte, bool, error) {
	d.gets.Add(1)
	if !ValidKey(key) {
		d.misses.Add(1)
		return nil, false, nil
	}
	raw, err := os.ReadFile(d.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			d.misses.Add(1)
			return nil, false, nil
		}
		d.errs.Add(1)
		d.misses.Add(1)
		return nil, false, err
	}
	payload, err := Open(d.schema, key, raw)
	if err != nil {
		d.classify(err)
		d.misses.Add(1)
		return nil, false, nil
	}
	d.hits.Add(1)
	return payload, true, nil
}

// Put seals and atomically publishes the entry.
func (d *Disk) Put(ctx context.Context, key string, payload []byte) error {
	if !ValidKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	raw, err := Seal(d.schema, key, payload)
	if err != nil {
		d.errs.Add(1)
		return err
	}
	tmp, err := os.CreateTemp(d.dir, key+".tmp*")
	if err != nil {
		d.errs.Add(1)
		return err
	}
	_, werr := tmp.Write(raw)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		d.errs.Add(1)
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Rename(tmp.Name(), d.path(key)); err != nil {
		os.Remove(tmp.Name())
		d.errs.Add(1)
		return err
	}
	d.puts.Add(1)
	return nil
}

// Stat snapshots the counters.
func (d *Disk) Stat(ctx context.Context) (Stats, error) {
	return d.counters.snapshot("disk"), nil
}

// Close is a no-op: every Put already reached the filesystem.
func (d *Disk) Close() error { return nil }

func (d *Disk) path(key string) string {
	return filepath.Join(d.dir, key+".json")
}
