package main

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"dropscope"
	"dropscope/internal/drop"
	"dropscope/internal/irr"
	"dropscope/internal/mrt"
	"dropscope/internal/rib"
	"dropscope/internal/rirstats"
	"dropscope/internal/rpki"
	"dropscope/internal/sbl"
)

// substrate is the decomposition of one layer's share of a cold
// archive load: time inside its public parser, bytes read, records
// produced, and — for the day-snapshot substrates — how many of those
// records changed since the previous day.
type substrate struct {
	parse          time.Duration
	bytes          int64
	records        int
	changed, since int // changed records, records parsed on days after the first
}

func (s substrate) changedRatio() float64 {
	if s.since == 0 {
		return 0
	}
	return float64(s.changed) / float64(s.since)
}

// decomposition is the cold archive load taken apart layer by layer.
type decomposition struct {
	rir, roa, drp, irrs, sbls, mrts substrate
	ribBuild, ribFreeze             time.Duration
	prefixes                        int
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// listDir returns the sorted names in dir (the archive's day
// directories and files sort chronologically by name).
func listDir(dir string) ([]string, error) {
	es, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(es))
	for _, e := range es {
		out = append(out, e.Name())
	}
	sort.Strings(out)
	return out, nil
}

// readAll reads a whole file; parsers are then timed over the bytes,
// so disk reads (from the page cache here) stay out of parse time.
func readAll(path string, s *substrate) ([]byte, error) {
	b, err := os.ReadFile(path)
	s.bytes += int64(len(b))
	return b, err
}

// decompose times each substrate's public parser over that substrate's
// files of the archive at dir, in the archive loader's order, then
// decodes the MRT files and builds, closes and freezes the RIB index
// from them as the pipeline does.
func decompose(r *recorder, dir string, cfg dropscope.Config) (*decomposition, error) {
	var d decomposition
	var err error
	r.do("decompose.mrt", func() { err = decomposeMRT(r, dir, cfg, &d) })
	if err != nil {
		return nil, err
	}
	r.do("drop.parse", func() { err = decomposeDROP(dir, &d.drp) })
	if err != nil {
		return nil, err
	}
	r.do("sbl.parse", func() {
		var b []byte
		if b, err = readAll(filepath.Join(dir, "sbl", "records.txt"), &d.sbls); err != nil {
			return
		}
		db := sbl.NewDB()
		t0 := time.Now()
		err = sbl.ParseStore(bytes.NewReader(b), db)
		d.sbls.parse += time.Since(t0)
		d.sbls.records = db.Len()
	})
	if err != nil {
		return nil, err
	}
	r.do("irr.parse", func() {
		var b []byte
		if b, err = readAll(filepath.Join(dir, "irr", "journal.rpsl"), &d.irrs); err != nil {
			return
		}
		t0 := time.Now()
		var db *irr.DB
		db, err = irr.ParseJournal(b)
		d.irrs.parse += time.Since(t0)
		if err == nil {
			d.irrs.records = db.Len()
		}
	})
	if err != nil {
		return nil, err
	}
	r.do("rpki.parse", func() { err = decomposeRPKI(dir, &d.roa) })
	if err != nil {
		return nil, err
	}
	r.do("rirstats.parse", func() { err = decomposeRIRStats(dir, &d.rir) })
	if err != nil {
		return nil, err
	}
	return &d, nil
}

func decomposeMRT(r *recorder, dir string, cfg dropscope.Config, d *decomposition) error {
	mdir := filepath.Join(dir, "mrt")
	names, err := listDir(mdir)
	if err != nil {
		return err
	}
	streams := map[string][]mrt.Record{}
	r.do("mrt.decode", func() {
		for _, n := range names {
			c, ok := strings.CutSuffix(n, ".mrt")
			if !ok {
				continue
			}
			var b []byte
			if b, err = readAll(filepath.Join(mdir, n), &d.mrts); err != nil {
				return
			}
			t0 := time.Now()
			var recs []mrt.Record
			recs, err = mrt.ReadAll(bufio.NewReader(bytes.NewReader(b)))
			d.mrts.parse += time.Since(t0)
			if err != nil {
				return
			}
			d.mrts.records += len(recs)
			streams[c] = recs
		}
	})
	if err != nil {
		return err
	}
	ix := rib.NewIndex()
	r.do("rib.build", func() {
		t0 := time.Now()
		for _, c := range sortedKeys(streams) {
			if err = ix.Load(c, streams[c]); err != nil {
				return
			}
		}
		d.ribBuild = time.Since(t0)
	})
	if err != nil {
		return err
	}
	r.do("rib.freeze", func() {
		t0 := time.Now()
		ix.Close(cfg.Window.Last)
		_, err = ix.Frozen()
		d.ribFreeze = time.Since(t0)
	})
	d.prefixes = ix.NumPrefixes()
	return err
}

func decomposeDROP(dir string, s *substrate) error {
	ddir := filepath.Join(dir, "drop")
	names, err := listDir(ddir)
	if err != nil {
		return err
	}
	for _, n := range names {
		b, err := readAll(filepath.Join(ddir, n), s)
		if err != nil {
			return err
		}
		t0 := time.Now()
		es, err := drop.Parse(bytes.NewReader(b))
		s.parse += time.Since(t0)
		if err != nil {
			return err
		}
		s.records += len(es)
	}
	return nil
}

// decomposeRPKI parses every daily ROA snapshot; a ROA counts as
// changed when the previous day's snapshot did not hold it.
func decomposeRPKI(dir string, s *substrate) error {
	rdir := filepath.Join(dir, "rpki")
	names, err := listDir(rdir)
	if err != nil {
		return err
	}
	var prev map[rpki.ROA]bool
	for _, n := range names {
		b, err := readAll(filepath.Join(rdir, n), s)
		if err != nil {
			return err
		}
		t0 := time.Now()
		roas, err := rpki.ParseSnapshotCSV(bytes.NewReader(b))
		s.parse += time.Since(t0)
		if err != nil {
			return err
		}
		s.records += len(roas)
		cur := make(map[rpki.ROA]bool, len(roas))
		for _, roa := range roas {
			cur[roa] = true
			if prev != nil && !prev[roa] {
				s.changed++
			}
		}
		if prev != nil {
			s.since += len(roas)
		}
		prev = cur
	}
	return nil
}

// decomposeRIRStats parses every daily delegated-extended file of every
// registry; a record counts as changed when the previous day's file of
// its registry did not carry the same block with the same status.
func decomposeRIRStats(dir string, s *substrate) error {
	rdir := filepath.Join(dir, "rirstats")
	days, err := listDir(rdir)
	if err != nil {
		return err
	}
	type key struct {
		reg   rirstats.RIR
		start string
		count uint64
	}
	var prev map[key]rirstats.Status
	for _, day := range days {
		files, err := listDir(filepath.Join(rdir, day))
		if err != nil {
			return err
		}
		cur := map[key]rirstats.Status{}
		for _, f := range files {
			b, err := readAll(filepath.Join(rdir, day, f), s)
			if err != nil {
				return err
			}
			t0 := time.Now()
			recs, err := rirstats.ParseFile(bytes.NewReader(b))
			s.parse += time.Since(t0)
			if err != nil {
				return err
			}
			s.records += len(recs)
			for _, rec := range recs {
				k := key{rec.Registry, rec.Start.String(), rec.Count}
				cur[k] = rec.Status
				if prev != nil {
					if st, ok := prev[k]; !ok || st != rec.Status {
						s.changed++
					}
				}
			}
			if prev != nil {
				s.since += len(recs)
			}
		}
		prev = cur
	}
	return nil
}
