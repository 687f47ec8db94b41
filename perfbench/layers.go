package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"

	"dropscope"
	"dropscope/internal/analysis"
	"dropscope/internal/archive"
	"dropscope/internal/delta"
	"dropscope/internal/ingest"
	"dropscope/internal/rib"
	"dropscope/internal/ribsnap"
)

// experiment is one entry of the study's experiment suite, run through
// the pipeline's public method exactly as the facade's scheduler runs
// it, in the same serial order.
type experiment struct {
	name string
	run  func(p *analysis.Pipeline, r *dropscope.Results)
}

var experiments = []experiment{
	{"Fig1", func(p *analysis.Pipeline, r *dropscope.Results) { r.Fig1 = p.Fig1Classification() }},
	{"Fig2", func(p *analysis.Pipeline, r *dropscope.Results) { r.Fig2 = p.Fig2Visibility() }},
	{"Dealloc", func(p *analysis.Pipeline, r *dropscope.Results) { r.Dealloc = p.DeallocAnalysis() }},
	{"Table1", func(p *analysis.Pipeline, r *dropscope.Results) { r.Table1 = p.Table1RPKIUptake() }},
	{"Sec5", func(p *analysis.Pipeline, r *dropscope.Results) { r.Sec5 = p.Sec5IRR() }},
	{"Fig4", func(p *analysis.Pipeline, r *dropscope.Results) { r.Fig4 = p.Fig4RPKIValidHijacks() }},
	{"Fig5", func(p *analysis.Pipeline, r *dropscope.Results) { r.Fig5 = p.Fig5ROAStatus() }},
	{"Fig6", func(p *analysis.Pipeline, r *dropscope.Results) { r.Fig6 = p.Fig6UnallocatedTimeline() }},
	{"Fig7", func(p *analysis.Pipeline, r *dropscope.Results) { r.Fig7 = p.Fig7FreePools() }},
	{"Table2", func(p *analysis.Pipeline, r *dropscope.Results) { r.Table2 = p.Table2SBLBreakdown() }},
	{"ROV", func(p *analysis.Pipeline, r *dropscope.Results) { r.ROV = p.ROVCounterfactual() }},
	{"AS0WhatIf", func(p *analysis.Pipeline, r *dropscope.Results) { r.AS0WhatIf = p.AS0WhatIf() }},
	{"MaxLength", func(p *analysis.Pipeline, r *dropscope.Results) { r.MaxLength = p.MaxLengthAnalysis() }},
	{"PathEnd", func(p *analysis.Pipeline, r *dropscope.Results) { r.PathEnd = p.PathEndWithCase(r.Fig4.CasePrefix) }},
	{"Hijackers", func(p *analysis.Pipeline, r *dropscope.Results) { r.Hijackers = p.SerialHijackers(3, 0.5, 365) }},
	{"MOAS", func(p *analysis.Pipeline, r *dropscope.Results) { r.MOAS = p.MOASSweep() }},
}

// phaseStats are the Go runtime's counters over one traced phase.
type phaseStats struct {
	gcFrac  float64 // GC CPU ÷ non-idle CPU
	allocMB float64 // heap bytes allocated
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func runtimeDelta(a, b []metrics.Sample) phaseStats {
	f := func(i int) float64 { return b[i].Value.Float64() - a[i].Value.Float64() }
	busy := f(1) - f(2)
	ps := phaseStats{allocMB: float64(b[3].Value.Uint64()-a[3].Value.Uint64()) / (1 << 20)}
	if busy > 0 {
		ps.gcFrac = f(0) / busy
	}
	return ps
}

// batchTrace is what the in-process batch phases produced.
type batchTrace struct {
	digests  map[string][32]byte // phase → report digest
	runtime  map[string]phaseStats
	roots    map[string]int // phase → root span id
	warmHit  bool           // the warm phase adopted the snapshot
	deltaHit bool           // the append phase merged a delta
	writeMB  float64        // size of the snapshot the cold phase wrote
}

// inProcessBatch replays the facade's cold, warm and append loads in
// process, calling the layers' public functions in the facade's order
// (LoadStudyWithOptions, then the experiment suite serially, then
// Render), each inside a span of r. With r disabled it is the untraced
// twin the tracing overhead is measured against.
func inProcessBatch(r *recorder, a archives, cfg dropscope.Config) (*batchTrace, error) {
	bt := &batchTrace{digests: map[string][32]byte{}, runtime: map[string]phaseStats{}, roots: map[string]int{}}
	for _, d := range []string{a.base, a.grown} {
		if err := os.RemoveAll(filepath.Join(d, "ribsnap")); err != nil {
			return nil, err
		}
	}
	phase := func(name string, f func() ([]byte, error)) error {
		before := readRuntime()
		root := r.begin(name)
		report, err := f()
		r.end(root)
		bt.runtime[name] = runtimeDelta(before, readRuntime())
		bt.roots[name] = root
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		bt.digests[name] = sha256.Sum256(report)
		return nil
	}
	if err := phase("cold", func() ([]byte, error) { return coldLoad(r, a.base, cfg) }); err != nil {
		return nil, err
	}
	if fi, err := os.Stat(snapshotPath(a.base)); err == nil {
		bt.writeMB = float64(fi.Size()) / (1 << 20)
	}
	if err := phase("warm", func() ([]byte, error) {
		rep, hit, err := warmLoad(r, a.base, cfg)
		bt.warmHit = hit
		return rep, err
	}); err != nil {
		return nil, err
	}
	if err := copyFile(snapshotPath(a.base), snapshotPath(a.grown)); err != nil {
		return nil, err
	}
	if err := phase("append", func() ([]byte, error) {
		rep, hit, err := appendLoad(r, a.grown, cfg)
		bt.deltaHit = hit
		return rep, err
	}); err != nil {
		return nil, err
	}
	return bt, nil
}

func dataset(cfg dropscope.Config, b *archive.Bundle) analysis.Dataset {
	return analysis.Dataset{
		Window: cfg.Window,
		DROP:   b.DROP, SBL: b.SBL, IRR: b.IRR, RPKI: b.RPKI, RIR: b.RIR,
		MRT: b.MRT,
	}
}

// finish runs the experiment suite serially and renders the report.
func finish(r *recorder, p *analysis.Pipeline) ([]byte, error) {
	var res dropscope.Results
	res.Health = p.HealthReport()
	for _, e := range experiments {
		r.do("analysis.exp."+e.name, func() { e.run(p, &res) })
	}
	var buf bytes.Buffer
	var err error
	r.do("report.render", func() { err = res.Render(&buf) })
	return buf.Bytes(), err
}

// coldLoad is the first load of an archive: digest the MRT files, miss
// the snapshot, parse everything, build the pipeline, persist the
// snapshot with its lineage.
func coldLoad(r *recorder, dir string, cfg dropscope.Config) ([]byte, error) {
	h := ingest.NewHealth()
	var (
		cur    []ribsnap.ArchiveCursor
		digest [32]byte
		err    error
	)
	r.do("ribsnap.digest", func() {
		cur, err = ribsnap.ArchiveCursors(filepath.Join(dir, "mrt"))
		digest = ribsnap.DigestCursors(cur)
	})
	if err != nil {
		return nil, err
	}
	var b *archive.Bundle
	r.do("archive.load", func() { b, err = archive.LoadWithOptions(dir, archive.LoadOptions{Health: h}) })
	if err != nil {
		return nil, err
	}
	var p *analysis.Pipeline
	r.do("analysis.new", func() { p, err = analysis.NewWithOptions(dataset(cfg, b), analysis.Options{Lenient: true, Health: h}) })
	if err != nil {
		return nil, err
	}
	r.do("ribsnap.write", func() { err = writeSnapshot(snapshotPath(dir), p, b, cfg, h, digest, cur) })
	if err != nil {
		return nil, err
	}
	return finish(r, p)
}

// writeSnapshot persists the cold-built index with its lineage, as the
// facade does after a clean cold build.
func writeSnapshot(path string, p *analysis.Pipeline, b *archive.Bundle, cfg dropscope.Config, h *ingest.Health, digest [32]byte, cur []ribsnap.ArchiveCursor) error {
	ix, ok := p.Index.(*rib.Index)
	if !ok {
		return fmt.Errorf("pipeline index is %T, not a single index", p.Index)
	}
	f, err := ix.Frozen()
	if err != nil {
		return err
	}
	var counts []ribsnap.CollectorCount
	for _, c := range sortedKeys(b.MRT) {
		counts = append(counts, ribsnap.CollectorCount{Collector: c, Records: h.Source("mrt/" + c).Records})
	}
	return ribsnap.WriteLineage(path, f, cfg.Window, digest, counts, &ribsnap.Lineage{MaxDay: f.MaxDay, Cursors: cur})
}

// overSnapshot builds the pipeline over an adopted snapshot: the text
// substrates are parsed (MRT skipped) and the snapshot's index is used
// as is; the snapshot's per-collector counts are replayed into the
// health accounting as the facade does.
func overSnapshot(r *recorder, dir string, cfg dropscope.Config, snap *ribsnap.Snapshot) ([]byte, error) {
	h := ingest.NewHealth()
	var (
		b   *archive.Bundle
		err error
	)
	r.do("archive.text", func() { b, err = archive.LoadWithOptions(dir, archive.LoadOptions{Health: h, SkipMRT: true}) })
	if err != nil {
		return nil, err
	}
	var p *analysis.Pipeline
	r.do("analysis.new", func() {
		p, err = analysis.NewWithOptions(dataset(cfg, b), analysis.Options{Lenient: true, Health: h, Index: snap.Index})
	})
	if err != nil {
		return nil, err
	}
	for _, c := range snap.Counts {
		h.Source("mrt/" + c.Collector).Accept(c.Records)
	}
	return finish(r, p)
}

// warmLoad is a repeat load: digest, map the matching snapshot, parse
// only the text substrates. hit is false when the snapshot was not
// adopted (the load then goes cold).
func warmLoad(r *recorder, dir string, cfg dropscope.Config) (report []byte, hit bool, err error) {
	var digest [32]byte
	r.do("ribsnap.digest", func() {
		var cur []ribsnap.ArchiveCursor
		cur, err = ribsnap.ArchiveCursors(filepath.Join(dir, "mrt"))
		digest = ribsnap.DigestCursors(cur)
	})
	if err != nil {
		return nil, false, err
	}
	var snap *ribsnap.Snapshot
	r.do("ribsnap.map", func() { snap, err = ribsnap.Load(snapshotPath(dir), digest) })
	if err != nil {
		report, err = coldLoad(r, dir, cfg)
		return report, false, err
	}
	defer snap.Close()
	report, err = overSnapshot(r, dir, cfg, snap)
	return report, true, err
}

// appendLoad is the -append load of a grown archive over the base's
// snapshot: map the base, decode and merge only the appended MRT bytes,
// persist and re-map the merged index, parse the text substrates. hit
// is false when the delta was declined (the load then goes cold).
func appendLoad(r *recorder, dir string, cfg dropscope.Config) (report []byte, hit bool, err error) {
	path := snapshotPath(dir)
	var base *ribsnap.Snapshot
	r.do("ribsnap.map", func() { base, err = ribsnap.LoadAt(path) })
	if err != nil {
		report, err = coldLoad(r, dir, cfg)
		return report, false, err
	}
	var res *delta.Result
	r.do("delta.build", func() {
		var f *rib.Frozen
		if f, err = base.Index.Frozen(); err == nil {
			res, err = delta.Build(filepath.Join(dir, "mrt"), f, base.Lineage, base.Counts, base.Window, cfg.Window, base.Digest)
		}
	})
	if err == nil {
		r.do("ribsnap.write", func() { err = ribsnap.WriteLineage(path, res.Frozen, cfg.Window, res.Digest, res.Counts, res.Lineage) })
	}
	base.Close()
	if err != nil {
		report, err = coldLoad(r, dir, cfg)
		return report, false, err
	}
	var snap *ribsnap.Snapshot
	r.do("ribsnap.map", func() { snap, err = ribsnap.Load(path, res.Digest) })
	if err != nil {
		return nil, false, err
	}
	defer snap.Close()
	report, err = overSnapshot(r, dir, cfg, snap)
	return report, true, err
}
