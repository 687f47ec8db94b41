package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"dropscope"
	"dropscope/internal/analysis"
	"dropscope/internal/mrt"
	"dropscope/internal/ribsnap"
)

// workload is one input shape. The program under test only ever sees
// the archive directories set-up writes from it.
type workload struct {
	name string
	// scale is the background population divisor (dropscope -scale).
	scale int
	// volume is the AmplifyVolume churn target applied before the base
	// archive is written (0 = none).
	volume int
	why    string
}

// churnSeed seeds the volume workload's base amplification. The world
// it amplifies varies with the run's seed, but the churn's size does
// not: AmplifyVolume draws each collector's record count from a
// lognormal (σ = 0.6), so across seeds the total ranges over 2.5x
// (244k–622k records over seeds 1–8 at scale 4096, volume 49152), and a
// run's timings would measure that draw rather than the program. The
// collectors and peers it draws over are fixed by the scale, so a fixed
// seed fixes the total (241,192 records at volume 32768).
const churnSeed = 1

// growth is the AmplifyVolume target of the day-N+1 append that turns
// the base archive into the grown one; its MRT files are byte-prefix
// supersets of the base's.
const growth = 64

var workloads = []workload{
	{name: "text", scale: 1024,
		why: "RIR-stats parsing dominates every load and MRT decode, index build, snapshot and delta are a few percent: shows text-parsing gains, bypasses index gains"},
	{name: "volume", scale: 4096, volume: 32768,
		why: "241k churn records put MRT decode, index build and the Hijackers OriginTimeline sweep ahead of text parsing in a cold load; warm and append skip the decode and build"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) config(seed int64) dropscope.Config {
	cfg := dropscope.DefaultConfig()
	cfg.Scale = w.scale
	cfg.Seed = seed
	return cfg
}

// archives are the inputs of one run plus the independent references
// every output is checked against.
type archives struct {
	base, grown string
	// baseRef and grownRef are SHA-256 digests of the report rendered
	// in memory from the generated world — no archive parsing, no
	// snapshot, no delta — for the base and the grown archive state.
	baseRef, grownRef [32]byte
	// unamplifiedRef is the report of the world before any volume
	// amplification (equal to baseRef when volume is 0).
	unamplifiedRef [32]byte
	// grownGen is the grown archive's generation digest, as the daemon
	// reports it once a reload has picked the growth up.
	grownGen string
}

func newArchives(dir string) archives {
	return archives{base: filepath.Join(dir, "base"), grown: filepath.Join(dir, "grown")}
}

// generate generates the workload's world and writes the base and
// grown archives, replacing any earlier ones, and returns the wall time
// of generation and writing. With refs it also renders the in-memory
// reference reports and records the grown archive's generation digest,
// outside the timed spans. The archives are a pure function of the
// workload and the seed, so a later repetition rewrites them byte for
// byte and the references stay valid; sameGen reports whether the
// grown archive's digest still matches the recorded one.
func (a *archives) generate(w workload, seed int64, refs bool) (secs float64, sameGen bool, err error) {
	cfg := w.config(seed)
	for _, d := range []string{a.base, a.grown} {
		if err := os.RemoveAll(d); err != nil {
			return 0, false, err
		}
	}
	// Commit the removals (and any earlier run's) before the clock
	// starts: on a filesystem mounted with discard, the journal commit
	// that frees their blocks stalls the writes that follow.
	syscall.Sync()
	runtime.GC()
	t0 := time.Now()
	study, err := dropscope.NewStudy(cfg)
	if err != nil {
		return 0, false, err
	}
	var timed time.Duration
	if refs {
		timed += time.Since(t0)
		if a.unamplifiedRef, err = renderDigest(study); err != nil {
			return 0, false, err
		}
		t0 = time.Now()
	}
	if w.volume > 0 {
		study.AmplifyVolume(w.volume, churnSeed)
	}
	if err := study.WriteArchives(a.base); err != nil {
		return 0, false, err
	}
	if refs {
		timed += time.Since(t0)
		a.baseRef = a.unamplifiedRef
		if w.volume > 0 {
			if a.baseRef, err = rebuiltDigest(study, cfg); err != nil {
				return 0, false, err
			}
		}
		t0 = time.Now()
	}
	study.AmplifyVolume(growth, seed+1)
	if err := writeGrown(a.base, a.grown, study.World.MRT); err != nil {
		return 0, false, err
	}
	timed += time.Since(t0)
	// Flush the archives to the device before anything else is timed:
	// left dirty, they would be written back during a load or inside
	// the first load's snapshot fsync.
	syscall.Sync()
	if refs {
		if a.grownRef, err = rebuiltDigest(study, cfg); err != nil {
			return 0, false, err
		}
	}
	cur, err := ribsnap.ArchiveCursors(filepath.Join(a.grown, "mrt"))
	if err != nil {
		return 0, false, err
	}
	d := ribsnap.DigestCursors(cur)
	gen := hex.EncodeToString(d[:])
	if refs {
		a.grownGen = gen
	}
	return timed.Seconds(), gen == a.grownGen, nil
}

// renderDigest renders the study's report and hashes it.
func renderDigest(s *dropscope.Study) ([32]byte, error) {
	var buf bytes.Buffer
	if err := s.Results().Render(&buf); err != nil {
		return [32]byte{}, fmt.Errorf("render reference: %w", err)
	}
	return sha256.Sum256(buf.Bytes()), nil
}

// rebuiltDigest is renderDigest over the study's world as it stands
// now. A study does not rebuild its pipeline when AmplifyVolume grows
// its world, so the pipeline is built afresh from the in-memory world —
// the same construction NewStudy uses, over the records the archives
// were just written from.
func rebuiltDigest(s *dropscope.Study, cfg dropscope.Config) ([32]byte, error) {
	w := s.World
	p, err := analysis.NewWithConcurrency(analysis.Dataset{
		Window: cfg.Window,
		DROP:   w.DROP, SBL: w.SBL, IRR: w.IRR, RPKI: w.RPKI, RIR: w.RIR,
		MRT: w.MRT,
	}, 0)
	if err != nil {
		return [32]byte{}, fmt.Errorf("reference pipeline: %w", err)
	}
	return renderDigest(&dropscope.Study{World: w, Pipeline: p})
}

// writeGrown writes the grown archive: AmplifyVolume changes only the
// MRT streams, so the text substrates WriteArchives would write are
// byte-identical to the base's and are hard-linked from it; the MRT
// files are encoded as the archive writer encodes them, one file per
// collector.
func writeGrown(base, grown string, streams map[string][]mrt.Record) error {
	if err := linkTree(base, grown); err != nil {
		return err
	}
	for _, name := range sortedKeys(streams) {
		path := filepath.Join(grown, "mrt", name+".mrt")
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return err
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		bw := bufio.NewWriter(f)
		w := mrt.NewWriter(bw)
		for _, rec := range streams[name] {
			if err = w.Write(rec); err != nil {
				break
			}
		}
		if err == nil {
			err = bw.Flush()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	return nil
}

// copyFile copies src to dst through a temporary file and a rename, so
// a reader never sees a half-written dst.
func copyFile(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	tmp := dst + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, dst)
}

// linkTree mirrors the archive at src into dst with hard links (copies
// where linking fails), leaving out the snapshot directory. Files are
// only ever replaced by rename, so the links never alias a write.
func linkTree(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		if d.IsDir() && rel == "ribsnap" {
			return filepath.SkipDir
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if err := os.Link(p, target); err != nil {
			return copyFile(p, target)
		}
		return nil
	})
}
