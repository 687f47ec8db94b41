// Command perfbench is dropscope's end-to-end benchmark. Each run
// generates a workload's archives from its seed, then measures what a
// user of dropscope waits for: the wall time and peak memory of cold,
// warm and append loads of the dropscope CLI, and the boot and delta
// reload of the dropscoped daemon. Every report and a fixed sample of
// daemon answers is checked against references built in memory from
// the generated world.
//
// With -trace 1 the run instead times the calls into each layer's
// public functions in process, from this package's own code, drives the
// daemon through open- and closed-loop query load, and prints per-layer
// metrics.
//
// Run it from the repository root through run.sh, which builds the
// binaries it drives:
//
//	bash perfbench/run.sh --workload text --seed 1 --seconds 24 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. Progress goes to standard error.
package main

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dropscope"
	"dropscope/internal/serve"
	"dropscope/internal/timex"
)

// defaultSeed is the seed whose report digests are stored in refs.go.
const defaultSeed = 1

func main() {
	if len(os.Args) > 2 && os.Args[1] == spawnFlag {
		spawnMain(os.Args[2:])
		return
	}
	if len(os.Args) == 2 && os.Args[1] == calibFlag {
		calibrateMain()
		return
	}
	var (
		root     = flag.String("root", ".", "repository checkout the benchmark runs in")
		bin      = flag.String("bin", "", "directory holding the built dropscope and dropscoped binaries")
		name     = flag.String("workload", "", "workload name")
		seed     = flag.Int64("seed", defaultSeed, "workload seed")
		seconds  = flag.Int("seconds", 24, "measurement length: an end-to-end run makes seconds/8 cycles (at least two) of one set-up repetition, one batch cycle and one daemon session each; a traced run's nine timed load segments last seconds/16 each (at least 1s)")
		traceArg = flag.Int("trace", 0, "1 = traced per-layer run instead of the end-to-end run")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		fatalf("-seconds must be at least 1")
	}
	if *traceArg != 0 && *traceArg != 1 {
		fatalf("-trace must be 0 or 1")
	}
	b := &bench{
		w:      w,
		cycles: max(*seconds/8, 2),
		seed:   *seed,
		bin:    *bin,
		work:   filepath.Join(*root, ".bench_work", fmt.Sprintf("%s-%d", w.name, *seed)),
		spans:  filepath.Join(*root, ".bench_work", fmt.Sprintf("spans-%s-%d.json", w.name, *seed)),
	}
	b.plan = servePlan{
		conns:     runtime.NumCPU(),
		lightRate: 2000,
		heavyRate: 4000,
		rounds:    3,
		seg:       max(time.Duration(*seconds)*time.Second/16, time.Second),
		// The warm-up also lets the boot's tail work settle before
		// the reload, as it has when a daemon reloads long after boot;
		// in one comparison, reloads after a 0.3 s warm-up spread
		// twice as much (NOTES.md).
		warmup:     1200 * time.Millisecond,
		reloadTail: 100 * time.Millisecond,
		seed:       uint64(*seed),
	}
	if err := os.RemoveAll(b.work); err != nil {
		fatalf("%v", err)
	}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		fatalf("%v", err)
	}
	var (
		m   map[string]float64
		err error
	)
	if *traceArg == 1 {
		m, err = b.traced()
	} else {
		m, err = b.endToEnd()
	}
	_ = os.RemoveAll(b.work)
	if err != nil {
		fatalf("%v", err)
	}
	defs := endToEnd
	if *traceArg == 1 {
		defs = perLayer()
	}
	out, err := result(defs, m, &b.t)
	if err != nil {
		fatalf("%v", err)
	}
	logf("%d operations, %d failed (fail_frac %.4g)", b.t.attempted, b.t.failed, b.t.failFrac())
	fmt.Println(string(out))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// bench is one run's state.
type bench struct {
	w      workload
	cycles int // cycles of an end-to-end run
	seed   int64
	bin    string
	work   string
	spans  string
	plan   servePlan
	t      tally
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result encodes the run's summary line. Every metric of defs must have
// been measured, as a finite number.
func result(defs []metricDef, m map[string]float64, t *tally) ([]byte, error) {
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{t.failed == 0, t.attempted, t.failed, map[string]metricValue{}}
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured (%v)", d.Name, v)
		}
		out.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	return json.Marshal(out)
}

// checkAnchor compares the run's references with the digests stored
// for the default seed, so a defect shared by every load mode and by
// the in-memory reference still fails the run. At the default seed the
// run's own references are compared: the generated study's report and
// the base and grown archive states'. At any other seed the default
// seed's study is generated and rendered in memory (it needs no
// archives) and its report compared, untimed.
func (b *bench) checkAnchor(a archives) error {
	want, ok := storedRefs[b.w.name]
	if !ok {
		logf("no stored digests for %s; this run's: study %x base %x grown %x", b.w.name, a.unamplifiedRef, a.baseRef, a.grownRef)
		b.t.op(false)
		return nil
	}
	check := func(what string, got [32]byte, want string) {
		ok := hex.EncodeToString(got[:]) == want
		b.t.op(ok)
		if !ok {
			logf("%s report digest %x differs from the stored %s", what, got, want)
		}
	}
	if b.seed == defaultSeed {
		check("study", a.unamplifiedRef, want.study)
		check("base", a.baseRef, want.base)
		check("grown", a.grownRef, want.grown)
		return nil
	}
	study, err := dropscope.NewStudy(b.w.config(defaultSeed))
	if err != nil {
		return fmt.Errorf("default-seed study: %w", err)
	}
	d, err := renderDigest(study)
	if err != nil {
		return err
	}
	check(fmt.Sprintf("seed-%d study", defaultSeed), d, want.study)
	return nil
}

// setupRep is one timed set-up repetition: it (re)writes the run's
// archives and returns its wall time. The first repetition also builds
// the references and checks them against the stored digests; later
// ones check that the rewritten archives are the same.
func (b *bench) setupRep(a *archives, first bool) (float64, error) {
	secs, same, err := a.generate(b.w, b.seed, first)
	if err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	logf("set-up: %.3f s", secs)
	if !first {
		b.t.op(same)
		if !same {
			logf("set-up repetition wrote a grown archive that differs from the first")
		}
		return secs, nil
	}
	if a.unamplifiedRef != a.baseRef {
		// A known program defect: volume amplification is documented to
		// leave the study's results unchanged, but it changes them.
		logf("volume amplification changed the report: %x before, %x after", a.unamplifiedRef[:8], a.baseRef[:8])
	}
	return secs, b.checkAnchor(*a)
}

// serveReferences builds the request ring over the base generation,
// picks its fixed sample, and renders the sample's expected answers in
// process: over base, and over a generation of the grown archive that
// is always built cold, so the daemon's delta reload is checked against
// a build that shares none of its delta path. withBase, when non-nil,
// is handed the base server and the ring before the generations are
// dropped — they are large, and the load generator should not carry
// them through its own garbage collections.
func (b *bench) serveReferences(a archives, base *serve.Generation, window timex.Range, withBase func(*serve.Server, []string)) (serveRefs, error) {
	refs := serveRefs{ring: serve.RequestMix(base, uint64(b.seed), 4096)}
	refs.sample = responseSample(refs.ring, 64)
	srv := serve.New(base)
	refs.base = expectedAnswers(srv, refs.sample)
	if withBase != nil {
		withBase(srv, refs.ring)
	}
	grown, err := serve.Load(a.grown, serve.LoadOptions{Window: window})
	if err != nil {
		return refs, fmt.Errorf("in-process grown generation: %w", err)
	}
	refs.grown = expectedAnswers(serve.New(grown), refs.sample)
	runtime.GC()
	return refs, nil
}

// endToEnd is the untraced run: the end-to-end metrics. It makes
// b.cycles cycles, each a set-up repetition, a batch cycle and a daemon
// session: boot over the base archive, then the delta reload onto the
// grown archive under light load. The daemon is stopped before the next
// cycle, so nothing the run times shares the CPU with it. Spreading the
// set-up repetitions over the run, rather than making them back to
// back, keeps a short burst of host noise to one of them. A
// calibration probe runs before each batch cycle and each session, and
// every time is reported at the reference speed: its median over the
// run times calibRefSecs over the probes' median.
func (b *bench) endToEnd() (map[string]float64, error) {
	a := newArchives(b.work)
	cfg := b.w.config(b.seed)
	bin := filepath.Join(b.bin, "dropscope")
	var (
		bs                       batchSamples
		setupSecs, boots, reload []float64
		probes                   []float64
		refs                     serveRefs
	)
	calib := func() error {
		s, err := probe()
		if err == nil {
			probes = append(probes, s)
		}
		return err
	}
	for i := 0; i < b.cycles; i++ {
		secs, err := b.setupRep(&a, i == 0)
		if err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, secs)
		n := len(bs.cold)
		if err := calib(); err != nil {
			return nil, err
		}
		if err := batchCycle(bin, a, &bs, &b.t, logf); err != nil {
			return nil, err
		}
		if len(bs.cold) == n || len(bs.warm) == n || len(bs.app) == n {
			return nil, fmt.Errorf("a batch phase failed")
		}
		if i == 0 {
			// The first cycle left the base archive's snapshot behind;
			// the in-process base reference maps it rather than
			// rebuilding cold.
			baseGen, err := serve.Load(a.base, serve.LoadOptions{Window: cfg.Window, SnapshotDir: filepath.Join(a.base, "ribsnap")})
			if err != nil {
				return nil, fmt.Errorf("in-process base generation: %w", err)
			}
			if refs, err = b.serveReferences(a, baseGen, cfg.Window, nil); err != nil {
				return nil, err
			}
		}
		if err := calib(); err != nil {
			return nil, err
		}
		so, err := b.session(a, refs)
		if err != nil {
			return nil, err
		}
		boots, reload = append(boots, so.bootS), append(reload, so.reloadS)
	}
	logf("set-up: %d repetitions; %.3v s", len(setupSecs), setupSecs)
	logf("batch: %d cycles; cold %.3v s, warm %.3v s, append %.3v s", len(bs.cold), bs.cold, bs.warm, bs.app)
	logf("daemon: %d sessions; boot %.3v s, reload %.3v s", len(boots), boots, reload)
	logf("calibration probes, in run order: %.4v s", probes)
	// Every time is reported at the reference speed (see calibrate.go).
	speed := calibRefSecs / median(probes)
	logf("calibration: %d probes, median %.4f s (reference %.3f s): wall-time medians are scaled by %.4f; unscaled: set-up %.4f, cold %.4f, warm %.4f, append %.4f, boot %.4f, reload %.4f s",
		len(probes), median(probes), calibRefSecs, speed,
		median(setupSecs), median(bs.cold), median(bs.warm), median(bs.app), median(boots), median(reload))
	return map[string]float64{
		"setup_s":       median(setupSecs) * speed,
		"cold_s":        median(bs.cold) * speed,
		"cold_rss_mb":   median(bs.coldRSS),
		"warm_s":        median(bs.warm) * speed,
		"warm_rss_mb":   median(bs.warmRSS),
		"append_s":      median(bs.app) * speed,
		"append_rss_mb": median(bs.appRSS),
		"boot_s":        median(boots) * speed,
		"reload_s":      median(reload) * speed,
	}, nil
}

// session boots the daemon over the base archive, reloads it onto the
// grown archive, and stops it.
func (b *bench) session(a archives, refs serveRefs) (serveOut, error) {
	s, err := startSession(filepath.Join(b.bin, "dropscoped"), b.work, a, refs, b.plan, &b.t)
	if err != nil {
		return serveOut{}, err
	}
	defer s.close()
	if err := s.reload(); err != nil {
		return serveOut{}, err
	}
	s.logPhases()
	return s.out, nil
}
