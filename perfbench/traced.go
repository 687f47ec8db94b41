package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"dropscope/internal/serve"
)

// traced is the per-layer run. It replays the batch loads in process
// four times — twice untraced and twice traced, for the tracing
// overhead — takes a
// cold archive load apart substrate by substrate, times the serving
// layer's load and handlers in process, and drives the daemon through
// the serving phases for its own counters.
func (b *bench) traced() (map[string]float64, error) {
	a := newArchives(b.work)
	if _, err := b.setupRep(&a, true); err != nil {
		return nil, err
	}
	cfg := b.w.config(b.seed)
	m := map[string]float64{}
	msOf := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

	// The replays run untraced, traced, traced, untraced, so a drift of
	// the host's speed through the sequence weighs on both variants
	// alike; the first traced replay's spans are the ones reported.
	rec := newRecorder(fmt.Sprintf("%s-%d", b.w.name, b.seed), true)
	var (
		bt                 *batchTrace
		untraced, withSpan time.Duration
	)
	for i, r := range []*recorder{newRecorder("untraced", false), rec, newRecorder("traced", true), newRecorder("untraced", false)} {
		runtime.GC()
		t0 := time.Now()
		out, err := inProcessBatch(r, a, cfg)
		if err != nil {
			return nil, err
		}
		if r.on {
			withSpan += time.Since(t0)
		} else {
			untraced += time.Since(t0)
		}
		for phase, want := range map[string][32]byte{"cold": a.baseRef, "warm": a.baseRef, "append": a.grownRef} {
			ok := out.digests[phase] == want
			b.t.op(ok)
			if !ok {
				logf("in-process replay %d, %s: report differs from the in-memory reference", i, phase)
			}
		}
		if i == 1 {
			bt = out
		}
	}
	m["trace.overhead_frac"] = withSpan.Seconds()/untraced.Seconds() - 1

	sp := func(phase, layer string) float64 { return msOf(sumByName(rec.spans, bt.roots[phase], layer)) }
	m["cold.archive.load_ms"] = sp("cold", "archive.load")
	m["warm.archive.text_ms"] = sp("warm", "archive.text")
	m["append.archive.text_ms"] = sp("append", "archive.text")
	m["cold.ribsnap.digest_ms"] = sp("cold", "ribsnap.digest")
	m["cold.ribsnap.write_ms"] = sp("cold", "ribsnap.write")
	m["ribsnap.write_mb"] = bt.writeMB
	m["warm.ribsnap.digest_ms"] = sp("warm", "ribsnap.digest")
	m["warm.ribsnap.map_ms"] = sp("warm", "ribsnap.map")
	m["append.ribsnap.map_ms"] = sp("append", "ribsnap.map")
	m["append.ribsnap.write_ms"] = sp("append", "ribsnap.write")
	m["ribsnap.hit_ratio"] = ratio(bt.warmHit)
	m["delta.build_ms"] = sp("append", "delta.build")
	m["delta.hit_ratio"] = ratio(bt.deltaHit)
	for _, p := range batchPhases {
		m[p+".analysis.new_ms"] = sp(p, "analysis.new")
		m[p+".report.render_ms"] = sp(p, "report.render")
		m[p+".runtime.gc_cpu_frac"] = bt.runtime[p].gcFrac
		m[p+".runtime.alloc_mb"] = bt.runtime[p].allocMB
		m[p+".trace.coverage"] = coverage(rec.spans, bt.roots[p])
		var exps float64
		for _, e := range experiments {
			v := sp(p, "analysis.exp."+e.name)
			exps += v
			if p == "warm" {
				m["warm.analysis.exp."+e.name+"_ms"] = v
			}
		}
		if p != "warm" {
			m[p+".analysis.exps_ms"] = exps
		}
	}

	runtime.GC()
	root := rec.begin("decompose")
	dec, err := decompose(rec, a.base, cfg)
	rec.end(root)
	if err != nil {
		return nil, fmt.Errorf("decompose: %w", err)
	}
	for name, s := range map[string]substrate{"rirstats": dec.rir, "rpki": dec.roa, "drop": dec.drp, "irr": dec.irrs, "sbl": dec.sbls} {
		m[name+".parse_ms"] = msOf(s.parse)
		m[name+".records"] = float64(s.records)
		if name == "rirstats" || name == "rpki" {
			m[name+".mb"] = float64(s.bytes) / (1 << 20)
			m[name+".changed_ratio"] = s.changedRatio()
		}
	}
	m["mrt.decode_ms"] = msOf(dec.mrts.parse)
	m["mrt.mb"] = float64(dec.mrts.bytes) / (1 << 20)
	m["mrt.records"] = float64(dec.mrts.records)
	m["rib.build_ms"] = msOf(dec.ribBuild)
	m["rib.freeze_ms"] = msOf(dec.ribFreeze)
	m["rib.prefixes"] = float64(dec.prefixes)
	dec = nil

	runtime.GC()
	var baseGen *serve.Generation
	rec.do("serve.load", func() { baseGen, err = serve.Load(a.base, serve.LoadOptions{Window: cfg.Window}) })
	if err != nil {
		return nil, fmt.Errorf("in-process base generation: %w", err)
	}
	m["serve.load_ms"] = msOf(rec.spans[len(rec.spans)-1].dur())
	refs, err := b.serveReferences(a, baseGen, cfg.Window, func(srv *serve.Server, ring []string) {
		for ep, hs := range timeHandlers(rec, srv, ring, 200*time.Millisecond) {
			m["serve.handler_us."+ep] = hs.us
			m["serve.allocs."+ep] = hs.allocs
		}
	})
	if err != nil {
		return nil, err
	}
	baseGen = nil
	s, err := startSession(filepath.Join(b.bin, "dropscoped"), b.work, a, refs, b.plan, &b.t)
	if err != nil {
		return nil, err
	}
	defer s.close()
	for r := 0; r < b.plan.rounds; r++ {
		s.round()
	}
	if err := s.reload(); err != nil {
		return nil, err
	}
	s.logPhases()
	so := s.out
	var kb, scrapeMs []float64
	for _, s := range so.scrapes {
		kb = append(kb, float64(s.bytes)/1024)
		scrapeMs = append(scrapeMs, s.ms)
	}
	m["serve.metrics_kb"] = median(kb)
	m["serve.metrics_scrape_ms"] = median(scrapeMs)
	if n := len(so.scrapes); n > 0 {
		last := so.scrapes[n-1]
		m["serve.shed"] = float64(last.shed)
		m["serve.delta_hit_ratio"] = float64(last.deltaReloads) // one reload attempted
	}
	m["serve.q_light_p50_ms"] = segmentMedian(so.light, p50)
	m["serve.q_light_p99_ms"] = pooledPct(so.light, 99)
	m["serve.q_heavy_p50_ms"] = segmentMedian(so.heavy, p50)
	m["serve.q_heavy_p99_ms"] = pooledPct(so.heavy, 99)
	m["serve.sat_qps"] = segmentMedian(so.sat, qps)
	m["serve.reload_window_p99_ms"] = percentile(so.reloadWindow, 99)
	var late []float64
	for _, o := range append(append([]loadOut{so.rld}, so.light...), so.heavy...) {
		late = append(late, o.lateMs()...)
	}
	m["loadgen.late_p99_ms"] = percentile(sortedCopy(late), 99)
	for name, segs := range map[string][]loadOut{"light": so.light, "heavy": so.heavy, "sat": so.sat, "reload": {so.rld}} {
		var sent, ok, failed int
		for _, o := range segs {
			s, k, f := o.counts()
			sent, ok, failed = sent+s, ok+k, failed+f
		}
		m["loadgen."+name+".sent"] = float64(sent)
		m["loadgen."+name+".ok"] = float64(ok)
		m["loadgen."+name+".failed"] = float64(failed)
	}
	if err := rec.write(b.spans); err != nil {
		return nil, err
	}
	return m, nil
}

func ratio(hit bool) float64 {
	if hit {
		return 1
	}
	return 0
}

// discardWriter is a reusable http.ResponseWriter that drops the body,
// so handler timings carry no recorder allocations of their own.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// endpointOf names the endpoint a request path addresses.
func endpointOf(path string) string {
	p, _, _ := strings.Cut(path, "?")
	p = strings.TrimPrefix(p, "/v1/")
	p = strings.TrimPrefix(p, "/")
	p, _, _ = strings.Cut(p, "/")
	return p
}

// handlerStat is one endpoint's in-process cost per call.
type handlerStat struct{ us, allocs float64 }

// timeHandlers calls the server's ServeHTTP directly, with prebuilt
// requests and one reusable writer, over each endpoint's requests of
// the ring for about per: mean microseconds and heap allocations per
// call.
func timeHandlers(rec *recorder, h http.Handler, ring []string, per time.Duration) map[string]handlerStat {
	reqs := map[string][]*http.Request{}
	for _, p := range ring {
		ep := endpointOf(p)
		reqs[ep] = append(reqs[ep], httptest.NewRequest(http.MethodGet, p, nil))
	}
	out := map[string]handlerStat{}
	w := &discardWriter{h: http.Header{}}
	for _, ep := range endpoints {
		rs := reqs[ep]
		if len(rs) == 0 {
			continue
		}
		var calls int
		start := time.Now()
		for time.Since(start) < per || calls < len(rs) {
			for i := 0; i < 64; i++ {
				h.ServeHTTP(w, rs[calls%len(rs)])
				calls++
			}
		}
		end := time.Now()
		rec.add("serve.handler."+ep, start, end)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n := max(len(rs), 256)
		for i := 0; i < n; i++ {
			h.ServeHTTP(w, rs[i%len(rs)])
		}
		runtime.ReadMemStats(&after)
		out[ep] = handlerStat{
			us:     float64(end.Sub(start)) / float64(time.Microsecond) / float64(calls),
			allocs: float64(after.Mallocs-before.Mallocs) / float64(n),
		}
	}
	return out
}
