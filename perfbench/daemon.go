package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// servePlan fixes the serving phases of one run.
type servePlan struct {
	conns     int     // load-generator connections (= nproc)
	lightRate float64 // open loop, requests per second
	heavyRate float64 // open loop, requests per second
	// rounds is the number of serving rounds of a traced run: each one
	// light, one heavy and one sat segment seg long. Spreading every
	// phase over rounds means a burst of host noise lands in one of its
	// segments rather than in all of it.
	rounds     int
	seg        time.Duration
	warmup     time.Duration // untimed closed loop before the first round
	reloadTail time.Duration // light load kept running after the reload lands
	seed       uint64
}

// scrape is one GET /metrics at a phase boundary.
type scrape struct {
	ms           float64
	bytes        int
	shed         uint64
	deltaReloads uint64
}

// serveOut is what the serving phases observed.
type serveOut struct {
	bootS, reloadS    float64
	warm              loadOut
	light, heavy, sat []loadOut // one per round
	rld               loadOut
	// reloadWindow are the latencies of the requests due between the
	// SIGHUP and the first response from the grown generation.
	reloadWindow []float64
	scrapes      []scrape
}

// segmentMedian is the median over segments of stat applied to each.
func segmentMedian(segs []loadOut, stat func(loadOut) float64) float64 {
	v := make([]float64, len(segs))
	for i, o := range segs {
		v[i] = stat(o)
	}
	return median(v)
}

// p50 is the median latency of one segment.
func p50(o loadOut) float64 { return percentile(o.latMs(nil), 50) }

// pooledPct is latency percentile pct over every segment's samples.
func pooledPct(segs []loadOut, pct float64) float64 {
	var all []float64
	for _, o := range segs {
		all = append(all, o.latMs(nil)...)
	}
	return percentile(sortedCopy(all), pct)
}

// qps is the successful requests per second of one segment.
func qps(o loadOut) float64 {
	_, ok, _ := o.counts()
	return float64(ok) / o.elapsed.Seconds()
}

// daemon is a running dropscoped child.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	exited chan error
}

// freeAddr picks a loopback port nothing listens on.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startDaemon execs dropscoped over archive and waits for its first 200
// on /healthz; the wait from exec is the boot time.
func startDaemon(bin, archive string) (*daemon, float64, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{addr: addr, exited: make(chan error, 1)}
	d.cmd = exec.Command(bin, "-archive", archive, "-listen", addr)
	d.cmd.Stderr = &d.stderr
	// Should the benchmark itself be killed, take the daemon with it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() { d.exited <- d.cmd.Wait() }()
	probe := newClient(addr, 1, 500*time.Millisecond)
	defer probe.close()
	for deadline := t0.Add(150 * time.Second); time.Now().Before(deadline); {
		select {
		case err := <-d.exited:
			return nil, 0, fmt.Errorf("dropscoped exited during boot: %v: %s", err, d.stderr.Bytes())
		default:
		}
		if status, _, err := probe.get("/healthz", nil); err == nil && status == http.StatusOK {
			return d, time.Since(t0).Seconds(), nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.stop()
	return nil, 0, errors.New("dropscoped did not answer /healthz within 150s")
}

// stop drains the daemon with SIGTERM and waits for it to exit,
// killing it if the drain hangs.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// scrapeMetrics times one GET /metrics and reads the counters the
// benchmark reports from it.
func scrapeMetrics(c *client) (scrape, error) {
	var buf bytes.Buffer
	t0 := time.Now()
	status, _, err := c.get("/metrics", &buf)
	s := scrape{ms: float64(time.Since(t0)) / float64(time.Millisecond), bytes: buf.Len()}
	if err != nil {
		return s, err
	}
	if status != http.StatusOK {
		return s, fmt.Errorf("/metrics: status %d", status)
	}
	var m struct {
		Shed         uint64 `json:"shed_total"`
		DeltaReloads uint64 `json:"delta_reloads_total"`
	}
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		return s, fmt.Errorf("/metrics: %w", err)
	}
	s.shed, s.deltaReloads = m.Shed, m.DeltaReloads
	return s, nil
}

var generationField = regexp.MustCompile(`"generation":"[0-9a-f]*"`)

// normalize blanks the generation digest out of a response body: the
// daemon and the in-process reference serve the same archive state
// from generations built different ways.
func normalize(b []byte) []byte {
	return generationField.ReplaceAll(b, []byte(`"generation":""`))
}

// expectedAnswers renders each sample path through an in-process
// handler — the reference the daemon's answers are compared with.
func expectedAnswers(ref http.Handler, sample []string) [][]byte {
	out := make([][]byte, len(sample))
	for i, p := range sample {
		rec := httptest.NewRecorder()
		ref.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
		out[i] = normalize(rec.Body.Bytes())
	}
	return out
}

// checkSample fetches every sample path from the daemon and compares
// each body byte for byte with the expected answer.
func checkSample(c *client, sample []string, want [][]byte, t *tally) {
	var buf bytes.Buffer
	for i, p := range sample {
		status, _, err := c.get(p, &buf)
		t.op(err == nil && status == http.StatusOK)
		if err != nil || status != http.StatusOK {
			logf("sample %s: status %d, %v", p, status, err)
			continue
		}
		ok := bytes.Equal(normalize(buf.Bytes()), want[i])
		t.op(ok)
		if !ok {
			logf("sample %s: daemon answered %q, in-process reference %q", p, buf.Bytes(), want[i])
		}
	}
}

// responseSample is the fixed set of ring paths whose answers are
// checked: the first n that are not /healthz (its body carries the
// generation's age, which no two servers share).
func responseSample(ring []string, n int) []string {
	var out []string
	for _, p := range ring {
		if len(out) == n {
			break
		}
		if !strings.HasPrefix(p, "/healthz") {
			out = append(out, p)
		}
	}
	return out
}

// serveRefs is the request ring and the expected answers of its fixed
// sample, rendered in process for the base and the grown archive state.
type serveRefs struct {
	ring        []string
	sample      []string
	base, grown [][]byte
}

// session is a running daemon under test and what its phases observed.
type session struct {
	d       *daemon
	c       *client
	a       archives
	live    string
	refs    serveRefs
	plan    servePlan
	t       *tally
	out     serveOut
	segment int

	gcPercent int // the generator's GC setting before the session
}

// startSession boots dropscoped over a live copy of the base archive,
// on an empty snapshot store, timing exec until the first 200 on
// /healthz; then it scrapes /metrics and runs an untimed closed-loop
// warm-up.
func startSession(bin, work string, a archives, refs serveRefs, plan servePlan, t *tally) (*session, error) {
	live := filepath.Join(work, "live")
	if err := os.RemoveAll(live); err != nil {
		return nil, err
	}
	if err := linkTree(a.base, live); err != nil {
		return nil, err
	}
	d, boot, err := startDaemon(bin, live)
	if err != nil {
		return nil, err
	}
	s := &session{d: d, c: newClient(d.addr, plan.conns, 5*time.Second), a: a, live: live, refs: refs, plan: plan, t: t}
	// The generator's own collections compete with the daemon for the
	// CPU; its heap is small, so let it grow further between them.
	s.gcPercent = debug.SetGCPercent(800)
	s.out.bootS = boot
	s.scrape()
	s.out.warm = s.load(loadSpec{name: "warm-up", conns: plan.conns, dur: plan.warmup})
	return s, nil
}

// close stops the daemon and waits for it to exit.
func (s *session) close() {
	s.c.close()
	s.d.stop()
	debug.SetGCPercent(s.gcPercent)
}

func (s *session) scrape() {
	sc, err := scrapeMetrics(s.c)
	s.t.op(err == nil)
	if err != nil {
		logf("scrape: %v", err)
		return
	}
	s.out.scrapes = append(s.out.scrapes, sc)
}

// load runs one load segment; every segment starts at another point of
// the ring and draws another arrival schedule from the seed.
func (s *session) load(spec loadSpec) loadOut {
	s.segment++
	ring := s.refs.ring
	o := runLoad(s.c, ring, s.segment*len(ring)/7, spec, s.plan.seed+uint64(s.segment), "", nil, nil)
	_, _, failed := o.counts()
	s.t.add(len(o.recs), failed)
	return o
}

// round runs one light and one heavy segment (open loops at fixed
// arrival rates) and one sat segment (a closed loop on every
// connection, half as long), then scrapes /metrics.
func (s *session) round() {
	p := s.plan
	s.out.light = append(s.out.light, s.load(loadSpec{name: "light", rate: p.lightRate, conns: p.conns, dur: p.seg}))
	s.out.heavy = append(s.out.heavy, s.load(loadSpec{name: "heavy", rate: p.heavyRate, conns: p.conns, dur: p.seg}))
	s.out.sat = append(s.out.sat, s.load(loadSpec{name: "sat", conns: p.conns, dur: p.seg / 2}))
	s.scrape()
}

// reload checks the sample against the base answers, moves the grown
// MRT files into the live archive (by rename, so the daemon never sees
// a partial file) and sends SIGHUP while light load keeps running,
// until a response carries the grown generation; then it checks the
// sample against the grown answers.
func (s *session) reload() error {
	checkSample(s.c, s.refs.sample, s.refs.base, s.t)
	mrts, err := filepath.Glob(filepath.Join(s.a.grown, "mrt", "*.mrt"))
	if err != nil || len(mrts) == 0 {
		return fmt.Errorf("grown archive has no MRT files: %v", err)
	}
	for _, m := range mrts {
		if err := copyFile(m, filepath.Join(s.live, "mrt", filepath.Base(m))); err != nil {
			return err
		}
	}
	var first atomic.Int64
	stop := make(chan struct{})
	done := make(chan loadOut, 1)
	spec := loadSpec{name: "reload", rate: s.plan.lightRate, conns: s.plan.conns, dur: 120 * time.Second}
	go func() { done <- runLoad(s.c, s.refs.ring, 0, spec, s.plan.seed, s.a.grownGen, stop, &first) }()
	sig := time.Now()
	if err := s.d.cmd.Process.Signal(syscall.SIGHUP); err != nil {
		close(stop)
		<-done
		return fmt.Errorf("SIGHUP: %w: %s", err, s.d.stderr.Bytes())
	}
	for first.Load() == 0 && time.Since(sig) < 110*time.Second {
		time.Sleep(5 * time.Millisecond)
	}
	landed := first.Load()
	if landed != 0 {
		time.Sleep(s.plan.reloadTail)
	}
	close(stop)
	s.out.rld = <-done
	_, _, failed := s.out.rld.counts()
	s.t.add(len(s.out.rld.recs), failed)
	if landed == 0 {
		return fmt.Errorf("no response carried the grown generation within 110s of SIGHUP")
	}
	at := time.Unix(0, landed)
	s.out.reloadS = at.Sub(sig).Seconds()
	s.out.reloadWindow = s.out.rld.latMs(func(r reqRecord) bool { return !r.due.Before(sig) && !r.due.After(at) })
	s.scrape()
	checkSample(s.c, s.refs.sample, s.refs.grown, s.t)
	return nil
}

// logPhases reports every phase's loop kind, rate or connections, and
// sent, succeeded and failed counts.
func (s *session) logPhases() {
	for _, ph := range []struct {
		name string
		segs []loadOut
	}{{"warm-up", []loadOut{s.out.warm}}, {"light", s.out.light}, {"heavy", s.out.heavy}, {"sat", s.out.sat}, {"reload", []loadOut{s.out.rld}}} {
		var sent, ok, failed int
		var secs float64
		for _, o := range ph.segs {
			n, k, f := o.counts()
			sent, ok, failed, secs = sent+n, ok+k, failed+f, secs+o.elapsed.Seconds()
		}
		if len(ph.segs) == 0 {
			continue
		}
		logf("%s: %s, %d conns, %d segments: sent %d, ok %d, failed %d in %.2fs",
			ph.name, loopKind(ph.segs[0].spec), s.plan.conns, len(ph.segs), sent, ok, failed, secs)
		if ph.segs[0].spec.open() {
			for i, o := range ph.segs {
				lat := o.latMs(nil)
				tail, _ := tailPercentile(len(lat))
				logf("  %s segment %d: %d samples, p50 %.3f ms, p%v %.3f ms (highest percentile with ten samples beyond), late p99 %.3f ms",
					ph.name, i, len(lat), percentile(lat, 50), tail, percentile(lat, tail), percentile(o.lateMs(), 99))
			}
		}
	}
}

func loopKind(s loadSpec) string {
	if s.open() {
		return fmt.Sprintf("open loop %.0f/s", s.rate)
	}
	return "closed loop"
}
