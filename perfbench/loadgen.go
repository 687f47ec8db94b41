package main

import (
	"bytes"
	"io"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// generationHeader carries the serving generation's archive digest on
// every dropscoped response.
const generationHeader = "X-Dropscope-Generation"

// client is the load generator's HTTP client: at most conns
// connections to one daemon.
type client struct {
	http *http.Client
	base string
}

func newClient(addr string, conns int, timeout time.Duration) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{http: &http.Client{Transport: tr, Timeout: timeout}, base: "http://" + addr}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// get fetches path and drains the body into buf (reset first; nil
// discards it). It returns the status and the generation header.
func (c *client) get(path string, buf *bytes.Buffer) (int, string, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	if buf != nil {
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, resp.Header.Get(generationHeader), err
}

// loadSpec is one load phase.
type loadSpec struct {
	name string
	// rate is the open-loop arrival rate in requests per second; 0 makes
	// the phase a closed loop, where each connection sends its next
	// request only when the previous one has completed.
	rate  float64
	conns int
	dur   time.Duration
}

func (s loadSpec) open() bool { return s.rate > 0 }

// reqRecord is one request of a load phase. For a closed loop the due
// time is the send time.
type reqRecord struct {
	due, sent, done time.Time
	ok, grown       bool
}

// loadOut is what one load phase observed.
type loadOut struct {
	spec    loadSpec
	recs    []reqRecord
	elapsed time.Duration
}

func (o loadOut) counts() (sent, ok, failed int) {
	for _, r := range o.recs {
		if r.ok {
			ok++
		}
	}
	return len(o.recs), ok, len(o.recs) - ok
}

// latMs returns the latencies, from due time, of the successful
// requests keep accepts, in milliseconds and sorted ascending.
func (o loadOut) latMs(keep func(reqRecord) bool) []float64 {
	var out []float64
	for _, r := range o.recs {
		if r.ok && (keep == nil || keep(r)) {
			out = append(out, float64(r.done.Sub(r.due))/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}

// lateMs is how late the generator sent each request after its due
// time, in milliseconds, sorted ascending.
func (o loadOut) lateMs() []float64 {
	out := make([]float64, len(o.recs))
	for i, r := range o.recs {
		out[i] = float64(r.sent.Sub(r.due)) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// arrivals is the open-loop schedule: Poisson arrivals at rate for dur,
// as offsets from the phase start, drawn from seed alone.
func arrivals(rate float64, dur time.Duration, seed uint64) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	var out []time.Duration
	var at float64 // seconds
	for {
		at += rng.ExpFloat64() / rate
		d := time.Duration(at * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// waitUntil blocks until t. The runtime's timers round sleeps up to the
// millisecond, which would swamp sub-millisecond latencies, so it
// sleeps in the kernel until shortly before t and spins the rest.
func waitUntil(t time.Time) {
	if d := time.Until(t) - 30*time.Microsecond; d > 20*time.Microsecond {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up just spins longer
	}
	for time.Now().Before(t) {
	}
}

// runLoad drives one phase against the daemon with spec.conns workers
// over the request ring, starting at ring offset off. An open loop
// sends each request when its scheduled arrival is due — whichever
// worker is free takes the next arrival, and a request is timed from
// when it was due, so a stall charges every request queued behind it.
// The phase ends when its schedule (open) or duration (closed) is
// exhausted, or when stop is closed. firstGrown, when non-nil, records
// the earliest completion whose response carried generation grownGen.
func runLoad(c *client, ring []string, off int, spec loadSpec, seed uint64, grownGen string, stop <-chan struct{}, firstGrown *atomic.Int64) loadOut {
	var sched []time.Duration
	if spec.open() {
		sched = arrivals(spec.rate, spec.dur, seed)
	}
	var next atomic.Int64
	recs := make([][]reqRecord, spec.conns)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(spec.dur)
	for w := 0; w < spec.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Precise wake-ups: pin the worker to its thread and drop the
			// thread's timer slack (50µs by default) to the minimum. The
			// default is restored and the thread unlocked on the way out:
			// a locked thread would exit with the worker, and a child
			// forked from that thread (Pdeathsig) would be killed with it.
			runtime.LockOSThread()
			_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
			defer func() {
				_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 0, 0)
				runtime.UnlockOSThread()
			}()
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := int(next.Add(1) - 1)
				var due time.Time
				if spec.open() {
					if i >= len(sched) {
						return
					}
					due = start.Add(sched[i])
					waitUntil(due)
				} else if due = time.Now(); !due.Before(deadline) {
					return
				}
				sent := time.Now()
				status, gen, err := c.get(ring[(off+i)%len(ring)], nil)
				done := time.Now()
				r := reqRecord{due: due, sent: sent, done: done, ok: err == nil && status == http.StatusOK}
				if r.ok && grownGen != "" && gen == grownGen {
					r.grown = true
					if firstGrown != nil {
						for {
							cur := firstGrown.Load()
							if cur != 0 && cur <= done.UnixNano() {
								break
							}
							if firstGrown.CompareAndSwap(cur, done.UnixNano()) {
								break
							}
						}
					}
				}
				recs[w] = append(recs[w], r)
			}
		}(w)
	}
	wg.Wait()
	out := loadOut{spec: spec, elapsed: time.Since(start)}
	for _, rs := range recs {
		out.recs = append(out.recs, rs...)
	}
	return out
}
