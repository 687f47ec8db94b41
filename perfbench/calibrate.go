package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// calibFlag runs the benchmark binary as the host-speed probe: it does
// a fixed amount of CPU and memory work — random integers sorted,
// inserted into a hash map, and a buffer hashed with SHA-256 — and
// prints the work's wall time in nanoseconds.
//
// A shared host's speed drifts by a quarter and more over minutes, so
// wall times of the same code made minutes apart differ more than a
// bound could tolerate. A probe runs before each batch cycle and each
// daemon session, and each end-to-end time is reported at a fixed
// reference speed: its median times calibRefSecs over the run's median
// probe time. The probe's code is the standard library's and this
// file's alone, and it runs in a fresh process timed from inside, so
// neither a change to dropscope nor the benchmark's own heap moves it.
// Of the probes tried (see NOTES.md), this one followed the loads'
// drift most closely.
const calibFlag = "-calibrate"

// calibRefSecs is the probe's median wall time on the reference machine
// (see NOTES.md): a time reported at the reference speed is the time
// the phase took on that machine when a probe took this long.
const calibRefSecs = 0.450

// calibInts is the number of integers one probe sorts: about 0.45 s of
// work on the reference machine.
const calibInts = 1_600_000

// calibrateMain is the probe's main.
func calibrateMain() {
	t0 := time.Now()
	n := calibrationWork(calibInts)
	elapsed := time.Since(t0)
	if n == 0 {
		fmt.Fprintln(os.Stderr, "calibration: empty map")
		os.Exit(1)
	}
	fmt.Println(elapsed.Nanoseconds())
}

// calibrationWork sorts n integers drawn from a fixed seed, inserts
// every third into a map, hashes n*32 bytes, and returns the map's size
// plus the digest's low bits, which the caller checks so the compiler
// keeps the work.
func calibrationWork(n int) int {
	rng := rand.New(rand.NewPCG(7, 11))
	xs := make([]uint64, n)
	for i := range xs {
		xs[i] = rng.Uint64()
	}
	slices.Sort(xs)
	m := make(map[uint64]int)
	for i := 0; i < n/3; i++ {
		m[xs[i*3]] = i
	}
	h := sha256.New()
	buf := make([]byte, 1<<20)
	for i := 0; i < n>>15; i++ {
		h.Write(buf)
	}
	return len(m) + int(h.Sum(nil)[0]&1)
}

// probe runs one calibration child and returns the seconds its work
// took.
func probe() (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, calibFlag)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("calibration probe: %w", err)
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("calibration probe printed %q: %w", out, err)
	}
	return time.Duration(ns).Seconds(), nil
}
