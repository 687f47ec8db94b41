package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// cliRun is one dropscope child process: wall time from exec to exit,
// the child's peak RSS, and the SHA-256 of the report it printed.
type cliRun struct {
	secs   float64
	rssMB  float64
	digest [32]byte
}

// spawnFlag runs the benchmark binary as a spawner: it runs the command
// that follows, passes its exit status on, and reports the command's
// wall time and peak RSS on file descriptor 3.
//
// Linux charges a child's peak RSS with the peak of the process it was
// forked from, so a dropscope started straight from the benchmark, whose
// heap held a generated world, would report the benchmark's peak rather
// than its own. Started from the freshly executed spawner, it reports
// its own.
const spawnFlag = "-spawn"

// spawnMain is the spawner's main.
func spawnMain(args []string) {
	report := os.NewFile(3, "report")
	syscall.CloseOnExec(3)
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0)
	var maxrss int64
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			maxrss = ru.Maxrss
		}
	}
	fmt.Fprintf(report, "%d %d\n", wall.Nanoseconds(), maxrss)
	report.Close()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			os.Exit(ee.ExitCode())
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runCLI runs bin with args to completion through the spawner.
func runCLI(bin string, args ...string) (cliRun, error) {
	self, err := os.Executable()
	if err != nil {
		return cliRun{}, err
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		return cliRun{}, err
	}
	defer pr.Close()
	h := sha256.New()
	var stderr bytes.Buffer
	cmd := exec.Command(self, append([]string{spawnFlag, bin}, args...)...)
	cmd.Stdout = h
	cmd.Stderr = &stderr
	cmd.ExtraFiles = []*os.File{pw}
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	err = cmd.Start()
	pw.Close()
	if err != nil {
		return cliRun{}, err
	}
	rep, rerr := io.ReadAll(pr)
	if err := cmd.Wait(); err != nil {
		return cliRun{}, fmt.Errorf("%s %v: %w: %s", filepath.Base(bin), args, err, stderr.Bytes())
	}
	var wallNs, maxrssKB int64
	if _, err := fmt.Sscan(string(rep), &wallNs, &maxrssKB); err != nil || rerr != nil {
		return cliRun{}, fmt.Errorf("spawner report %q: %v %v", rep, err, rerr)
	}
	return cliRun{
		secs:   time.Duration(wallNs).Seconds(),
		rssMB:  float64(maxrssKB) / 1024, // Linux reports KiB
		digest: sum(h),
	}, nil
}

func sum(h hash.Hash) (d [32]byte) {
	copy(d[:], h.Sum(nil))
	return d
}

// batchSamples are the per-phase measurements of the batch cycles.
type batchSamples struct {
	cold, coldRSS, warm, warmRSS, app, appRSS []float64
}

// snapshotPath is where dropscope -load DIR keeps its index snapshot.
func snapshotPath(archive string) string {
	return filepath.Join(archive, "ribsnap", "index.ribsnap")
}

// batchCycle runs the three batch phases once:
//
//   - cold: dropscope -load base with an empty index cache, which builds
//     and writes the snapshot, as a user's first run does;
//   - warm: the same command again, served from that snapshot;
//   - append: dropscope -load grown -append with the base snapshot
//     copied in, which decodes and merges only the appended MRT bytes.
//
// Every report is checked against the in-memory reference of its
// archive state; a failed or mismatching phase counts in t.
func batchCycle(bin string, a archives, s *batchSamples, t *tally, logf func(string, ...any)) error {
	if err := os.RemoveAll(filepath.Join(a.base, "ribsnap")); err != nil {
		return err
	}
	phase := func(name string, ref [32]byte, secs, rss *[]float64, args ...string) {
		r, err := runCLI(bin, args...)
		t.op(err == nil)
		if err != nil {
			logf("%s: %v", name, err)
			return
		}
		*secs = append(*secs, r.secs)
		*rss = append(*rss, r.rssMB)
		ok := r.digest == ref
		t.op(ok)
		if !ok {
			logf("%s: report %x differs from the in-memory reference %x", name, r.digest[:8], ref[:8])
		}
	}
	phase("cold", a.baseRef, &s.cold, &s.coldRSS, "-load", a.base)
	phase("warm", a.baseRef, &s.warm, &s.warmRSS, "-load", a.base)
	if err := os.RemoveAll(filepath.Join(a.grown, "ribsnap")); err != nil {
		return err
	}
	if err := copyFile(snapshotPath(a.base), snapshotPath(a.grown)); err != nil {
		return fmt.Errorf("seed the append snapshot: %w", err)
	}
	phase("append", a.grownRef, &s.app, &s.appRSS, "-load", a.grown, "-append")
	return nil
}
