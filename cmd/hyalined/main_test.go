package main

import (
	"bufio"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"hyaline/internal/docflags"
)

// TestFlagValidation: invalid knobs must abort with a message naming
// the offending flag before the daemon binds its listen address.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"negative threads", []string{"-threads=-1"}, "-threads"},
		{"zero pipeline", []string{"-pipeline=0"}, "-pipeline"},
		{"negative pipeline", []string{"-pipeline=-4"}, "-pipeline"},
		{"negative shards", []string{"-shards=-1"}, "-shards"},
		{"negative shards with threads", []string{"-shards=-8", "-threads=4"}, "-shards"},
		{"negative maxconns", []string{"-maxconns=-1"}, "-maxconns"},
		// An unbindable -addr makes a daemon that accepted the value fail
		// at Listen, for a reason that does not name the flag, instead
		// of serving.
		{"zero arenacap", []string{"-arenacap=0", "-addr=127.0.0.1:99999"}, "-arenacap"},
		{"negative arenacap", []string{"-arenacap=-1", "-addr=127.0.0.1:99999"}, "-arenacap"},
		{"zero blobbudget", []string{"-bytes", "-blobbudget=0", "-addr=127.0.0.1:99999"}, "-blobbudget"},
		{"negative blobbudget", []string{"-blobbudget=-1", "-addr=127.0.0.1:99999"}, "-blobbudget"},
		{"negative drain", []string{"-drain=-1s", "-addr=127.0.0.1:99999"}, "-drain"},
		{"unknown structure", []string{"-structure=no-such", "-addr=127.0.0.1:0"}, "no-such"},
		{"bad metrics address", []string{"-metrics=256.256.256.256:0", "-addr=127.0.0.1:0"}, "-metrics"},
		{"unknown scheme sharded", []string{"-shards=4", "-scheme=no-such", "-addr=127.0.0.1:0"}, "no-such"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := run(c.args)
			if err == nil {
				t.Fatalf("run(%v) accepted an invalid configuration", c.args)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("run(%v) error %q does not name %q", c.args, err, c.want)
			}
		})
	}
}

// TestShardsAboveThreads: -shards beyond -threads is legal — the lease
// bound is divided across shards rounding up, so every shard still
// gets at least one lease. The configuration must construct (and then
// fail only on the deliberately bad listen address, proving validation
// and KV construction both passed).
func TestShardsAboveThreads(t *testing.T) {
	err := run([]string{"-shards=8", "-threads=2", "-addr=256.256.256.256:0"})
	if err == nil {
		t.Fatal("run with an unresolvable address succeeded")
	}
	if strings.Contains(err.Error(), "-shards") || strings.Contains(err.Error(), "-threads") {
		t.Fatalf("shards>threads rejected at validation: %v", err)
	}
}

// TestSignalAfterReadiness builds the daemon, starts it, and sends
// SIGTERM the moment it prints its readiness line: the drain must run
// to completion (exit 0, "drained", no lease in flight) every time. A
// handler installed only after that line leaves a window in which the
// signal kills the daemon undrained, or is dropped when the daemon
// inherited it as ignored.
func TestSignalAfterReadiness(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("no SIGTERM delivery on windows")
	}
	gotool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool to build the daemon with")
	}
	bin := filepath.Join(t.TempDir(), "hyalined")
	if out, err := exec.Command(gotool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	reps := 20
	if testing.Short() {
		reps = 5
	}
	for i := 0; i < reps; i++ {
		cmd := exec.Command(bin, "-addr=127.0.0.1:0", "-arenacap=4096")
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// A daemon that never drains would block the read below forever.
		hung := time.AfterFunc(10*time.Second, func() { cmd.Process.Kill() })
		var log strings.Builder
		signalled := false
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			log.WriteString(sc.Text() + "\n")
			if !signalled && strings.Contains(sc.Text(), "listening on") {
				signalled = true
				if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
					t.Fatal(err)
				}
			}
		}
		err = cmd.Wait()
		hung.Stop()
		if !signalled {
			t.Fatalf("rep %d: no readiness line (exit %v):\n%s", i, err, log.String())
		}
		if err != nil {
			t.Fatalf("rep %d: daemon exited with %v after SIGTERM at readiness:\n%s", i, err, log.String())
		}
		for _, want := range []string{"drained", "in-flight leases: 0"} {
			if !strings.Contains(log.String(), want) {
				t.Fatalf("rep %d: log lacks %q:\n%s", i, want, log.String())
			}
		}
	}
}

// TestREADMEFlags fails when the README passes hyalined a flag that its flag
// set does not define.
func TestREADMEFlags(t *testing.T) {
	fs, _ := newFlags()
	docflags.Check(t, "../../README.md", fs)
}
