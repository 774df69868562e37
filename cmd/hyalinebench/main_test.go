package main

import (
	"strings"
	"testing"

	"hyaline/internal/bench"
	"hyaline/internal/docflags"
)

// TestFlagValidation: contradictory or negative knobs must abort with a
// message naming the offending flag, never silently reshape the run.
func TestFlagValidation(t *testing.T) {
	single := []string{"-structure", "hashmap", "-scheme", "hyaline"}
	cases := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"goroutines below auto", append(single, "-goroutines=-2"), "-goroutines"},
		{"goroutines without sessions", append(single, "-goroutines=4"), "-sessions"},
		{"zero threads", append(single, "-threads=0"), "-threads"},
		{"negative threads", append(single, "-threads=-3"), "-threads"},
		{"negative stalled", append(single, "-stalled=-1"), "-stalled"},
		// Only the paper's two mixes exist: a misspelt or retired mix name
		// is refused, not run as write-heavy.
		{"workload reed", append(single, "-workload=reed"), "-workload"},
		{"workload scan", append(single, "-workload=scan"), "-workload"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := run(c.args)
			if err == nil {
				t.Fatalf("run(%v) accepted a contradictory configuration", c.args)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("run(%v) error %q does not name %q", c.args, err, c.want)
			}
		})
	}
}

// TestFlagValidationAccepts: the knobs' legal shapes still run — -1 as
// an explicit goroutines auto, and both workload names.
func TestFlagValidationAccepts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real (tiny) benchmark windows")
	}
	common := []string{
		"-duration", "20ms", "-prefill", "200", "-keyrange", "1000",
		"-arenacap", "262144", "-threads", "2",
	}
	cases := [][]string{
		append([]string{"-structure", "hashmap", "-scheme", "epoch", "-sessions", "-goroutines=-1"}, common...),
		append([]string{"-structure", "hashmap", "-scheme", "epoch", "-workload", "read"}, common...),
		append([]string{"-structure", "hashmap", "-scheme", "epoch", "-workload", "write"}, common...),
	}
	for _, args := range cases {
		if err := run(args); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
	}
}

// TestFigureThreads: -figure passes -threads on as the sweep's active
// thread count only when the flag was given, so Figure.Run's own default
// (GOMAXPROCS-2 for the stalled sweeps) holds otherwise.
func TestFigureThreads(t *testing.T) {
	defer func(orig func(bench.Figure, bench.RunOptions) (bench.Table, error)) { sweep = orig }(sweep)
	var got []int
	sweep = func(f bench.Figure, opts bench.RunOptions) (bench.Table, error) {
		got = append(got, opts.ActiveThreads)
		return bench.Table{Figure: f}, nil
	}
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"-figure", "10a"}, 0},
		{[]string{"-figure", "10a", "-threads", "3"}, 3},
	} {
		got = nil
		if err := run(c.args); err != nil {
			t.Fatalf("run(%v): %v", c.args, err)
		}
		if len(got) != 1 || got[0] != c.want {
			t.Fatalf("run(%v) swept with ActiveThreads %v, want [%d]", c.args, got, c.want)
		}
	}
}

// TestREADMEFlags fails when the README passes hyalinebench a flag that its flag
// set does not define.
func TestREADMEFlags(t *testing.T) {
	fs, _ := newFlags()
	docflags.Check(t, "../../README.md", fs)
}
