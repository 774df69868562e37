package main

import (
	"strings"
	"testing"
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
		{"negative batch", append(single, "-batch=-8"), "-batch"},
		{"goroutines below auto", append(single, "-goroutines=-2"), "-goroutines"},
		{"goroutines without sessions", append(single, "-goroutines=4"), "-sessions"},
		{"zero threads", append(single, "-threads=0"), "-threads"},
		{"negative threads", append(single, "-threads=-3"), "-threads"},
		{"negative stalled", append(single, "-stalled=-1"), "-stalled"},
		{"negative conns", append(single, "-conns=-1"), "-conns"},
		{"negative pipeline", append(single, "-pipeline=-1"), "-pipeline"},
		{"pipeline without conns", append(single, "-pipeline=8"), "-conns"},
		{"metrics without conns", append(single, "-metrics"), "-conns"},
		{"conns with sessions", append(single, "-conns=2", "-sessions"), "-sessions"},
		{"conns with batch", append(single, "-conns=2", "-batch=16"), "-batch"},
		{"negative shards", append(single, "-shards=-1"), "-shards"},
		// -shards is the served store's shard count: without -conns it is
		// refused by one rule, whatever in-process knob rides along.
		{"shards without conns", append(single, "-shards=4"), "-conns"},
		{"shards with trim", append(single, "-shards=4", "-trim"), "-conns"},
		{"shards with sessions", append(single, "-shards=4", "-sessions"), "-conns"},
		{"shards with stalled", append(single, "-shards=4", "-stalled=1"), "-conns"},
		{"shards with batch", append(single, "-shards=4", "-batch=16"), "-conns"},
		{"shards with valuesize", append(single, "-shards=4", "-valuesize=64"), "-conns"},
		{"shards with range", append(single, "-shards=4", "-range=10"), "-conns"},
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
// an explicit goroutines auto, and client/server mode with a pipeline.
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
		append([]string{"-structure", "hashmap", "-scheme", "epoch", "-conns", "2", "-pipeline", "4"}, common...),
		// shards above threads: legal — idle shards just see less traffic.
		append([]string{"-structure", "hashmap", "-scheme", "epoch", "-shards", "4", "-conns", "2"}, common...),
		// -metrics rides serve mode: the result embeds a registry snapshot.
		append([]string{"-structure", "hashmap", "-scheme", "epoch", "-conns", "2", "-metrics"}, common...),
	}
	for _, args := range cases {
		if err := run(args); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
	}
}
