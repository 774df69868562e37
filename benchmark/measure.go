package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// clock places the timed window: it starts after the warm-up and is cut
// into numSlices equal slices. Rates and percentiles are computed per
// slice and the median slice is reported, so one noisy-neighbour burst
// does not move the number.
type clock struct {
	start time.Time
	slice time.Duration
}

func (c clock) end() time.Time { return c.start.Add(numSlices * c.slice) }

// sliceOf returns the slice t falls in, or -1 for warm-up and overrun.
func (c clock) sliceOf(t time.Time) int {
	d := t.Sub(c.start)
	if d < 0 {
		return -1
	}
	if s := int(d / c.slice); s < numSlices {
		return s
	}
	return -1
}

// acc is one client's tallies. Each client owns its own; they are read
// after the client has stopped.
type acc struct {
	attempted int64 // ops sent, warm-up included
	failed    int64 // ERR reply, I/O error or a wrong value
	okSets    int64
	okDels    int64
	firstErr  error
	slices    [numSlices]struct {
		ops int64
		lat hist
	}
}

// window books one completed latency sample of ops operations.
func (a *acc) window(ck clock, begin, end time.Time, ops int) {
	a.attempted += int64(ops)
	if s := ck.sliceOf(end); s >= 0 {
		a.slices[s].ops += int64(ops)
		a.slices[s].lat.record(int64(end.Sub(begin)))
	}
}

func (a *acc) fail(n int, err error) {
	a.failed += int64(n)
	if a.firstErr == nil {
		a.firstErr = err
	}
}

// instance is one set-up workload.
type instance interface {
	// run drives the clients, closed loop, until ck.end(), and returns
	// their tallies.
	run(ck clock, tr *tracer) []*acc
	stats() smrStats
	// live is the number of arena nodes allocated right now: what the
	// structure holds plus what is retired and not yet freed.
	live() int64
	// finish checks what must hold at quiescence (conservation,
	// reclamation draining), releases everything and returns the
	// violations.
	finish(accs []*acc) []error
}

func setup(sp *spec, seed uint64, tr *tracer) (instance, error) {
	switch sp.fam {
	case servedU64, servedBytes:
		return setupServed(sp, seed, tr)
	case inprocKV:
		return setupKV(sp, seed)
	default:
		return setupLib(sp, seed)
	}
}

// measured is one timed window of one workload.
type measured struct {
	opsPerS         float64
	p50us, p99us    float64
	windows         int64 // latency samples in the slice with the fewest
	beyondP99       int64 // samples beyond p99 in that slice
	liveNodesPeak   float64
	unreclaimedPeak float64
	unreclaimedAvg  float64
	sliceLive       [numSlices]float64 // 99th percentile of the slice's live-node samples
	slicePeak       [numSlices]float64 // the same of its unreclaimed samples
	sliceRate       [numSlices]float64
	attempted       int64
	failed          int64
	timedOps        int64
	timed           time.Duration // between the two snapshots below
	stats           smrStats      // delta over the timed window
	mallocs         uint64        // delta over the timed window
	rssPeakMB       float64       // VmHWM when the window opened: set-up and warm-up
	rssGrowthMB     float64       // how much VmHWM rose over the window
	setup           time.Duration
	errs            []error
}

// snapshot is what is read when the timed window opens and closes.
type snapshot struct {
	at      time.Time
	stats   smrStats
	mallocs uint64
	rssMB   float64
}

func takeSnapshot(inst instance) snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snapshot{at: time.Now(), stats: inst.stats(), mallocs: ms.Mallocs, rssMB: rssPeakMB()}
}

// measure sets the workload up, warms it with its own traffic for warm,
// runs the timed window and checks the outcome. tr is nil for an
// untraced run.
func measure(sp *spec, seed uint64, warm, window time.Duration, tr *tracer) (*measured, error) {
	runtime.GOMAXPROCS(sp.procs)
	began := time.Now()
	inst, err := setup(sp, seed, tr)
	if err != nil {
		return nil, err
	}
	m := &measured{setup: time.Since(began)}
	ck := clock{start: time.Now().Add(warm), slice: window / numSlices}

	// The sampler reads the unreclaimed gauge every 5 ms and opens the
	// timed window when the warm-up is over.
	var (
		stop   = make(chan struct{})
		done   = make(chan struct{})
		opened snapshot
		sum    float64
		n      int64
		gauge  [numSlices][]int64 // the slice's unreclaimed samples
		held   [numSlices][]int64 // and its live-node samples
	)
	for s := range gauge {
		gauge[s] = make([]int64, 0, ck.slice/sampleEvery+1)
		held[s] = make([]int64, 0, ck.slice/sampleEvery+1)
	}
	go func() {
		defer close(done)
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-tick.C:
				s := ck.sliceOf(now)
				if s < 0 {
					continue
				}
				if opened.at.IsZero() {
					opened = takeSnapshot(inst)
					if tr != nil {
						tr.on.Store(true)
					}
				}
				un := inst.stats().Unreclaimed()
				sum += float64(un)
				n++
				gauge[s] = append(gauge[s], un)
				held[s] = append(held[s], inst.live())
			}
		}
	}()
	accs := inst.run(ck, tr)
	if tr != nil {
		tr.on.Store(false)
	}
	close(stop)
	<-done
	closed := takeSnapshot(inst)
	if opened.at.IsZero() {
		return nil, fmt.Errorf("%s: the timed window never opened", sp.name)
	}
	m.timed = closed.at.Sub(opened.at)
	m.stats = smrStats{
		Allocated: closed.stats.Allocated - opened.stats.Allocated,
		Retired:   closed.stats.Retired - opened.stats.Retired,
		Freed:     closed.stats.Freed - opened.stats.Freed,
		Scans:     closed.stats.Scans - opened.stats.Scans,
	}
	m.mallocs = closed.mallocs - opened.mallocs
	m.rssPeakMB, m.rssGrowthMB = opened.rssMB, closed.rssMB-opened.rssMB
	for s := range gauge {
		m.slicePeak[s], m.sliceLive[s] = peakOf(gauge[s]), peakOf(held[s])
	}
	if n > 0 {
		m.unreclaimedAvg = sum / float64(n)
	}

	m.errs = inst.finish(accs)
	for _, a := range accs {
		m.attempted += a.attempted
		m.failed += a.failed
		if a.firstErr != nil {
			m.errs = append(m.errs, a.firstErr)
		}
	}
	m.failed += int64(len(m.errs))
	m.reduce(accs, ck.slice)
	return m, nil
}

// reduce turns the per-client, per-slice tallies into median-slice
// figures.
func (m *measured) reduce(accs []*acc, slice time.Duration) {
	var rates, p50s, p99s, peaks, lives []float64
	m.windows = -1
	for s := 0; s < numSlices; s++ {
		var ops int64
		var lat hist
		for _, a := range accs {
			ops += a.slices[s].ops
			lat.merge(&a.slices[s].lat)
		}
		m.timedOps += ops
		m.sliceRate[s] = float64(ops) / slice.Seconds()
		rates = append(rates, m.sliceRate[s])
		p50s = append(p50s, lat.quantile(0.50)/1e3)
		p99s = append(p99s, lat.quantile(0.99)/1e3)
		peaks = append(peaks, m.slicePeak[s])
		lives = append(lives, m.sliceLive[s])
		if m.windows < 0 || lat.count < m.windows {
			m.windows, m.beyondP99 = lat.count, lat.above(0.99)
		}
	}
	m.opsPerS = median(rates)
	m.p50us = median(p50s)
	m.p99us = median(p99s)
	m.unreclaimedPeak = median(peaks)
	m.liveNodesPeak = median(lives)
}

// peakOf is the 99th percentile of a slice's gauge samples: the maximum
// of 600 samples is an extreme value and repeats badly from run to run.
func peakOf(samples []int64) float64 {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	return float64(samples[(len(samples)*99+99)/100-1])
}

// rssPeakMB reads the process's resident-set high-water mark, 0 where
// /proc does not tell.
func rssPeakMB() float64 {
	status, _ := os.ReadFile("/proc/self/status")
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// timeSetups sets the workload up rounds more times, tearing each down,
// and returns every set-up time. It runs after the timed window so the
// discarded instances do not count towards the window's RSS.
func timeSetups(sp *spec, seed uint64, rounds int) ([]float64, error) {
	var secs []float64
	for i := 0; i < rounds; i++ {
		began := time.Now()
		inst, err := setup(sp, seed, nil)
		if err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(began).Seconds())
		if errs := inst.finish(nil); len(errs) > 0 {
			return nil, fmt.Errorf("%s: tearing down a set-up: %w", sp.name, errs[0])
		}
		runtime.GC()
	}
	return secs, nil
}
