package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fortd"
	"fortd/internal/profile"
)

// minSamples is the fewest timed iterations a stage takes, however
// short the run.
const minSamples = 3

// A run repeats its set-up at least minSetups times, and more while
// the set-ups together take under setupBudget; setup_s is the median.
const (
	minSetups   = 3
	maxSetups   = 50
	setupBudget = time.Second
)

// simStats are the simulated figures of merit that must repeat exactly
// across iterations, seeds and traced versus untraced runs.
type simStats struct {
	time         float64
	msgs, words  int64
	blockedShare float64
}

func (s simStats) String() string {
	return fmt.Sprintf("time=%vµs msgs=%d words=%d blocked-share=%v", s.time, s.msgs, s.words, s.blockedShare)
}

func simOf(st fortd.Stats) simStats {
	var wait, clock float64
	for _, pp := range st.PerProc {
		wait += pp.Wait
		clock += pp.Clock
	}
	return simStats{time: st.Time, msgs: st.Messages, words: st.Words, blockedShare: ratio(wait, clock)}
}

// bench holds one run's set-up and its correctness bookkeeping.
type bench struct {
	*instance
	log  io.Writer
	opts fortd.Options
	run  *fortd.Runner
	// prog is the base program compiled during set-up; listing and
	// oracle are the cold-compile listings of the base and the edited
	// source that every later compile must reproduce byte for byte.
	prog            *fortd.Program
	listing, oracle string
	ref             *fortd.Result
	want            simStats
	haveWant        bool

	attempted, failed int
}

// setUp builds everything the timed loop reads: the seeded inputs,
// the reference listings of a cold compile of the base and the edited
// source, and the sequential reference result.
func setUp(s spec, seed int64, log io.Writer) (*bench, error) {
	in, err := s.bind(seed)
	if err != nil {
		return nil, err
	}
	b := &bench{instance: in, log: log, opts: fortd.DefaultOptions()}
	b.opts.Jobs = s.jobs
	b.run = fortd.NewRunner(fortd.WithInit(in.init), fortd.WithBackend(fortd.BackendDES))
	if b.prog, err = fortd.Compile(in.src, b.opts); err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	b.listing = b.prog.Listing()
	edited, err := fortd.Compile(in.edited, b.opts)
	if err != nil {
		return nil, fmt.Errorf("compile edited source: %w", err)
	}
	b.oracle = edited.Listing()
	if b.ref, err = b.run.RunReference(b.prog); err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	return b, nil
}

// setUpRepeated sets up several times and returns the last bench with
// the set-up times.
func setUpRepeated(s spec, seed int64, log io.Writer) (*bench, []float64, error) {
	var times []float64
	var b *bench
	for begin := time.Now(); len(times) < minSetups || len(times) < maxSetups && time.Since(begin) < setupBudget; {
		runtime.GC()
		start := time.Now()
		var err error
		if b, err = setUp(s, seed, log); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return b, times, nil
}

// iteration tracks one attempted iteration: any failing check marks it
// failed, once.
type iteration struct {
	b      *bench
	failed bool
}

func (b *bench) begin() *iteration {
	b.attempted++
	return &iteration{b: b}
}

func (it *iteration) fail(format string, args ...any) {
	if !it.failed {
		it.failed = true
		it.b.failed++
	}
	fmt.Fprintf(it.b.log, "perfbench: %s: FAIL: %s\n", it.b.name, fmt.Sprintf(format, args...))
}

// checkRun compares a run with the sequential reference element-wise
// (fdrun's 1e-9 tolerance; NaN never matches) and its simulated
// figures with the ones the first run established.
func (it *iteration) checkRun(what string, res *fortd.Result) {
	b := it.b
	for _, name := range sortedNames(b.ref.Arrays) {
		want, got := b.ref.Arrays[name], res.Arrays[name]
		if len(got) != len(want) {
			it.fail("%s: array %s has %d elements, reference %d", what, name, len(got), len(want))
			continue
		}
		for i := range want {
			if !(math.Abs(got[i]-want[i]) <= 1e-9) {
				it.fail("%s: %s[%d] = %v, reference %v", what, name, i, got[i], want[i])
				break
			}
		}
	}
	it.checkSim(what, simOf(res.Stats))
}

// checkSim pins the simulated metrics: the first call establishes
// them, every later one must match exactly.
func (it *iteration) checkSim(what string, got simStats) {
	b := it.b
	if !b.haveWant {
		b.want, b.haveWant = got, true
		return
	}
	if got != b.want {
		it.fail("%s: simulated metrics drifted: %v, first run %v", what, got, b.want)
	}
}

// pipelineTimes is one untraced iteration's measurements.
type pipelineTimes struct {
	compile, recompile, run float64
	allocMB, peakHeapMB     float64
}

// pipeline runs one untraced iteration: a cold compile into an empty
// summary cache, a warm recompile after the one-procedure edit, and a
// run of the compiled program. Checks happen after the timed part; ok
// is false when a step failed and the times are incomplete.
func (b *bench) pipeline(it *iteration, heap *heapSampler) (t pipelineTimes, ok bool) {
	opts := b.opts
	opts.Cache = fortd.NewSummaryCache()

	// Each timed call starts on a collected heap, so one call's garbage
	// is not collected on the next call's clock.
	runtime.GC()
	heap.reset()
	alloc0 := allocatedBytes()
	start := time.Now()
	prog, err := fortd.Compile(b.src, opts)
	t.compile = time.Since(start).Seconds()
	if err != nil {
		it.fail("cold compile: %v", err)
		return t, false
	}
	runtime.GC()
	start = time.Now()
	edited, err := fortd.Compile(b.edited, opts)
	t.recompile = time.Since(start).Seconds()
	if err != nil {
		it.fail("recompile: %v", err)
		return t, false
	}
	runtime.GC()
	start = time.Now()
	res, err := b.run.Run(prog)
	t.run = time.Since(start).Seconds()
	t.allocMB = float64(allocatedBytes()-alloc0) / (1 << 20)
	t.peakHeapMB = float64(heap.peak()) / (1 << 20)
	if err != nil {
		it.fail("run: %v", err)
		return t, false
	}

	if prog.Listing() != b.listing {
		it.fail("cold compile listing differs from the set-up compile")
	}
	if edited.Listing() != b.oracle {
		it.fail("warm recompile listing differs from a cold compile of the edited source")
	}
	it.checkRun("run", res)
	return t, true
}

// profiledTimes is one profiled run's measurements.
type profiledTimes struct {
	run, distill float64
	events       int
	profile      *profile.Profile
	stats        fortd.Stats
}

// profiledRun is the path of fdrun -profile and fdd ?profile=true: a
// traced run of the set-up program distilled into a profile artifact.
// The run and the distillation are timed separately.
func (b *bench) profiledRun(it *iteration) (t profiledTimes, ok bool) {
	tr := fortd.NewTrace()
	runner := fortd.NewRunner(fortd.WithInit(b.init), fortd.WithBackend(fortd.BackendDES), fortd.WithTrace(tr))
	runtime.GC()
	start := time.Now()
	res, err := runner.Run(b.prog)
	t.run = time.Since(start).Seconds()
	if err != nil {
		it.fail("traced run: %v", err)
		return t, false
	}
	start = time.Now()
	evs := tr.Events()
	t.profile = profile.FromEvents(evs, profile.Meta{
		ProgramHash: fortd.ProgramID(b.src, b.opts),
		Workload:    b.name,
		P:           b.prog.P(),
		Backend:     fortd.BackendDES.String(),
	})
	t.distill = time.Since(start).Seconds()
	t.events, t.stats = len(evs), res.Stats

	it.checkRun("traced run", res)
	if t.profile == nil {
		it.fail("profile: trace carried no machine activity")
		return t, false
	}
	if got := t.profile.BlockedShare(); got != b.want.blockedShare {
		it.fail("profile blocked share %v, untraced run %v", got, b.want.blockedShare)
	}
	if got := t.profile.Total.Time; got != b.want.time {
		it.fail("profile time %vµs, untraced run %vµs", got, b.want.time)
	}
	return t, true
}

// crossChecks run after the timed loop: the same program on the
// neighbouring seed's data must give the same simulated metrics, and
// the P=1 compile gives the speedup base. It returns the P=1 time.
func (b *bench) crossChecks() float64 {
	it := b.begin()
	alt, err := fortd.NewRunner(fortd.WithInit(b.altInit), fortd.WithBackend(fortd.BackendDES)).Run(b.prog)
	if err != nil {
		it.fail("run on seed %d data: %v", b.seed+1, err)
	} else {
		it.checkSim(fmt.Sprintf("run on seed %d data", b.seed+1), simOf(alt.Stats))
	}
	opts := b.opts
	opts.P = 1
	one, err := fortd.Compile(b.src, opts)
	if err != nil {
		it.fail("compile at P=1: %v", err)
		return 0
	}
	res, err := b.run.Run(one)
	if err != nil {
		it.fail("run at P=1: %v", err)
		return 0
	}
	return res.Stats.Time
}

// readMetric reads one uint64 runtime metric.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// allocatedBytes is the cumulative heap allocation of the process.
func allocatedBytes() uint64 { return readMetric("/gc/heap/allocs:bytes") }

// heapMetric is the heap occupied by objects, live or not yet swept.
const heapMetric = "/memory/classes/heap/objects:bytes"

func heapBytes() uint64 { return readMetric(heapMetric) }

// heapSampler polls the heap occupied by objects every millisecond and
// keeps the largest value seen since the last reset.
type heapSampler struct {
	max  atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		// one reused sample, so polling allocates nothing that
		// alloc_mb would count
		s := []metrics.Sample{{Name: heapMetric}}
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				metrics.Read(s)
				h.observe(s[0].Value.Uint64())
			}
		}
	}()
	return h
}

func (h *heapSampler) observe(v uint64) {
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// reset restarts the peak from the current heap size.
func (h *heapSampler) reset() { h.max.Store(heapBytes()) }

// peak returns the largest heap size since reset, including now.
func (h *heapSampler) peak() uint64 {
	h.observe(heapBytes())
	return h.max.Load()
}

// close stops the sampler and waits for its goroutine to exit.
func (h *heapSampler) close() {
	close(h.stop)
	h.wg.Wait()
}

// median returns the middle value of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is num/den, or 0 when den is 0, so a span of ~0 never turns a
// metric into NaN or Inf.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
