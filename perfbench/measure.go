package main

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"fortd"
	"fortd/internal/explain"
	"fortd/internal/parser"
	"fortd/internal/trace"
)

// pipelineShare is the part of a run's measuring time spent on the
// untraced pipeline; the profiled runs get the rest.
const pipelineShare = 0.6

// metric is one reported figure. samples is the number of values the
// median was taken over (1 for a count that repeats exactly).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (b *bench) result(ms map[string]metric) *result {
	return &result{
		Correct:   b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   ms,
	}
}

// timed is the median of samples in unit "s".
func timed(samples []float64) metric {
	return metric{Value: median(samples), Unit: "s", samples: len(samples)}
}

// exact is a figure that repeats exactly, measured once.
func exact(v float64, unit string) metric { return metric{Value: v, Unit: unit, samples: 1} }

// endToEnd measures what a user of the compiler and simulator sees,
// with tracing off except where tracing is the feature (profiled_run_s).
func endToEnd(s spec, seed int64, seconds time.Duration, log io.Writer) (*result, error) {
	b, setup, err := setUpRepeated(s, seed, log)
	if err != nil {
		return nil, err
	}
	heap := startHeapSampler()
	defer heap.close()

	// warm-up: fills pools and lazy state, and fixes the simulated
	// metrics every later run must repeat
	b.pipeline(b.begin(), heap)
	b.profiledRun(b.begin())

	// The two stages interleave over the whole measuring time, each
	// taking the next turn while it is behind its share, so both see
	// the same host conditions.
	var compile, recompile, run, alloc, peak, profiled []float64
	var pipelineTime, profiledTime time.Duration
	start := time.Now()
	for n, m := 0, 0; n < minSamples || m < minSamples || time.Since(start) < seconds; {
		t0 := time.Now()
		if float64(profiledTime) >= (1-pipelineShare)*float64(pipelineTime+profiledTime) || n < minSamples && m >= minSamples {
			n++
			if t, ok := b.pipeline(b.begin(), heap); ok {
				compile = append(compile, t.compile)
				recompile = append(recompile, t.recompile)
				run = append(run, t.run)
				alloc = append(alloc, t.allocMB)
				peak = append(peak, t.peakHeapMB)
			}
			pipelineTime += time.Since(t0)
		} else {
			m++
			if t, ok := b.profiledRun(b.begin()); ok {
				profiled = append(profiled, t.run+t.distill)
			}
			profiledTime += time.Since(t0)
		}
	}
	oneProc := b.crossChecks()

	return b.result(map[string]metric{
		"setup_s":        timed(setup),
		"compile_s":      timed(compile),
		"recompile_s":    timed(recompile),
		"run_s":          timed(run),
		"profiled_run_s": timed(profiled),
		"alloc_mb":       {Value: median(alloc), Unit: "MB", samples: len(alloc)},
		"peak_heap_mb":   {Value: median(peak), Unit: "MB", samples: len(peak)},
		"sim_time_us":    exact(b.want.time, "sim_us"),
		"sim_speedup":    exact(ratio(oneProc, b.want.time), "x"),
		"msgs":           exact(float64(b.want.msgs), "count"),
		"words":          exact(float64(b.want.words), "count"),
		"blocked_share":  exact(b.want.blockedShare, "share"),
	}), nil
}

// compilePhases maps the compile-phase span names Options.Trace emits
// to the per-layer metric each feeds. Every "codegen <proc>" span adds
// to codegen.busy_s, summed across workers.
var compilePhases = map[string]string{
	"acg-build":               "acg.build_s",
	"reaching-decompositions": "reach.analyze_s",
	"section-analysis":        "comm.sections_s",
	"overlap-estimates":       "overlap.estimates_s",
	"symbolic-constants":      "symconst.compute_s",
	"overlap-schedule":        "sched.schedule_s",
}

// layers measures the per-layer figures from outside the program: the
// time of each public layer call, the compile-phase spans Options.Trace
// already emits, and the counts the compiler and machine report.
func layers(s spec, seed int64, seconds time.Duration, log io.Writer) (*result, error) {
	b, err := setUp(s, seed, log)
	if err != nil {
		return nil, err
	}
	// the first run fixes the simulated metrics later runs must repeat
	it := b.begin()
	warm, err := b.run.Run(b.prog)
	if err != nil {
		it.fail("run: %v", err)
	} else {
		it.checkRun("run", warm)
	}

	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	var hits, misses int
	var last profiledTimes
	var refFlops int64
	start := time.Now()
	for n := 0; n < minSamples || time.Since(start) < seconds; n++ {
		it := b.begin()

		runtime.GC()
		t0 := time.Now()
		if _, err := parser.Parse(b.src); err != nil {
			it.fail("parse: %v", err)
			continue
		}
		add("parser.parse_s", time.Since(t0).Seconds())

		// compile-phase spans from a traced cold compile
		opts := b.opts
		opts.Trace = fortd.NewTrace()
		runtime.GC()
		prog, err := fortd.Compile(b.src, opts)
		if err != nil {
			it.fail("traced compile: %v", err)
			continue
		}
		phase := map[string]float64{"codegen.busy_s": 0}
		for _, name := range compilePhases {
			phase[name] = 0
		}
		for _, ev := range opts.Trace.Events() {
			if ev.Kind != trace.KindPhase {
				continue
			}
			if strings.HasPrefix(ev.Name, "codegen ") {
				phase["codegen.busy_s"] += ev.Dur / 1e6
			} else if name, ok := compilePhases[ev.Name]; ok {
				phase[name] += ev.Dur / 1e6
			}
		}
		for name, v := range phase {
			add(name, v)
		}
		if prog.Listing() != b.listing {
			it.fail("traced compile listing differs from the set-up compile")
		}

		// summary cache: the edited recompile's misses, then an all-hit
		// recompile of the base source
		opts = b.opts
		opts.Cache = fortd.NewSummaryCache()
		if _, err := fortd.Compile(b.src, opts); err != nil {
			it.fail("cold compile: %v", err)
			continue
		}
		edited, err := fortd.Compile(b.edited, opts)
		if err != nil {
			it.fail("recompile: %v", err)
			continue
		}
		if edited.Listing() != b.oracle {
			it.fail("warm recompile listing differs from a cold compile of the edited source")
		}
		hits, misses = len(edited.CacheHits()), len(edited.CacheMisses())
		runtime.GC()
		t0 = time.Now()
		if _, err := fortd.Compile(b.src, opts); err != nil {
			it.fail("warm compile: %v", err)
			continue
		}
		add("summarycache.warm_s", time.Since(t0).Seconds())

		// sequential evaluator, P-way run, traced run and distillation
		runtime.GC()
		t0 = time.Now()
		ref, err := b.run.RunReference(b.prog)
		reference := time.Since(t0).Seconds()
		if err != nil {
			it.fail("reference run: %v", err)
			continue
		}
		refFlops = ref.Stats.Flops
		add("spmd.reference_s", reference)
		runtime.GC()
		t0 = time.Now()
		res, err := b.run.Run(b.prog)
		run := time.Since(t0).Seconds()
		if err != nil {
			it.fail("run: %v", err)
			continue
		}
		it.checkRun("run", res)
		add("spmd.parallel_overhead_s", run-reference)
		pt, ok := b.profiledRun(it)
		if !ok {
			continue
		}
		add("trace.overhead_s", pt.run-run)
		add("profile.distill_s", pt.distill)
		last = pt
	}

	// counts that repeat exactly: the code-generation report and the
	// schedule pass's explain remarks, from one compile
	opts := b.opts
	opts.Explain = fortd.NewExplain()
	prog, err := fortd.Compile(b.src, opts)
	if err != nil {
		return nil, fmt.Errorf("explain compile: %w", err)
	}
	var applied, missed int
	for _, r := range opts.Explain.Remarks() {
		if r.Pass != "sched" {
			continue
		}
		switch r.Kind {
		case explain.Applied:
			applied++
		case explain.Missed:
			missed++
		}
	}
	rep := prog.Report()
	var blocked float64
	for _, pp := range last.stats.PerProc {
		blocked += pp.Wait
	}

	ms := map[string]metric{
		"codegen.messages_inserted": exact(float64(rep.Messages), "count"),
		"codegen.guards_inserted":   exact(float64(rep.Guards), "count"),
		"codegen.loops_reduced":     exact(float64(rep.LoopsReduced), "count"),
		"codegen.remaps_inserted":   exact(float64(rep.Remaps), "count"),
		"reach.clones":              exact(float64(rep.Cloned), "count"),
		"sched.applied":             exact(float64(applied), "count"),
		"sched.missed":              exact(float64(missed), "count"),
		"summarycache.hit_rate":     exact(ratio(float64(hits), float64(hits+misses)), "ratio"),
		"summarycache.reanalyzed":   exact(float64(misses), "count"),
		"spmd.flops":                exact(float64(last.stats.Flops), "count"),
		"machine.bcast_msgs":        exact(float64(last.stats.Broadcast), "count"),
		"machine.remaps":            exact(float64(last.stats.Remaps), "count"),
		"machine.blocked_us":        exact(blocked, "sim_us"),
		"machine.imbalance":         exact(last.profile.Imbalance(), "ratio"),
		"trace.events":              exact(float64(last.events), "count"),
	}
	for name, xs := range samples {
		ms[name] = timed(xs)
	}
	ref := ms["spmd.reference_s"]
	ms["spmd.ns_per_flop"] = metric{Value: 1e9 * ratio(ref.Value, float64(refFlops)), Unit: "ns/flop", samples: ref.samples}
	return b.result(ms), nil
}
