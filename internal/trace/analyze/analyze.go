// Package analyze turns a simulated run's trace.Event stream into the
// communication-analysis artifacts the paper reasons with (§4–§9): a
// P×P traffic matrix, a ranking of (procedure, line, operation) sites
// by communication cost, message-size histograms, a time-binned
// utilization timeline, and — via the Sweep helper — processor-scaling
// speedup/efficiency curves. The sites, histogram and per-processor
// breakdown come from trace.Fold; Analyze adds the matrix, timeline,
// faults and aborts. It is a pure post-processing layer: it reads
// collected events only, so untraced runs pay nothing for it.
package analyze

import (
	"fmt"
	"io"
	"sort"

	"fortd/internal/trace"
)

// Matrix is the P×P communication matrix: one cell per src→dst pair.
// Remap traffic, which has no single destination, lands on the
// diagonal, mirroring machine.Stats.Traffic.
type Matrix struct {
	P     int
	Msgs  [][]int64
	Words [][]int64
	// Cost is the virtual time the pair's traffic occupied: sender
	// injection time (message startups, remap transfers) plus receiver
	// blocked time, in µs.
	Cost [][]float64
}

// FaultStat aggregates one injected-fault kind (machine.FaultPlan):
// how many faults of that kind fired and their total injected time
// ("delay": delivery delay; "dup-drop": receiver stall; "straggler":
// Dur is a multiplier, so Time is meaningless and left as the sum).
type FaultStat struct {
	Name  string
	Count int64
	Time  float64
}

// Abort is one processor's termination record from an aborted run:
// what it was blocked in when the cooperative abort (or deadlock
// detection) unblocked it.
type Abort struct {
	PID      int
	Reason   string // "abort" or "deadlock"
	Proc     string
	Line     int
	Src, Dst int
	Clock    float64
}

// TimeBin is one slot of the utilization timeline: processor-µs spent
// in each state across all processors during the bin's window.
type TimeBin struct {
	Start   float64
	Send    float64
	Blocked float64
	Compute float64
}

// Analysis is the full post-run communication analysis: the
// trace.Fold summary (P, parallel time, totals, ranked hotspots, size
// histogram, per-processor profile) plus the views only the report
// needs.
type Analysis struct {
	trace.Summary
	Matrix *Matrix
	// Timeline is the binned utilization; BinWidth is each bin's µs.
	Timeline []TimeBin
	BinWidth float64
	// Faults summarizes injected faults by kind (empty without a fault
	// plan), sorted by name; Aborts lists aborted processors in event
	// order (empty for a clean run).
	Faults []FaultStat
	Aborts []Abort
}

// timelineBins is the default timeline resolution.
const timelineBins = 64

// Analyze derives the communication analysis from collected events.
// It returns nil when the events contain no simulator activity (e.g. a
// compile-only trace).
func Analyze(events []trace.Event) *Analysis {
	s := trace.Fold(events)
	if s == nil {
		return nil
	}
	a := &Analysis{Summary: *s, Matrix: newMatrix(s.P)}
	a.BinWidth = a.Time / timelineBins
	bins := make([]TimeBin, timelineBins)
	for i := range bins {
		bins[i].Start = float64(i) * a.BinWidth
	}
	addSpan := func(start, dur float64, f func(*TimeBin, float64)) {
		if a.BinWidth <= 0 || dur <= 0 {
			return
		}
		for i := range bins {
			lo := bins[i].Start
			hi := lo + a.BinWidth
			ov := overlap(start, start+dur, lo, hi)
			if ov > 0 {
				f(&bins[i], ov)
			}
		}
	}

	var clocks []float64
	faults := map[string]*FaultStat{}
	for _, ev := range events {
		switch ev.Kind {
		case trace.KindSend, trace.KindRemap:
			weight := int64(1)
			dst := ev.Dst
			if ev.Kind == trace.KindRemap {
				weight = ev.Value
				dst = ev.Src // diagonal
			}
			a.Matrix.Msgs[ev.Src][dst] += weight
			a.Matrix.Words[ev.Src][dst] += int64(ev.Words)
			a.Matrix.Cost[ev.Src][dst] += ev.Dur
			addSpan(ev.Start, ev.Dur, func(b *TimeBin, ov float64) { b.Send += ov })
		case trace.KindRecv, trace.KindWait:
			a.Matrix.Cost[ev.Src][ev.Dst] += ev.Dur
			addSpan(ev.Start, ev.Dur, func(b *TimeBin, ov float64) { b.Blocked += ov })
		case trace.KindProcSummary:
			for len(clocks) < ev.PID+1 {
				clocks = append(clocks, 0)
			}
			clocks[ev.PID] = ev.Dur
		case trace.KindFault:
			fs := faults[ev.Name]
			if fs == nil {
				fs = &FaultStat{Name: ev.Name}
				faults[ev.Name] = fs
			}
			fs.Count++
			fs.Time += ev.Dur
		case trace.KindAbort:
			a.Aborts = append(a.Aborts, Abort{
				PID: ev.PID, Reason: ev.Name,
				Proc: ev.Proc, Line: ev.Line,
				Src: ev.Src, Dst: ev.Dst, Clock: ev.Start,
			})
		}
	}
	for _, fs := range faults {
		a.Faults = append(a.Faults, *fs)
	}
	sort.Slice(a.Faults, func(i, j int) bool { return a.Faults[i].Name < a.Faults[j].Name })

	// compute time per bin: each live processor's window minus its
	// communication time in the bin, summed machine-wide
	for i := range bins {
		lo := bins[i].Start
		hi := lo + a.BinWidth
		var live float64
		for _, c := range clocks {
			live += overlap(0, c, lo, hi)
		}
		if c := live - bins[i].Send - bins[i].Blocked; c > 0 {
			bins[i].Compute = c
		}
	}
	if a.BinWidth > 0 {
		a.Timeline = bins
	}
	return a
}

func newMatrix(p int) *Matrix {
	m := &Matrix{P: p,
		Msgs:  make([][]int64, p),
		Words: make([][]int64, p),
		Cost:  make([][]float64, p),
	}
	for i := 0; i < p; i++ {
		m.Msgs[i] = make([]int64, p)
		m.Words[i] = make([]int64, p)
		m.Cost[i] = make([]float64, p)
	}
	return m
}

func overlap(aLo, aHi, bLo, bHi float64) float64 {
	lo, hi := aLo, aHi
	if bLo > lo {
		lo = bLo
	}
	if bHi < hi {
		hi = bHi
	}
	if hi > lo {
		return hi - lo
	}
	return 0
}

// WriteText renders the analysis' machine-readable core — the traffic
// matrix and the hotspot table — as fixed-width text. The output is
// fully deterministic for a deterministic run and is pinned by a golden
// test.
func (a *Analysis) WriteText(w io.Writer) error {
	if a == nil {
		return nil
	}
	if _, err := fmt.Fprintf(w, "=== communication analysis ===\n"); err != nil {
		return err
	}
	fmt.Fprintf(w, "P=%d  parallel time %.1fµs  msgs=%d  words=%d\n",
		a.P, a.Time, a.Msgs, a.Words)

	fmt.Fprintf(w, "\ntraffic matrix (msgs/words, src rows x dst cols; remaps on the diagonal):\n")
	fmt.Fprintf(w, "%8s", "")
	for d := 0; d < a.P; d++ {
		fmt.Fprintf(w, " %14s", fmt.Sprintf("p%d", d))
	}
	fmt.Fprintf(w, "\n")
	for s := 0; s < a.P; s++ {
		fmt.Fprintf(w, "%8s", fmt.Sprintf("p%d", s))
		for d := 0; d < a.P; d++ {
			if a.Matrix.Msgs[s][d] == 0 {
				fmt.Fprintf(w, " %14s", ".")
				continue
			}
			fmt.Fprintf(w, " %14s", fmt.Sprintf("%d/%d", a.Matrix.Msgs[s][d], a.Matrix.Words[s][d]))
		}
		fmt.Fprintf(w, "\n")
	}

	fmt.Fprintf(w, "\ncommunication hotspots (by cost = send + blocked time):\n")
	fmt.Fprintf(w, "  %-18s %-10s %7s %9s %11s %12s %10s %7s\n",
		"site", "op", "msgs", "words", "send(µs)", "blocked(µs)", "cost(µs)", "%crit")
	const maxHotspots = 12
	for i, h := range a.Hotspots {
		if i >= maxHotspots {
			fmt.Fprintf(w, "  ... %d more sites\n", len(a.Hotspots)-maxHotspots)
			break
		}
		fmt.Fprintf(w, "  %-18s %-10s %7d %9d %11.1f %12.1f %10.1f %6.1f%%\n",
			h.Site(), h.Op, h.Msgs, h.Words, h.Send, h.Blocked, h.Cost(), 100*h.CPShare)
	}

	if len(a.Histogram) > 0 {
		fmt.Fprintf(w, "\nmessage sizes:\n")
		for _, b := range a.Histogram {
			rng := fmt.Sprintf("%d-%d words", b.Lo, b.Hi)
			if b.Lo == b.Hi {
				rng = fmt.Sprintf("%d words", b.Lo)
			}
			fmt.Fprintf(w, "  %-16s msgs=%-8d words=%d\n", rng, b.Msgs, b.Words)
		}
	}

	if len(a.Faults) > 0 {
		fmt.Fprintf(w, "\ninjected faults:\n")
		for _, fs := range a.Faults {
			if fs.Name == "straggler" {
				// Time holds flop-cost multipliers, not µs
				fmt.Fprintf(w, "  %-12s count=%d\n", fs.Name, fs.Count)
				continue
			}
			fmt.Fprintf(w, "  %-12s count=%-8d total=%.1fµs\n", fs.Name, fs.Count, fs.Time)
		}
	}
	if len(a.Aborts) > 0 {
		fmt.Fprintf(w, "\naborted processors:\n")
		for _, ab := range a.Aborts {
			site := "(unattributed)"
			if ab.Proc != "" {
				site = fmt.Sprintf("%s:%d", ab.Proc, ab.Line)
			}
			fmt.Fprintf(w, "  p%-3d %-9s p%d->p%d at %-18s clock=%.1fµs\n",
				ab.PID, ab.Reason, ab.Src, ab.Dst, site, ab.Clock)
		}
	}
	return nil
}
