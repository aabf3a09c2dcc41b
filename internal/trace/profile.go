package trace

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
)

// ProcProfile breaks one processor's virtual clock into where the time
// went: useful computation, time spent injecting messages (send
// startup, remap transfers), and time blocked waiting on receives.
//
// ProcProfile, Hotspot and Bucket are also the row types of the
// internal/profile artifact: their JSON tags and field order are its
// schema, so do not rename or reorder them.
type ProcProfile struct {
	PID int `json:"pid"`
	// Clock is the processor's final virtual time.
	Clock float64 `json:"clock_us"`
	// Compute is Clock minus Send minus Blocked: time advancing the
	// clock through arithmetic.
	Compute float64 `json:"compute_us"`
	// Send is virtual time charged for message startup and remap
	// transfers on this processor.
	Send float64 `json:"send_us"`
	// Blocked is cumulative time stalled in Recv waiting for data.
	Blocked float64 `json:"blocked_us"`
}

// Busy is the non-blocked portion of the clock (compute + send).
func (p ProcProfile) Busy() float64 { return p.Clock - p.Blocked }

// Profile is the per-processor run profile derived from a traced
// simulated run: the time breakdown per processor, the load-imbalance
// ratio, and the critical path.
type Profile struct {
	Procs []ProcProfile
	// Imbalance is max busy time over mean busy time across
	// processors: 1.0 is a perfectly balanced run.
	Imbalance float64
	// CriticalPath is the longest dependence chain through the run in
	// virtual µs: per-processor execution chains joined by send→recv
	// edges wherever a receive actually blocked. A processor's clock
	// only advances through work or a wait on a message, so for a
	// complete trace it equals the parallel time.
	CriticalPath float64
}

// Hotspot is one communication site's total cost: every message the
// (procedure, line, operation) triple generated, with the time charged
// on the sending side (startup/transfer) and the receiving side
// (blocked waits).
type Hotspot struct {
	Proc string `json:"proc"`
	Line int    `json:"line"`
	// PID disambiguates unattributed sites (events carrying no
	// procedure context): it is the observing processor for those and
	// -1 for attributed sites, so two processors' unattributed costs
	// never collapse into one row.
	PID int    `json:"pid"`
	Op  string `json:"op"`
	// Msgs counts messages (a remap event counts its partner messages);
	// Words is the payload total.
	Msgs  int64 `json:"msgs"`
	Words int64 `json:"words"`
	// Send is sender-side injection time; Blocked is receiver-side
	// stall time attributed to the site, both in µs.
	Send    float64 `json:"send_us"`
	Blocked float64 `json:"blocked_us"`
	// CPShare estimates the fraction of the run's critical path this
	// site can occupy: the worst single processor's cost at the site
	// divided by the critical-path length. The aggregate Cost() can be
	// much larger — P processors blocking in parallel all charge the
	// same site — but a chain passes through one processor at a time.
	CPShare float64 `json:"cp_share"`
}

// Cost is the site's total communication time in µs.
func (h Hotspot) Cost() float64 { return h.Send + h.Blocked }

// CPSharePct is CPShare as a percentage (template convenience).
func (h Hotspot) CPSharePct() float64 { return 100 * h.CPShare }

// Site renders the site label ("DGEFA:12", or "(unattributed p3)" for
// an event stream that carried no procedure context).
func (h Hotspot) Site() string {
	if h.Proc == "" {
		if h.PID >= 0 {
			return fmt.Sprintf("(unattributed p%d)", h.PID)
		}
		return "(unattributed)"
	}
	if h.Line == 0 {
		return h.Proc
	}
	return fmt.Sprintf("%s:%d", h.Proc, h.Line)
}

// RankHotspots sorts hotspots by descending cost, then descending
// words, then site label and operation.
func RankHotspots(hs []Hotspot) {
	sort.Slice(hs, func(i, j int) bool {
		x, y := hs[i], hs[j]
		if x.Cost() != y.Cost() {
			return x.Cost() > y.Cost()
		}
		if x.Words != y.Words {
			return x.Words > y.Words
		}
		if x.Site() != y.Site() {
			return x.Site() < y.Site()
		}
		return x.Op < y.Op
	})
}

// Bucket is one message-size histogram bin: messages whose payload is
// in [Lo, Hi] words.
type Bucket struct {
	Lo    int   `json:"lo"`
	Hi    int   `json:"hi"`
	Msgs  int64 `json:"msgs"`
	Words int64 `json:"words"`
}

// Summary is what Fold distills from one run's events.
type Summary struct {
	// P is the processor count observed in the event stream: one past
	// the largest PID, Src or Dst of a simulator event.
	P int
	// Time is the parallel time (maximum processor clock).
	Time float64
	// Msgs and Words are the run totals (remap events weighted by their
	// partner count, matching machine.Stats).
	Msgs, Words int64
	// Hotspots is sorted by descending Cost.
	Hotspots []Hotspot
	// Histogram has one bucket per occupied power-of-two size class,
	// sorted by Lo.
	Histogram []Bucket
	// Profile is the per-processor breakdown (nil when the events carry
	// no end-of-run summaries).
	Profile *Profile
}

// Fold is the one aggregation over a simulated run's events: a single
// linear pass in emission order, with no sort of the events and no
// per-message map. It returns nil when the events contain no simulator
// activity (e.g. a compile-only trace).
//
// The critical path relies on how the machine emits events: each
// processor's events appear in program order, every message's send
// appears before its receive or wait, and Seq is (sender pid<<32 |
// sender's send counter 1, 2, ...). A tracer holding one run satisfies
// all three. A receive whose send has not been seen yet, or whose Seq
// lies outside the per-sender tables, is treated as unmatched: the
// receiver's chain resumes at the receive's end without the sender's
// chain.
func Fold(events []Event) *Summary {
	f := fold{sites: map[siteKey]*siteFold{}}
	for i := range events {
		f.add(&events[i])
	}
	return f.finish()
}

// fold is Fold's running state. Per-processor and per-sender tables
// are slices indexed by pid and by Seq's counter half.
type fold struct {
	s     Summary
	procs []procFold
	sums  []ProcProfile
	sites map[siteKey]*siteFold
	order []*siteFold // sites in first-seen order
	hist  [65]*Bucket // by size class; see addSize
}

// procFold is one processor's running totals.
type procFold struct {
	send  float64 // Dur of its sends and remaps
	clock float64 // its last end-of-run summary's clock
	// cp is the critical-path length of the chain ending at lastEnd,
	// the end of the processor's last communication event
	cp, lastEnd float64
	// sends[c-1] is the processor's send with counter c
	sends []sendFold
}

// sendFold is what a receive needs of its matching send.
type sendFold struct{ end, cp float64 }

type siteKey struct {
	proc string
	line int
	pid  int // -1 for attributed sites, observer PID otherwise
	op   string
}

type siteFold struct {
	Hotspot
	// perProc[pid] is one processor's share of the site's cost. The
	// critical path runs through a single processor at a time, so the
	// worst processor's cost bounds how much of it the site can occupy.
	perProc []float64
}

func (f *fold) add(ev *Event) {
	switch ev.Kind {
	case KindSend, KindRecv, KindWait, KindRemap:
		f.s.P = max(f.s.P, ev.Src+1, ev.Dst+1)
	case KindProcSummary, KindFault, KindAbort:
		// simulator events that carry no message
	default:
		return
	}
	f.s.P = max(f.s.P, ev.PID+1)
	if n := ev.PID + 1 - len(f.procs); n > 0 {
		f.procs = append(f.procs, make([]procFold, n)...)
	}
	pf := &f.procs[ev.PID]
	switch ev.Kind {
	case KindProcSummary:
		pf.clock = ev.Dur
		f.sums = append(f.sums, ProcProfile{PID: ev.PID, Clock: ev.Dur, Blocked: ev.Wait})
		return
	case KindFault, KindAbort:
		return
	}

	// the processor's chain arrives at this event after computing
	// through the gap since its last communication
	ready := pf.cp
	if gap := ev.Start - pf.lastEnd; gap > 0 {
		ready += gap
	}
	end := ev.Start + ev.Dur
	path := ready + ev.Dur
	h := f.site(ev)
	switch ev.Kind {
	case KindSend, KindRemap:
		weight := int64(1)
		if ev.Kind == KindRemap {
			weight = ev.Value
		}
		f.s.Msgs += weight
		f.s.Words += int64(ev.Words)
		h.Msgs += weight
		h.Words += int64(ev.Words)
		h.Send += ev.Dur
		pf.send += ev.Dur
		f.addSize(weight, int64(ev.Words))
		if ev.Kind == KindSend {
			if sf := f.sendSlot(ev.Seq, true); sf != nil {
				*sf = sendFold{end, path}
			}
		}
	case KindRecv, KindWait:
		h.Blocked += ev.Dur
		// blocked time is not chain work: the receiver's chain arrives
		// at `ready`, and if it stalled the message's in-flight time
		// from the sender's chain takes over. Unmatched, the edge ends
		// at the receive's end.
		path = ready
		if ev.Seq != 0 && ev.Dur > 0 {
			via := end
			if sf := f.sendSlot(ev.Seq, false); sf != nil {
				via = sf.cp + (end - sf.end)
			}
			if via > path {
				path = via
			}
		}
	}
	pf.cp, pf.lastEnd = path, end
}

// site returns the event's hotspot row and charges its Dur to the
// observing processor's share.
func (f *fold) site(ev *Event) *siteFold {
	k := siteKey{ev.Proc, ev.Line, -1, ev.Name}
	if ev.Proc == "" {
		// no procedure context: fall back to the observing processor
		// so distinct unattributed sites stay distinct rows
		k.pid = ev.PID
	}
	h := f.sites[k]
	if h == nil {
		h = &siteFold{Hotspot: Hotspot{Proc: ev.Proc, Line: ev.Line, PID: k.pid, Op: ev.Name}}
		f.sites[k] = h
		f.order = append(f.order, h)
	}
	if n := ev.PID + 1 - len(h.perProc); n > 0 {
		h.perProc = append(h.perProc, make([]float64, n)...)
	}
	h.perProc[ev.PID] += ev.Dur
	return h
}

// sendSlot returns the per-sender table slot of a message's Seq, or
// nil when the Seq names an unseen processor or counter. Counters are
// dense per sender, so with grow a sender's next counter opens a slot.
func (f *fold) sendSlot(seq int64, grow bool) *sendFold {
	hi, lo := seq>>32, seq&(1<<32-1)
	if hi < 0 || hi >= int64(len(f.procs)) || lo == 0 {
		return nil
	}
	sends := &f.procs[hi].sends
	if grow && lo == int64(len(*sends))+1 {
		*sends = append(*sends, sendFold{})
	}
	if lo > int64(len(*sends)) {
		return nil
	}
	return &(*sends)[lo-1]
}

// addSize files count messages carrying totalWords between them into
// the power-of-two size class [2^(k-1)+1, 2^k] of the per-message
// payload (zero-word messages get their own [0,0] class).
func (f *fold) addSize(count, totalWords int64) {
	words := 0
	if count > 0 {
		words = int(totalWords / count)
	}
	class, lo, hi := 0, 0, 0
	if words > 0 {
		k := bits.Len(uint(words - 1)) // ceil(log2(words))
		class, hi = k+1, 1<<k
		lo = hi/2 + 1
		if words == 1 {
			lo, hi = 1, 1
		}
	}
	b := f.hist[class]
	if b == nil {
		b = &Bucket{Lo: lo, Hi: hi}
		f.hist[class] = b
	}
	b.Msgs += count
	b.Words += totalWords
}

func (f *fold) finish() *Summary {
	if len(f.procs) == 0 {
		return nil // no simulator activity
	}
	s := &f.s
	for _, pf := range f.procs {
		if pf.clock > s.Time {
			s.Time = pf.clock
		}
	}
	var cp float64
	if len(f.sums) > 0 {
		sort.Slice(f.sums, func(i, j int) bool { return f.sums[i].PID < f.sums[j].PID })
		prof := &Profile{Procs: f.sums}
		var busySum, busyMax float64
		for i := range prof.Procs {
			pp := &prof.Procs[i]
			pf := &f.procs[pp.PID]
			pp.Send = pf.send
			if pp.Compute = pp.Clock - pp.Blocked - pp.Send; pp.Compute < 0 {
				pp.Compute = 0
			}
			busySum += pp.Busy()
			if pp.Busy() > busyMax {
				busyMax = pp.Busy()
			}
			path := pf.cp
			if tail := pp.Clock - pf.lastEnd; tail > 0 {
				path += tail // compute after the last communication
			}
			if path > prof.CriticalPath {
				prof.CriticalPath = path
			}
		}
		if mean := busySum / float64(len(prof.Procs)); mean > 0 {
			prof.Imbalance = busyMax / mean
		}
		s.Profile = prof
		cp = prof.CriticalPath
	}
	for _, h := range f.order {
		if cp > 0 {
			var worst float64
			for _, c := range h.perProc {
				if c > worst {
					worst = c
				}
			}
			h.CPShare = worst / cp
		}
		s.Hotspots = append(s.Hotspots, h.Hotspot)
	}
	RankHotspots(s.Hotspots)
	for _, b := range f.hist {
		if b != nil {
			s.Histogram = append(s.Histogram, *b)
		}
	}
	sort.Slice(s.Histogram, func(i, j int) bool { return s.Histogram[i].Lo < s.Histogram[j].Lo })
	return s
}

// WriteText renders the profile as text (the form the trace summary
// embeds).
func (p *Profile) WriteText(w io.Writer) error {
	if p == nil || len(p.Procs) == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "run profile:\n"); err != nil {
		return err
	}
	for _, pp := range p.Procs {
		pct := func(v float64) float64 {
			if pp.Clock <= 0 {
				return 0
			}
			return 100 * v / pp.Clock
		}
		fmt.Fprintf(w, "  p%-3d compute=%-11s (%5.1f%%)  send=%-10s (%5.1f%%)  blocked=%-10s (%5.1f%%)\n",
			pp.PID,
			fmt.Sprintf("%.1fµs", pp.Compute), pct(pp.Compute),
			fmt.Sprintf("%.1fµs", pp.Send), pct(pp.Send),
			fmt.Sprintf("%.1fµs", pp.Blocked), pct(pp.Blocked))
	}
	var maxClock float64
	for _, pp := range p.Procs {
		if pp.Clock > maxClock {
			maxClock = pp.Clock
		}
	}
	fmt.Fprintf(w, "  load imbalance %.2f (max/mean busy time)\n", p.Imbalance)
	if maxClock > 0 {
		fmt.Fprintf(w, "  critical path  %.1fµs (%.1f%% of %.1fµs parallel time)\n",
			p.CriticalPath, 100*p.CriticalPath/maxClock, maxClock)
	}
	return nil
}
