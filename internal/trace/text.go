package trace

import (
	"fmt"
	"io"
	"sort"
)

// faultLine aggregates one injected-fault kind for the text summary.
type faultLine struct {
	name  string
	count int64
	dur   float64
}

// WriteText renders the tracer's collected events with the package
// function of the same name.
func (t *Tracer) WriteText(w io.Writer) error { return WriteText(w, t.Events()) }

// WriteText renders the human-readable trace summary: compile phase
// timings and counters, the top communication sites by volume, the
// attribution rate, and per-processor utilization. Sections with no
// events are omitted, so a run-only trace contains no compiler lines
// and its output is fully deterministic (virtual time only).
func WriteText(w io.Writer, events []Event) error {
	// the run totals, sites and profile fold the events in emission
	// order; the listing sections below read a sorted copy
	run := Fold(events)
	events = sorted(events)
	var phases, counters, sums, aborts []Event
	faults := map[string]*faultLine{}
	var msgs, words, remaps, attributed int64
	var sites []Hotspot
	if run != nil {
		msgs, words = run.Msgs, run.Words
		for _, h := range run.Hotspots {
			if h.Msgs == 0 {
				continue // a site seen only through its receives
			}
			sites = append(sites, h)
			if h.Proc != "" {
				attributed += h.Msgs
			}
		}
	}
	for _, ev := range events {
		switch ev.Kind {
		case KindPhase:
			phases = append(phases, ev)
		case KindCounter:
			counters = append(counters, ev)
		case KindProcSummary:
			sums = append(sums, ev)
		case KindAbort:
			aborts = append(aborts, ev)
		case KindFault:
			fl := faults[ev.Name]
			if fl == nil {
				fl = &faultLine{name: ev.Name}
				faults[ev.Name] = fl
			}
			fl.count++
			fl.dur += ev.Dur
		case KindRemap:
			remaps++
		}
	}

	if _, err := fmt.Fprintf(w, "=== trace summary ===\n"); err != nil {
		return err
	}

	if len(phases) > 0 {
		// phases are reported in start order, which New's single-pass
		// pipeline makes the natural reading order
		fmt.Fprintf(w, "\ncompile phases:\n")
		for _, ev := range phases {
			fmt.Fprintf(w, "  %-28s %10.1fµs\n", ev.Name, ev.Dur)
		}
	}
	if len(counters) > 0 {
		fmt.Fprintf(w, "\ncompile counters:\n")
		for _, ev := range counters {
			fmt.Fprintf(w, "  %-28s %10d\n", ev.Name, ev.Value)
		}
	}

	fmt.Fprintf(w, "\nrun: %d messages, %d words", msgs, words)
	if remaps > 0 {
		fmt.Fprintf(w, " (%d remap events)", remaps)
	}
	fmt.Fprintf(w, "\n")

	if len(faults) > 0 {
		names := make([]string, 0, len(faults))
		for name := range faults {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "injected faults (seeded fault plan):\n")
		for _, name := range names {
			fl := faults[name]
			switch name {
			case "straggler":
				// Dur carries the flop-cost multiplier, not a time
				fmt.Fprintf(w, "  %-12s count=%-6d\n", name, fl.count)
			default:
				fmt.Fprintf(w, "  %-12s count=%-6d total=%.1fµs\n", name, fl.count, fl.dur)
			}
		}
	}
	if len(aborts) > 0 {
		fmt.Fprintf(w, "aborted processors:\n")
		for _, ev := range aborts {
			site := "(unattributed)"
			if ev.Proc != "" {
				site = fmt.Sprintf("%s:%d", ev.Proc, ev.Line)
			}
			fmt.Fprintf(w, "  p%-3d %-9s p%d->p%d at %-18s clock=%.1fµs\n",
				ev.PID, ev.Name, ev.Src, ev.Dst, site, ev.Start)
		}
	}

	if len(sites) > 0 {
		label := func(h Hotspot) string { return h.Site() + " " + h.Op }
		sort.Slice(sites, func(i, j int) bool {
			a, b := sites[i], sites[j]
			if a.Words != b.Words {
				return a.Words > b.Words
			}
			if a.Msgs != b.Msgs {
				return a.Msgs > b.Msgs
			}
			return label(a) < label(b)
		})
		fmt.Fprintf(w, "communication sites (by words):\n")
		const maxSites = 12
		for i, h := range sites {
			if i >= maxSites {
				fmt.Fprintf(w, "  ... %d more sites\n", len(sites)-maxSites)
				break
			}
			fmt.Fprintf(w, "  %-24s msgs=%-7d words=%d\n", label(h), h.Msgs, h.Words)
		}
		pct := 100.0
		if msgs > 0 {
			pct = 100 * float64(attributed) / float64(msgs)
		}
		fmt.Fprintf(w, "attribution: %.1f%% of %d messages carry a source procedure\n", pct, msgs)
	}

	if len(sums) > 0 {
		sort.Slice(sums, func(i, j int) bool { return sums[i].PID < sums[j].PID })
		var maxClock float64
		for _, ev := range sums {
			if ev.Dur > maxClock {
				maxClock = ev.Dur
			}
		}
		fmt.Fprintf(w, "\nper-processor (parallel time %.1fµs):\n", maxClock)
		for _, ev := range sums {
			busy := 100.0
			if ev.Dur > 0 {
				busy = 100 * (ev.Dur - ev.Wait) / ev.Dur
			}
			fmt.Fprintf(w, "  p%-3d clock=%-11s busy=%5.1f%%  sent=%-6d recvd=%-6d words=%-8d flops=%-8d wait=%.1fµs\n",
				ev.PID, fmt.Sprintf("%.1fµs", ev.Dur), busy, ev.Sent, ev.Recvd, int64(ev.Words), ev.Flops, ev.Wait)
		}
		fmt.Fprintf(w, "\n")
		if err := run.Profile.WriteText(w); err != nil {
			return err
		}
	}
	return nil
}
