package profile

import (
	"math"
	"testing"

	"fortd/internal/trace"
)

// decodeEvents turns arbitrary bytes into an event stream, 12 bytes an
// event: any kind (including compile-side and unknown ones), processor
// numbers and Seq halves both inside and outside the tables, zero and
// negative remap weights, and no ordering guarantee at all. Times are
// finite, so any NaN or Inf in the profile is the fold's own doing.
func decodeEvents(data []byte) []trace.Event {
	names := []string{"send", "bcast", "remap"}
	procs := []string{"", "MAIN", "F1"}
	var evs []trace.Event
	for ; len(data) >= 12; data = data[12:] {
		b := data[:12]
		evs = append(evs, trace.Event{
			Kind:  trace.Kind(b[0] % 10),
			PID:   int(b[1] % 8),
			Src:   int(b[2] % 8),
			Dst:   int(b[3] % 8),
			Words: int(b[4]),
			Start: float64(uint16(b[5])<<8|uint16(b[6])) / 4,
			Dur:   float64(b[7]) / 2,
			Wait:  float64(b[7]) / 4,
			Seq:   int64(int8(b[8]))%10<<32 | int64(b[9]%6),
			Value: int64(int8(b[10])),
			Line:  int(b[11] % 4),
			Name:  names[b[11]>>2%3],
			Proc:  procs[b[11]>>4%3],
		})
	}
	return evs
}

// FuzzProfileFromEvents: FromEvents never panics on any event stream,
// and never emits a NaN or infinite figure — Marshal rejects both, and
// the derived ratios are checked directly.
func FuzzProfileFromEvents(f *testing.F) {
	// a matched send/recv pair plus both processors' summaries
	f.Add([]byte{
		2, 0, 0, 1, 4, 0, 40, 20, 0, 1, 1, 0x15,
		3, 1, 0, 1, 4, 0, 10, 90, 0, 1, 1, 0x15,
		5, 0, 0, 0, 0, 0, 0, 200, 0, 0, 0, 0,
		5, 1, 0, 0, 0, 0, 0, 220, 0, 0, 0, 0,
	})
	// a remap with a negative weight and a wait naming an unseen sender
	f.Add([]byte{
		4, 3, 3, 3, 9, 0, 1, 8, 0, 0, 0xf0, 0x28,
		8, 2, 9, 2, 1, 0, 0, 7, 9, 5, 0, 0,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := FromEvents(decodeEvents(data), Meta{})
		if p == nil {
			return
		}
		if _, err := p.Marshal(); err != nil {
			t.Fatalf("marshal: %v", err)
		}
		for _, v := range []float64{p.BlockedShare(), p.Imbalance()} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("derived ratio %v", v)
			}
		}
	})
}
