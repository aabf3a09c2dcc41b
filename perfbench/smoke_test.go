package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// contract is the part of BENCHMARK.json the printed result must match.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestWorkloadsMatchContract pins the workload list to BENCHMARK.json.
func TestWorkloadsMatchContract(t *testing.T) {
	c := loadContract(t)
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, perfbench %v", names, workloadNames)
	}
}

// TestSmoke runs every workload at a tiny size in both modes and checks
// that the last output line carries exactly the contract's metrics,
// each with its unit and a finite value, and that no check failed.
func TestSmoke(t *testing.T) {
	c := loadContract(t)
	for _, name := range workloadNames {
		s, err := specFor(name, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			if traced {
				for _, m := range c.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range c.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			var log bytes.Buffer
			res, err := measure(s, 7, 0, traced, &log)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			var out bytes.Buffer
			if err := report(&out, s, 7, traced, res); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var got struct {
				Correct   *bool                      `json:"correct"`
				Attempted *int                       `json:"attempted"`
				Failed    *int                       `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&got); err != nil {
				t.Fatalf("%s traced=%v: last line is not the result object: %v", name, traced, err)
			}
			if got.Correct == nil || got.Attempted == nil || got.Failed == nil {
				t.Fatalf("%s traced=%v: result line lacks correct, attempted or failed", name, traced)
			}
			if !*got.Correct || *got.Attempted < 1 || *got.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					name, traced, *got.Correct, *got.Attempted, *got.Failed, log.String())
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, contract has %d", name, traced, len(got.Metrics), len(want))
			}
			for metricName, unit := range want {
				raw, ok := got.Metrics[metricName]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", name, traced, metricName)
					continue
				}
				var m metric
				if err := json.Unmarshal(raw, &m); err != nil {
					t.Fatal(err)
				}
				if m.Unit != unit {
					t.Errorf("%s: %s unit %q, contract %q", name, metricName, m.Unit, unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v", name, metricName, m.Value)
				}
				if !strings.Contains(out.String(), metricName) {
					t.Errorf("%s: %s missing from the printed table", name, metricName)
				}
			}
		}
	}
}

// TestEditIsBodyOnly checks the seeded recompile edit: it changes one
// line of the chosen procedure and depends only on the seed.
func TestEditIsBodyOnly(t *testing.T) {
	s, err := specFor("compile", false)
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.bind(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.bind(3)
	if err != nil {
		t.Fatal(err)
	}
	if a.edited != b.edited || a.editedAt != b.editedAt {
		t.Fatal("same seed, different edit")
	}
	before, after := strings.Split(a.src, "\n"), strings.Split(a.edited, "\n")
	if len(before) != len(after) {
		t.Fatal("edit changed the line count")
	}
	changed := 0
	for i := range before {
		if before[i] != after[i] {
			changed++
		}
	}
	if changed != 1 {
		t.Fatalf("edit changed %d lines, want 1", changed)
	}
}

// TestDominantMatrix checks the dgefa input stays strictly diagonally
// dominant, so pivot-free elimination matches the reference.
func TestDominantMatrix(t *testing.T) {
	s, err := specFor("dgefa", false)
	if err != nil {
		t.Fatal(err)
	}
	in, err := s.bind(11)
	if err != nil {
		t.Fatal(err)
	}
	a := in.init["a"]
	n := int(math.Sqrt(float64(len(a))))
	for i := 0; i < n; i++ {
		off := 0.0
		for j := 0; j < n; j++ {
			if j != i {
				off += math.Abs(a[i*n+j])
			}
		}
		if off >= math.Abs(a[i*n+i]) {
			t.Fatalf("row %d: off-diagonal sum %v >= diagonal %v", i, off, a[i*n+i])
		}
	}
}
