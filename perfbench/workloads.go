package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strings"

	"fortd"
)

// spec is one benchmark workload: a fixed source shape from the fortd
// generators plus the seeded pieces — the input arrays and, for the
// compile workload, which procedure the recompile edits and the
// constant it writes.
type spec struct {
	name string
	src  string
	jobs int
	// editProc names the procedure the recompile edits when the edit is
	// not seeded (every workload but compile).
	editProc string
	// editChoices, when non-empty, lists the procedures a seed picks
	// the edited one from (the compile workload).
	editChoices []string
	// inputs generates the main program's initial arrays.
	inputs func(rng *rand.Rand) map[string][]float64
}

// instance is a spec bound to one seed.
type instance struct {
	spec
	seed     int64
	editedAt string // procedure the recompile edit touched
	edited   string // source after the one-procedure body edit
	init     map[string][]float64
	// altInit is the input for the neighbouring seed, used to check
	// that the simulated metrics do not depend on the data.
	altInit map[string][]float64
}

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"compile", "dgefa", "remap"}

// specFor returns the named workload at full size, or at a tiny size
// (for the smoke test) when tiny is set.
func specFor(name string, tiny bool) (spec, error) {
	pick := func(full, small int) int {
		if tiny {
			return small
		}
		return full
	}
	switch name {
	case "compile":
		nsubs, loops, n, p := pick(64, 3), pick(12, 2), 32, pick(8, 4)
		var procs []string
		for i := 1; i <= nsubs; i++ {
			procs = append(procs, fmt.Sprintf("s%d", i))
		}
		return spec{
			name:        name,
			src:         fortd.SyntheticProcsSrc(nsubs, loops, n, p),
			jobs:        2,
			editChoices: procs,
			inputs: func(rng *rand.Rand) map[string][]float64 {
				init := map[string][]float64{}
				for i := 1; i <= nsubs; i++ {
					init[fmt.Sprintf("a%d", i)] = uniform(rng, n, 0, 1)
				}
				return init
			},
		}, nil
	case "dgefa":
		n, p := pick(128, 16), pick(64, 4)
		return spec{
			name:     name,
			src:      fortd.DgefaSrc(n, p),
			editProc: "idamax",
			inputs: func(rng *rand.Rand) map[string][]float64 {
				return map[string][]float64{"a": dominantMatrix(rng, n)}
			},
		}, nil
	case "remap":
		n, steps, p := pick(4096, 64), pick(3, 1), pick(256, 8)
		return spec{
			name:     name,
			src:      fortd.Fig15ScaledSrc(n, steps, p),
			editProc: "F2",
			inputs: func(rng *rand.Rand) map[string][]float64 {
				return map[string][]float64{"X": uniform(rng, n, -1, 1)}
			},
		}, nil
	}
	return spec{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// bind draws the seeded pieces of s. The seed changes only data and
// the compile workload's edit, never the shape of the source.
func (s spec) bind(seed int64) (*instance, error) {
	in := &instance{spec: s, seed: seed, editedAt: s.editProc}
	rng := rand.New(rand.NewSource(seed))
	constant := 2
	if len(s.editChoices) > 0 {
		in.editedAt = s.editChoices[rng.Intn(len(s.editChoices))]
		constant = 2 + rng.Intn(998)
	}
	edited, err := editConstant(s.src, in.editedAt, constant)
	if err != nil {
		return nil, err
	}
	in.edited = edited
	in.init = s.inputs(rng)
	in.altInit = s.inputs(rand.New(rand.NewSource(seed + 1)))
	return in, nil
}

// uniform returns n values drawn uniformly from [lo, hi).
func uniform(rng *rand.Rand, n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*rng.Float64()
	}
	return out
}

// dominantMatrix returns a row-major n×n matrix with seeded
// off-diagonal entries in [-0.5, 0.5) and n+1 on the diagonal, so
// every row is strictly diagonally dominant and DgefaSrc's pivot-free
// elimination stays exact against the sequential reference.
func dominantMatrix(rng *rand.Rand, n int) []float64 {
	a := uniform(rng, n*n, -0.5, 0.5)
	for i := 0; i < n; i++ {
		a[i*n+i] = float64(n) + 1
	}
	return a
}

var (
	realLiteral = regexp.MustCompile(`\b[0-9]+\.[0-9]+\b`)
	unitHeader  = regexp.MustCompile(`^\s*(PROGRAM|SUBROUTINE)\s+([A-Za-z0-9_$]+)`)
)

// editConstant is the §8 body-only edit: it replaces the first real
// literal in proc's body with constant, leaving every interface and
// every other procedure untouched.
func editConstant(src, proc string, constant int) (string, error) {
	lines := strings.Split(src, "\n")
	in := false
	for i, line := range lines {
		if m := unitHeader.FindStringSubmatch(line); m != nil {
			in = m[2] == proc
			continue
		}
		if !in {
			continue
		}
		if loc := realLiteral.FindStringIndex(line); loc != nil {
			lines[i] = line[:loc[0]] + fmt.Sprintf("%d.0", constant) + line[loc[1]:]
			return strings.Join(lines, "\n"), nil
		}
	}
	return "", fmt.Errorf("no real literal to edit in procedure %s", proc)
}

// sortedNames returns m's keys in order.
func sortedNames(m map[string][]float64) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
