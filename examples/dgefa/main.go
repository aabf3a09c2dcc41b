// Command dgefa reproduces the paper's §9 case study: LINPACK LU
// factorization with the BLAS-1 kernels in separate procedures, so
// interprocedural analysis is essential for acceptable performance.
// It compiles dgefa three ways — interprocedural (the paper),
// immediate instantiation, and run-time resolution — and reports
// simulated execution time, messages, and data volume for each.
//
// Run with:
//
//	go run ./examples/dgefa [-n 96] [-p 4]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"fortd"
)

func dgefaSrc(n, p int) string {
	return fmt.Sprintf(`
      PROGRAM MAIN
      PARAMETER (n$proc = %d)
      REAL a(%d,%d)
      DISTRIBUTE a(:,CYCLIC)
      call dgefa(a, %d)
      END
      SUBROUTINE dgefa(a, n)
      REAL a(%d,%d)
      do k = 1, n-1
        t = 1.0 / a(k,k)
        call dscal(a, n, k, t)
        do j = k+1, n
          call daxpy(a, n, k, j)
        enddo
      enddo
      END
      SUBROUTINE dscal(a, n, k, t)
      REAL a(%d,%d)
      do i = k+1, n
        a(i,k) = a(i,k) * t
      enddo
      END
      SUBROUTINE daxpy(a, n, k, j)
      REAL a(%d,%d)
      do i = k+1, n
        a(i,j) = a(i,j) - a(i,k) * a(k,j)
      enddo
      END
`, p, n, n, n, n, n, n, n, n, n)
}

func matrix(n int) []float64 {
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := math.Sin(float64(i*7+j*13)) * 0.5
			if i == j {
				v = float64(n) + 1.0
			}
			a[i*n+j] = v
		}
	}
	return a
}

func main() {
	n := flag.Int("n", 96, "matrix order")
	p := flag.Int("p", 4, "processors")
	flag.Parse()

	variants := []struct {
		name     string
		strategy fortd.Strategy
	}{
		{"interprocedural", fortd.Interprocedural},
		{"immediate", fortd.Immediate},
		{"runtime-resolution", fortd.RuntimeResolution},
	}

	fmt.Printf("dgefa n=%d on %d processors (column-cyclic)\n\n", *n, *p)
	fmt.Printf("%-20s %12s %10s %12s %8s\n", "strategy", "time(µs)", "messages", "words", "flops")
	var base float64
	for _, v := range variants {
		opts := fortd.DefaultOptions()
		opts.P = *p
		opts.Strategy = v.strategy
		prog, err := fortd.Compile(dgefaSrc(*n, *p), opts)
		if err != nil {
			log.Fatalf("%s: %v", v.name, err)
		}
		res, err := fortd.NewRunner(fortd.WithInit(map[string][]float64{"a": matrix(*n)})).Run(prog)
		if err != nil {
			log.Fatalf("%s: %v", v.name, err)
		}
		// sanity: compare against the sequential reference
		ref, err := fortd.NewRunner(fortd.WithInit(map[string][]float64{"a": matrix(*n)})).RunReference(prog)
		if err != nil {
			log.Fatal(err)
		}
		if m := res.Compare(ref, 1e-6); m != nil {
			log.Fatalf("%s: wrong answer at %s[%d]", v.name, m.Array, m.Index)
		}
		if base == 0 {
			base = res.Stats.Time
		}
		fmt.Printf("%-20s %12.0f %10d %12d %8d   (%.1fx)\n",
			v.name, res.Stats.Time, res.Stats.Messages, res.Stats.Words,
			res.Stats.Flops, res.Stats.Time/base)
	}

	fmt.Println("\nspeedup of the interprocedural version vs processors:")
	var t1 float64
	for _, procs := range []int{1, 2, 4, 8, 16} {
		opts := fortd.DefaultOptions()
		opts.P = procs
		prog, err := fortd.Compile(dgefaSrc(*n, procs), opts)
		if err != nil {
			log.Fatal(err)
		}
		res, err := fortd.NewRunner(fortd.WithInit(map[string][]float64{"a": matrix(*n)})).Run(prog)
		if err != nil {
			log.Fatal(err)
		}
		if procs == 1 {
			t1 = res.Stats.Time
		}
		fmt.Printf("  P=%-3d time=%10.0fµs  speedup=%.2f\n", procs, res.Stats.Time, t1/res.Stats.Time)
	}
}
